//! Command-line entry point: `uu-harness <command> [--fast] [--out DIR]`.
//!
//! Batch commands (`all`, `table1`, `fig6`–`fig9`, `table2`, `study`,
//! `indepth`, `decisions`, `dump`) regenerate the paper's reports.
//! `--bench NAME` restricts a run to one application; report commands
//! then require `--out`, so a partial run never overwrites `results/`.
//!
//! Batch commands honour the artifact-cache environment knobs:
//! `UU_CACHE_DIR=<dir>` enables the persistent content-addressed cache,
//! `UU_CACHE=mem` an in-process one. Both leave every report
//! byte-identical to a cacheless run.

use std::path::PathBuf;
use uu_harness::{figures, indepth, study, sweep};
use uu_kernels::all_benchmarks;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out_flag = flag("--out");
    let out = PathBuf::from(out_flag.as_deref().unwrap_or("results"));
    let only: Option<String> = flag("--bench");
    let flag_values: Vec<String> =
        ["--out", "--bench", "--config"].iter().filter_map(|f| flag(f)).collect();
    let cmd = args
        .iter()
        .find(|a| !a.starts_with("--") && !flag_values.contains(a))
        .map(String::as_str)
        .unwrap_or("all");

    let benches: Vec<_> = all_benchmarks()
        .into_iter()
        .filter(|b| only.as_deref().map(|o| b.info.name == o).unwrap_or(true))
        .collect();
    if benches.is_empty() {
        eprintln!("no benchmark matches --bench filter");
        std::process::exit(2);
    }

    const SWEEP_CMDS: [&str; 10] = [
        "table1", "fig6a", "fig6b", "fig6c", "fig6", "fig7", "fig8a", "fig8b", "fig8", "all",
    ];
    const STUDY_CMDS: [&str; 3] = ["study", "fig9", "table2"];
    let writes_reports = SWEEP_CMDS.contains(&cmd) || STUDY_CMDS.contains(&cmd);
    if writes_reports && only.is_some() && out_flag.is_none() {
        eprintln!(
            "`{cmd} --bench` writes a partial report; pass --out DIR so it cannot \
             overwrite {}",
            out.display()
        );
        std::process::exit(2);
    }

    match cmd {
        c if SWEEP_CMDS.contains(&c) => {
            let cache = uu_serve::CompileCache::from_env();
            let backend = uu_harness::Backend::local(cache.as_ref());
            eprintln!(
                "running sweep over {} benchmark(s){}{} ...",
                benches.len(),
                if fast { " (fast)" } else { "" },
                if cache.is_some() { " [cached]" } else { "" },
            );
            let fault = uu_core::FaultPlan::from_env();
            let jobs = uu_par::num_jobs();
            let s = sweep::run_sweep_backed(&benches, fast, jobs, fault, backend);
            let emitted = (|| -> std::io::Result<()> {
                match cmd {
                    "table1" => figures::table1(&s, &out, &benches)?,
                    "fig6" | "fig6a" | "fig6b" | "fig6c" => figures::fig6(&s, &out)?,
                    "fig7" => figures::fig7(&s, &out)?,
                    "fig8" | "fig8a" | "fig8b" => figures::fig8(&s, &out)?,
                    _ => {
                        figures::table1(&s, &out, &benches)?;
                        figures::fig6(&s, &out)?;
                        figures::fig7(&s, &out)?;
                        figures::fig8(&s, &out)?;
                        let cases = indepth::collect();
                        indepth::report(&cases, &out)?;
                        eprintln!("running three-way unmerge/meld study...");
                        let st = study::run_study_backed(&benches, jobs, fault, backend);
                        figures::fig9(&st, &out)?;
                        figures::table2(&st, &out)?;
                    }
                }
                // Every sweep-based command also emits the fault report,
                // so a faulted run is diagnosable from the results dir.
                figures::faults(&s, &out)
            })();
            if let Err(e) = emitted {
                eprintln!("could not write results to {}: {e}", out.display());
                std::process::exit(1);
            }
            eprintln!("wrote results to {}", out.display());
            report_cache(cache.as_ref());
            // Print the headline table to stdout for quick inspection.
            if matches!(cmd, "table1" | "all") {
                if let Ok(t) = std::fs::read_to_string(out.join("table1.txt")) {
                    println!("{t}");
                }
            }
            if matches!(cmd, "fig7" | "all") {
                if let Ok(t) = std::fs::read_to_string(out.join("fig7.txt")) {
                    println!("{t}");
                }
            }
        }
        c if STUDY_CMDS.contains(&c) => {
            // The three-way unmerge/meld study (hot loops only; identical
            // in fast and full runs, byte-identical at any UU_JOBS).
            let cache = uu_serve::CompileCache::from_env();
            eprintln!(
                "running three-way unmerge/meld study over {} benchmark(s)...",
                benches.len()
            );
            let st = study::run_study_backed(
                &benches,
                uu_par::num_jobs(),
                uu_core::FaultPlan::from_env(),
                uu_harness::Backend::local(cache.as_ref()),
            );
            let emitted = (|| -> std::io::Result<()> {
                figures::fig9(&st, &out)?;
                figures::table2(&st, &out)
            })();
            if let Err(e) = emitted {
                eprintln!("could not write results to {}: {e}", out.display());
                std::process::exit(1);
            }
            eprintln!("wrote results to {}", out.display());
            report_cache(cache.as_ref());
            if let Ok(t) = std::fs::read_to_string(out.join("table2.txt")) {
                println!("{t}");
            }
        }
        "indepth" => {
            let cases = indepth::collect();
            if let Err(e) = indepth::report(&cases, &out) {
                eprintln!("could not write results to {}: {e}", out.display());
                std::process::exit(1);
            }
            if let Ok(t) = std::fs::read_to_string(out.join("indepth.txt")) {
                println!("{t}");
            }
        }
        "dump" => {
            // Print each hot kernel after optimization under a config given
            // by --config (see `uu_serve::config_names`).
            let config = flag("--config").unwrap_or_else(|| "uu4".to_string());
            let Some(transform) = uu_serve::parse_config(&config) else {
                eprintln!(
                    "unknown --config `{config}`; expected {}",
                    uu_serve::config_names()
                );
                std::process::exit(2);
            };
            // Compile in parallel; print in benchmark order.
            let dumps = uu_par::par_map(&benches, |_, b| {
                let mut m = (b.build)();
                uu_core::compile(
                    &mut m,
                    &uu_core::PipelineOptions {
                        transform: transform.clone(),
                        ..Default::default()
                    },
                );
                let mut text = String::new();
                for hot in b.info.hot_kernels {
                    if let Some(id) = m.find(hot) {
                        text.push_str(&format!(
                            "; {} under {config}\n{}\n",
                            b.info.name,
                            m.function(id)
                        ));
                    }
                }
                text
            });
            for d in dumps {
                print!("{d}");
            }
        }
        "decisions" => {
            // Dump the heuristic's per-loop reasoning (paper §III-C).
            // Compile in parallel; print in benchmark order.
            let dumps = uu_par::par_map(&benches, |_, b| {
                let mut m = (b.build)();
                let outcome = uu_core::compile(
                    &mut m,
                    &uu_core::PipelineOptions {
                        transform: uu_core::Transform::UuHeuristic(Default::default()),
                        ..Default::default()
                    },
                );
                let mut text = format!("== {} ==\n", b.info.name);
                for (func, d) in outcome.decisions {
                    text.push_str(&format!(
                        "  {func:<24} loop@{:<6} p={:<4} s={:<5} -> {:?}\n",
                        d.header.to_string(),
                        d.paths,
                        d.size,
                        d.decision
                    ));
                }
                text
            });
            for d in dumps {
                print!("{d}");
            }
        }
        other => {
            eprintln!(
                "unknown command `{other}`; expected one of: all, table1, fig6[a|b|c], fig7, fig8[a|b], study, fig9, table2, indepth, decisions, dump"
            );
            std::process::exit(2);
        }
    }
}

/// After a cached batch run, surface the cache's versioned stats on
/// stderr (reports on stdout/disk stay byte-identical to cacheless runs).
fn report_cache(cache: Option<&uu_serve::CompileCache>) {
    if let Some(c) = cache {
        let st = c.stats();
        eprintln!(
            "cache: {} hits / {} misses ({:.1}% hit rate), {} work units saved",
            st.hits(),
            st.misses(),
            st.hit_rate() * 100.0,
            st.work_saved
        );
        eprintln!("cache stats JSON:\n{}", st.to_json());
    }
}
