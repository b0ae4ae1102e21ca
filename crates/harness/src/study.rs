//! The three-way unmerge/meld study: u&u vs DARM-style melding vs both.
//!
//! The paper's unmerging pass *splits* merged control flow so each path can
//! specialize; DARM melds divergent diamonds so a warp no longer serializes
//! both arms. The literature has never run the two head-to-head — this
//! study does, per hot loop, on the same per-loop sweep machinery as
//! Figures 6–8:
//!
//! * **u&u** — `uu2` / `uu4` / `uu8`, exactly the sweep's configurations;
//! * **meld** — [`uu_core::Transform::Meld`] alone;
//! * **both** — `uu<k>+meld`: u&u first, then melding whatever divergent
//!   diamonds remain in the transformed body.
//!
//! Only hot loops are measured: a cold loop's kernel never launches, so all
//! three legs provably tie at 1.0 and would only pad the report. Because
//! hot loops are never subsampled, the study's output is identical in
//! `--fast` and full runs, and — like the sweep — byte-identical at any
//! `UU_JOBS` worker count: the task list fixes the output order up front
//! and every point's noise seed keys on the point, not on scheduling.
//!
//! Rendered as `fig9` (per-point data + per-app summary) and `table2`
//! (per-loop verdicts) by [`crate::figures`].

use crate::experiment::{loop_list, measure, Backend, LoopRef, PointTask};
use crate::stats::median_of_20;
use crate::sweep::{seed_for, sentinel_baseline, LoopPoint, FRONTEND_MS};
use uu_core::{FaultPlan, LoopFilter, Transform, UnmergeOptions};
use uu_kernels::Benchmark;

/// The study's measurement configurations, in report order.
pub fn study_configs() -> Vec<(&'static str, Transform)> {
    vec![
        ("uu2", Transform::Uu {
            factor: 2,
            unmerge: UnmergeOptions::default(),
        }),
        ("uu4", Transform::Uu {
            factor: 4,
            unmerge: UnmergeOptions::default(),
        }),
        ("uu8", Transform::Uu {
            factor: 8,
            unmerge: UnmergeOptions::default(),
        }),
        ("meld", Transform::Meld),
        ("uu2+meld", Transform::UuMeld {
            factor: 2,
            unmerge: UnmergeOptions::default(),
        }),
        ("uu4+meld", Transform::UuMeld {
            factor: 4,
            unmerge: UnmergeOptions::default(),
        }),
        ("uu8+meld", Transform::UuMeld {
            factor: 8,
            unmerge: UnmergeOptions::default(),
        }),
    ]
}

/// The study output: one [`LoopPoint`] per (app, hot loop, configuration).
#[derive(Debug, Clone)]
pub struct Study {
    /// All per-loop points, in (bench, loop, config) order.
    pub points: Vec<LoopPoint>,
}

/// Run the three-way study over `benches` on `jobs` workers, with an
/// optional fault-injection plan, taking compiles from `backend`. With a
/// cache shared with the sweep, the study's `uu2`/`uu4`/`uu8` legs hit
/// the very artifacts the sweep produced for the same loops; see
/// [`crate::sweep::run_sweep_backed`] for the contract (neither the worker
/// count nor the backend changes report bytes).
pub fn run_study_backed(
    benches: &[Benchmark],
    jobs: usize,
    fault: Option<FaultPlan>,
    backend: Backend<'_>,
) -> Study {
    let cache = backend.cache;
    // Phase 1: per-application baselines (the denominator of every
    // speedup). Seeds match the sweep's, so a configuration shared by both
    // reports (e.g. `uu2`) produces the same numbers in both.
    let bases: Vec<crate::experiment::Measurement> =
        uu_par::par_map_jobs(jobs, benches, |_, bench| {
            let app = bench.info.name;
            eprintln!("  study baseline {app}...");
            measure(bench, Transform::Baseline, LoopFilter::All, None, fault, cache)
                .unwrap_or_else(|e| sentinel_baseline(format!("{app}/baseline: {e}")))
        });

    // Phase 2: flat (bench, hot loop, config) task list, fanned out.
    let mut tasks: Vec<PointTask<'_>> = Vec::new();
    for (bench, base) in benches.iter().zip(&bases) {
        for l in loop_list(bench) {
            if !bench.info.hot_kernels.contains(&l.func.as_str()) {
                continue;
            }
            for (cname, transform) in study_configs() {
                tasks.push(PointTask {
                    bench,
                    base,
                    loop_ref: l.clone(),
                    hot: true,
                    config: cname,
                    transform,
                    fault,
                    cache,
                });
            }
        }
    }
    let measurements = uu_par::par_map_jobs(jobs, &tasks, |_, t| t.measure());

    let points = tasks
        .iter()
        .zip(measurements)
        .map(|(t, m)| {
            let info = &t.bench.info;
            let app = info.name.to_string();
            let baseline_med = median_of_20(
                t.base.time_ms,
                info.paper_rsd_pct,
                seed_for(&app, &LoopRef { func: "baseline".into(), loop_id: 0 }, "base"),
            );
            let med = median_of_20(
                m.time_ms,
                info.paper_rsd_pct,
                seed_for(&app, &t.loop_ref, t.config),
            );
            let rest = info.binary_rest_size as f64;
            LoopPoint {
                app,
                loop_ref: t.loop_ref.clone(),
                hot: t.hot,
                config: t.config.to_string(),
                speedup: baseline_med / med,
                size_ratio: (rest + m.code_size as f64) / (rest + t.base.code_size as f64),
                compile_ratio: (FRONTEND_MS + m.compile_ms) / (FRONTEND_MS + t.base.compile_ms),
                timed_out: m.timed_out,
                rung: m.rung,
                diag: m.diag,
            }
        })
        .collect();
    Study { points }
}

/// Per-loop verdict of the three-way comparison.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Application name.
    pub app: String,
    /// The compared loop.
    pub loop_ref: LoopRef,
    /// Best u&u speedup and the factor configuration that achieved it.
    pub best_uu: (String, f64),
    /// Meld-only speedup.
    pub meld: f64,
    /// Best u&u+meld speedup and its configuration.
    pub best_both: (String, f64),
    /// Which leg wins: `u&u`, `meld`, `both`, or `tie` (within ±2%).
    pub winner: &'static str,
}

/// Reduce a study to per-loop verdicts, in study point order.
pub fn verdicts(study: &Study) -> Vec<Verdict> {
    let mut out: Vec<Verdict> = Vec::new();
    for p in &study.points {
        if out
            .iter()
            .any(|v| v.app == p.app && v.loop_ref == p.loop_ref)
        {
            continue;
        }
        let of = |pred: &dyn Fn(&str) -> bool| -> (String, f64) {
            study
                .points
                .iter()
                .filter(|q| q.app == p.app && q.loop_ref == p.loop_ref && pred(&q.config))
                .map(|q| (q.config.clone(), q.speedup))
                .fold((String::new(), f64::MIN), |acc, x| {
                    if x.1 > acc.1 {
                        x
                    } else {
                        acc
                    }
                })
        };
        let best_uu = of(&|c| c.starts_with("uu") && !c.ends_with("+meld"));
        let meld = of(&|c| c == "meld").1;
        let best_both = of(&|c| c.ends_with("+meld"));
        let winner = {
            let (u, m, b) = (best_uu.1, meld, best_both.1);
            let top = u.max(m).max(b);
            let tol = top / 1.02;
            match (u >= tol, m >= tol, b >= tol) {
                (true, false, false) => "u&u",
                (false, true, false) => "meld",
                (false, false, true) => "both",
                _ => "tie",
            }
        };
        out.push(Verdict {
            app: p.app.clone(),
            loop_ref: p.loop_ref.clone(),
            best_uu,
            meld,
            best_both,
            winner,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use uu_kernels::all_benchmarks;

    #[test]
    fn study_covers_every_hot_loop_with_all_configs() {
        let benches: Vec<Benchmark> = all_benchmarks()
            .into_iter()
            .filter(|b| b.info.name == "mandelbrot")
            .collect();
        let s = run_study_backed(&benches, 2, None, Backend::default());
        assert!(!s.points.is_empty());
        assert!(s.points.len().is_multiple_of(study_configs().len()));
        for p in &s.points {
            assert!(p.hot);
            assert!(p.speedup > 0.0, "{p:?}");
            assert!(
                p.diag.is_empty(),
                "study point must be clean (no miscompile): {p:?}"
            );
        }
        let v = verdicts(&s);
        assert_eq!(v.len(), s.points.len() / study_configs().len());
        for verdict in &v {
            assert!(["u&u", "meld", "both", "tie"].contains(&verdict.winner));
        }
    }
}
