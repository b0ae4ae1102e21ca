//! The paper's motivating example (Listing 1, §V): XSBench's binary-search
//! loop. Shows the baseline predicating the bounds update into selects (the
//! `selp` of Listing 4), u&u replacing them with provenance-rich branches
//! (Listing 5), and the resulting counter changes: `inst_misc` down sharply,
//! warp execution efficiency down, kernel time *better* anyway.
//!
//! ```text
//! cargo run --release -p uu-harness --example xsbench_binary_search
//! ```

use uu_core::{compile, LoopFilter, PipelineOptions, Transform, UnmergeOptions};
use uu_harness::{measure, measure_baseline};
use uu_ir::{InstKind, Module};
use uu_kernels::all_benchmarks;

fn count(f: &uu_ir::Function, what: &str) -> usize {
    f.iter_insts()
        .filter(|(_, i)| match what {
            "select" => matches!(i.kind, InstKind::Select { .. }),
            "condbr" => matches!(i.kind, InstKind::CondBr { .. }),
            "sub" => matches!(
                i.kind,
                InstKind::Bin {
                    op: uu_ir::BinOp::Sub,
                    ..
                }
            ),
            _ => false,
        })
        .count()
}

fn main() {
    let bench = all_benchmarks()
        .into_iter()
        .find(|b| b.info.name == "XSBench")
        .unwrap();

    // Show the compiled hot kernel under both pipelines.
    for (name, t) in [
        ("baseline -O3", Transform::Baseline),
        (
            "u&u factor 8",
            Transform::Uu {
                factor: 8,
                unmerge: UnmergeOptions::default(),
            },
        ),
    ] {
        let mut m = Module::new("xs");
        let id = m.add_function(uu_kernels::xsbench::lookup_kernel());
        compile(
            &mut m,
            &PipelineOptions {
                transform: t,
                filter: LoopFilter::Only {
                    func: "xs_lookup".into(),
                    loop_id: 0,
                },
                ..Default::default()
            },
        );
        let f = m.function(id);
        println!(
            "{name}: {} blocks, {} insts, {} selects (selp), {} conditional branches, {} subs",
            f.num_blocks(),
            f.num_insts(),
            count(f, "select"),
            count(f, "condbr"),
            count(f, "sub"),
        );
        if name.starts_with("baseline") {
            println!("\n--- baseline loop (predicated, compare paper Listing 4) ---\n{f}");
        }
    }

    // Full-application measurement, as in §V.
    let base = measure_baseline(&bench).unwrap();
    println!(
        "\n{:<12} {:>10} {:>12} {:>10} {:>8} {:>8}",
        "config", "time (ms)", "inst_misc", "inst_ctrl", "weff %", "IPC"
    );
    let report = |name: &str, m: &uu_harness::Measurement| {
        println!(
            "{:<12} {:>10.6} {:>12} {:>10} {:>8.1} {:>8.2}",
            name,
            m.time_ms,
            m.metrics.thread_misc,
            m.metrics.thread_control,
            m.metrics.warp_execution_efficiency(32),
            m.metrics.ipc(),
        );
    };
    report("baseline", &base);
    for factor in [2u32, 4, 8] {
        let m = measure(
            &bench,
            Transform::Uu {
                factor,
                unmerge: UnmergeOptions::default(),
            },
            LoopFilter::Only {
                func: "xs_lookup".into(),
                loop_id: 0,
            },
            None,
            None,
            None,
        )
        .unwrap();
        assert_eq!(m.checksum, base.checksum, "semantics preserved");
        report(&format!("u&u x{factor}"), &m);
    }
    println!(
        "\nPaper (§V, V100): inst_misc −55%, warp efficiency 62.9% → 18.9%, IPC ×1.88, speedup up to 1.36×."
    );
}
