//! The paper's §III-B detailed example: the bezier-surface blend loop
//! (Listing 2) under u&u with factor 2. The two conditions are monotone, so
//! in three of the four duplicated loop bodies the compiler deletes the
//! re-evaluations (Figure 5's `FT`/`TF`/`FF` copies) — this example counts
//! the surviving condition checks to show it, then measures the speedup.
//!
//! ```text
//! cargo run --release -p uu-harness --example bezier_surface
//! ```

use uu_core::{compile, LoopFilter, PipelineOptions, Transform, UnmergeOptions};
use uu_harness::{measure, measure_baseline};
use uu_ir::{InstKind, Module};
use uu_kernels::all_benchmarks;

fn main() {
    let bench = all_benchmarks()
        .into_iter()
        .find(|b| b.info.name == "bezier-surface")
        .unwrap();

    // Static view: dynamic checks per compiled form.
    for (name, t) in [
        ("baseline -O3", Transform::Baseline),
        (
            "u&u factor 2",
            Transform::Uu {
                factor: 2,
                unmerge: UnmergeOptions::default(),
            },
        ),
    ] {
        let mut m = Module::new("bz");
        let id = m.add_function(uu_kernels::bezier::blend_kernel());
        compile(
            &mut m,
            &PipelineOptions {
                transform: t,
                filter: LoopFilter::Only {
                    func: "bezier_blend".into(),
                    loop_id: 0,
                },
                ..Default::default()
            },
        );
        let f = m.function(id);
        let cmps = f
            .iter_insts()
            .filter(|(_, i)| matches!(i.kind, InstKind::ICmp { .. }))
            .count();
        let divs = f
            .iter_insts()
            .filter(|(_, i)| {
                matches!(
                    i.kind,
                    InstKind::Bin {
                        op: uu_ir::BinOp::FDiv,
                        ..
                    }
                )
            })
            .count();
        let selects = f
            .iter_insts()
            .filter(|(_, i)| matches!(i.kind, InstKind::Select { .. }))
            .count();
        println!(
            "{name}: {} blocks, {} compares, {} fdivs, {} selects",
            f.num_blocks(),
            cmps,
            divs,
            selects
        );
    }

    // Dynamic view: the measured speedup (paper §III-B reports ~30% on this
    // loop; our simulated substrate lands in the same range).
    let base = measure_baseline(&bench).unwrap();
    let uu = measure(
        &bench,
        Transform::Uu {
            factor: 2,
            unmerge: UnmergeOptions::default(),
        },
        LoopFilter::Only {
            func: "bezier_blend".into(),
            loop_id: 0,
        },
        None,
        None,
        None,
    )
    .unwrap();
    assert_eq!(uu.checksum, base.checksum, "semantics preserved");
    println!(
        "\nbaseline {:.6} ms  →  u&u(2) {:.6} ms   speedup {:.2}x (paper: ~1.30x)",
        base.time_ms,
        uu.time_ms,
        base.time_ms / uu.time_ms
    );
    println!(
        "inst_misc: {} → {}   fdiv-heavy speculation removed on the cold paths",
        base.metrics.thread_misc, uu.metrics.thread_misc
    );
}
