//! The paper's §V *complex* analysis and its proposed fix. The `pow` loop's
//! branch depends on the thread id, so u&u multiplies divergent path length
//! and the benchmark collapses (paper: 0.11× at factor 8). The paper's
//! future-work remedy — "a taint analysis that checks whether a condition
//! depends on the values of e.g. threadIdx, and not apply our transformation
//! in these cases" — is implemented here as the heuristic's divergence
//! guard; this example shows it rescuing the benchmark.
//!
//! ```text
//! cargo run --release -p uu-harness --example divergence_guard
//! ```

use uu_core::{HeuristicOptions, LoopFilter, Transform, UnmergeOptions};
use uu_harness::{measure, measure_baseline};
use uu_kernels::all_benchmarks;

fn main() {
    let bench = all_benchmarks()
        .into_iter()
        .find(|b| b.info.name == "complex")
        .unwrap();
    let base = measure_baseline(&bench).unwrap();
    println!("baseline: {:.6} ms (fully predicated, warp efficiency {:.1}%)",
        base.time_ms, base.metrics.warp_execution_efficiency(32));

    for factor in [2u32, 8] {
        let m = measure(
            &bench,
            Transform::Uu {
                factor,
                unmerge: UnmergeOptions::default(),
            },
            LoopFilter::Only {
                func: "complex_pow".into(),
                loop_id: 0,
            },
            None,
            None,
            None,
        )
        .unwrap();
        assert_eq!(m.checksum, base.checksum);
        println!(
            "u&u x{factor}:   {:.6} ms  ({:.2}x, warp efficiency {:.1}%, stall_inst_fetch {:.1}%)",
            m.time_ms,
            base.time_ms / m.time_ms,
            m.metrics.warp_execution_efficiency(32),
            m.metrics.stall_inst_fetch(),
        );
    }

    // The heuristic without the guard transforms the loop (and loses);
    // with the guard it skips it (Decision::Divergent) and time is
    // unchanged.
    for (name, guard) in [("heuristic (no guard)", false), ("heuristic + guard", true)] {
        let m = measure(
            &bench,
            Transform::UuHeuristic(HeuristicOptions {
                divergence_guard: guard,
                ..Default::default()
            }),
            LoopFilter::All,
            None,
            None,
            None,
        )
        .unwrap();
        assert_eq!(m.checksum, base.checksum);
        println!(
            "{name}: {:.6} ms  ({:.2}x)",
            m.time_ms,
            base.time_ms / m.time_ms
        );
    }
    println!("\nPaper §V: warp efficiency 100% → 19.4%, stall_inst_fetch 3.7% → 79.6% at factor 8.");
}
