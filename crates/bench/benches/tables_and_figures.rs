//! One bench per paper table/figure, at reduced scale.
//!
//! Each bench times the *regeneration machinery* for its artifact — a
//! compile+execute measurement of the kind the full harness sweeps. The
//! full-size regeneration is `cargo run --release -p uu-harness -- all`
//! (see EXPERIMENTS.md); these benches keep the machinery honest and
//! regression-tracked via the JSON reports under `target/uu-bench/`.

use uu_check::bench::Harness;
use uu_core::{HeuristicOptions, LoopFilter, Transform, UnmergeOptions};
use uu_harness::{measure, measure_baseline};
use uu_kernels::all_benchmarks;

fn bench_by_name(name: &str) -> uu_kernels::Benchmark {
    all_benchmarks()
        .into_iter()
        .find(|b| b.info.name == name)
        .unwrap()
}

/// Table I: baseline + heuristic measurement of one application.
fn table1(h: &mut Harness) {
    let b = bench_by_name("bezier-surface");
    h.bench("table1/bezier_baseline", || measure_baseline(&b).unwrap());
    h.bench("table1/bezier_heuristic", || {
        measure(
            &b,
            Transform::UuHeuristic(HeuristicOptions::default()),
            LoopFilter::All,
            None,
            None,
            None,
        )
        .unwrap()
    });
}

/// Figure 6a/6b/6c: a per-loop u&u data point (speedup, size, compile time
/// all come from the same measurement).
fn fig6(h: &mut Harness) {
    let b = bench_by_name("XSBench");
    for factor in [2u32, 8] {
        h.bench(&format!("fig6/xsbench_uu{factor}_point"), || {
            measure(
                &b,
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
            .unwrap()
        });
    }
}

/// Figure 7: the three comparator configurations on one application.
fn fig7(h: &mut Harness) {
    let b = bench_by_name("bezier-surface");
    let configs: [(&str, Transform); 3] = [
        (
            "uu4",
            Transform::Uu {
                factor: 4,
                unmerge: UnmergeOptions::default(),
            },
        ),
        ("unroll4", Transform::Unroll { factor: 4 }),
        ("unmerge", Transform::Unmerge),
    ];
    for (name, t) in configs {
        h.bench(&format!("fig7/bezier_{name}"), || {
            measure(
                &b,
                t.clone(),
                LoopFilter::Only {
                    func: "bezier_blend".into(),
                    loop_id: 0,
                },
                None,
                None,
                None,
            )
            .unwrap()
        });
    }
}

/// Figure 8: a scatter pair (u&u vs unroll on the same loop).
fn fig8(h: &mut Harness) {
    let b = bench_by_name("libor");
    h.bench("fig8/libor_pair", || {
        let f = LoopFilter::Only {
            func: "libor_path".into(),
            loop_id: 0,
        };
        let uu = measure(
            &b,
            Transform::Uu {
                factor: 4,
                unmerge: UnmergeOptions::default(),
            },
            f.clone(),
            None,
            None,
            None,
        )
        .unwrap();
        let un = measure(&b, Transform::Unroll { factor: 4 }, f, None, None, None).unwrap();
        (uu.time_ms, un.time_ms)
    });
}

/// §V in-depth: the counter collection for one case.
fn indepth(h: &mut Harness) {
    let b = bench_by_name("complex");
    h.bench("indepth/complex_counters", || {
        let m = measure(
            &b,
            Transform::Uu {
                factor: 2,
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
        (
            m.metrics.warp_execution_efficiency(32),
            m.metrics.stall_inst_fetch(),
        )
    });
}

fn main() {
    let mut h = Harness::new("tables_and_figures");
    table1(&mut h);
    fig6(&mut h);
    fig7(&mut h);
    fig8(&mut h);
    indepth(&mut h);
    h.finish();
}
