//! The paper's headline qualitative claims, asserted against the simulated
//! reproduction. These test *shapes* — who wins, in which direction —
//! never absolute numbers (see EXPERIMENTS.md for the quantitative
//! comparison).

use uu_core::{LoopFilter, Transform, UnmergeOptions};
use uu_harness::{measure, measure_baseline, Measurement};
use uu_kernels::{all_benchmarks, Benchmark};

fn bench(name: &str) -> Benchmark {
    all_benchmarks()
        .into_iter()
        .find(|b| b.info.name == name)
        .unwrap()
}

fn uu(factor: u32) -> Transform {
    Transform::Uu {
        factor,
        unmerge: UnmergeOptions::default(),
    }
}

fn on_hot(b: &Benchmark, t: Transform) -> Measurement {
    let hot = b.info.hot_kernels[0].to_string();
    
    measure(b, t, LoopFilter::Only { func: hot, loop_id: 0 }, None, None, None).unwrap()
}

/// §I / §IV RQ1: u&u speeds up the XSBench binary search despite replacing
/// predication with divergent branches.
#[test]
fn xsbench_uu_wins_despite_divergence() {
    let b = bench("XSBench");
    let base = measure_baseline(&b).unwrap();
    let m = on_hot(&b, uu(8));
    assert_eq!(m.checksum, base.checksum);
    assert!(m.time_ms < base.time_ms, "{} !< {}", m.time_ms, base.time_ms);
    // §V signatures: inst_misc down hard, warp efficiency down.
    assert!((m.metrics.thread_misc as f64) < 0.6 * base.metrics.thread_misc as f64);
    assert!(
        m.metrics.warp_execution_efficiency(32) < base.metrics.warp_execution_efficiency(32)
    );
    // IPC measured over fewer cycles for similar work improves.
    assert!(m.metrics.kernel_cycles < base.metrics.kernel_cycles);
}

/// §III-B: the bezier-surface loop gains ≈30% from u&u factor 2, and
/// (Fig. 7) u&u beats both unroll-alone and unmerge-alone.
#[test]
fn bezier_uu_beats_both_components() {
    let b = bench("bezier-surface");
    let base = measure_baseline(&b).unwrap();
    let uu2 = on_hot(&b, uu(2));
    let unroll2 = on_hot(&b, Transform::Unroll { factor: 2 });
    let unmerge = on_hot(&b, Transform::Unmerge);
    let s = |m: &Measurement| base.time_ms / m.time_ms;
    assert!(s(&uu2) > 1.25, "u&u speedup {}", s(&uu2));
    assert!(s(&uu2) > s(&unroll2), "u&u must beat unroll alone");
    assert!(s(&uu2) > s(&unmerge), "u&u must beat unmerge alone");
    assert!(
        s(&unmerge) > s(&unroll2),
        "for bezier, unmerge alone beats unroll alone"
    );
}

/// §IV RQ1 / §V: complex slows down under u&u, monotonically in the factor,
/// with collapsing warp efficiency; plain unrolling does not hurt it.
#[test]
fn complex_is_the_divergence_outlier() {
    let b = bench("complex");
    let base = measure_baseline(&b).unwrap();
    let u2 = on_hot(&b, uu(2));
    let u8 = on_hot(&b, uu(8));
    let unroll8 = on_hot(&b, Transform::Unroll { factor: 8 });
    assert!(u2.time_ms > base.time_ms);
    assert!(u8.time_ms > u2.time_ms, "slowdown grows with the factor");
    assert!(base.time_ms / u8.time_ms < 0.35, "severe at factor 8");
    assert!(unroll8.time_ms <= base.time_ms * 1.05, "unroll alone is fine");
    assert!(
        u8.metrics.warp_execution_efficiency(32) < 25.0,
        "warp efficiency collapses: {}",
        u8.metrics.warp_execution_efficiency(32)
    );
}

/// §IV RQ1: coordinates speeds up because u&u *inhibits* the baseline's own
/// full unrolling (verified the paper's way: explicitly disabling unrolling
/// gives the same speedup).
#[test]
fn coordinates_win_comes_from_inhibiting_baseline_unroll() {
    let b = bench("coordinates");
    let base = measure_baseline(&b).unwrap();
    let uu2 = on_hot(&b, uu(2));
    assert!(uu2.time_ms < base.time_ms);
    // The paper's control experiment: just forbidding unrolling on that
    // loop reproduces the speedup.
    let mut m = (b.build)();
    let id = m.find("coord_convert").unwrap();
    {
        let f = m.function_mut(id);
        let dom = uu_analysis::DomTree::compute(f);
        let forest = uu_analysis::LoopForest::compute(f, &dom);
        let h = forest.loops()[0].header;
        f.set_loop_pragma(h, uu_ir::LoopPragma::NoUnroll);
    }
    uu_core::compile(&mut m, &uu_core::PipelineOptions::default());
    let mut gpu = uu_simt::Gpu::new();
    let no_unroll = (b.run)(&m, &mut gpu).unwrap();
    assert_eq!(no_unroll.checksum, base.checksum);
    assert!(
        no_unroll.kernel_time_ms < base.time_ms,
        "disabling unrolling alone reproduces the win"
    );
}

/// §IV RQ2: code size and compile time grow with the unroll factor; the
/// paper's exponential-size formula shows up in practice.
#[test]
fn code_size_grows_with_factor() {
    let b = bench("rainflow");
    let base = measure_baseline(&b).unwrap();
    let sizes: Vec<u64> = [2u32, 4]
        .iter()
        .map(|&f| on_hot(&b, uu(f)).code_size)
        .collect();
    assert!(sizes[0] > base.code_size);
    assert!(sizes[1] > sizes[0], "size grows with factor: {sizes:?}");
    let c2 = on_hot(&b, uu(2));
    assert!(c2.compile_ms > 0.0);
}

/// §IV RQ3: unmerge alone is typically ineffective — its median per-loop
/// speedup sits at ≈1.0 even where u&u gains.
#[test]
fn unmerge_alone_is_weak_on_average() {
    for name in ["bn", "libor"] {
        let b = bench(name);
        let base = measure_baseline(&b).unwrap();
        let um = on_hot(&b, Transform::Unmerge);
        let u4 = on_hot(&b, uu(4));
        let s_um = base.time_ms / um.time_ms;
        let s_u4 = base.time_ms / u4.time_ms;
        assert!(
            s_u4 > s_um,
            "{name}: u&u ({s_u4}) must beat unmerge alone ({s_um})"
        );
    }
}

/// §IV RQ1 (ccs): u&u on the tight reduction loops forfeits the baseline's
/// runtime unrolling and slows the kernel down.
#[test]
fn ccs_uu_forfeits_runtime_unrolling() {
    let b = bench("ccs");
    let base = measure_baseline(&b).unwrap();
    let m = on_hot(&b, uu(4));
    assert!(
        m.time_ms > base.time_ms,
        "ccs must slow down: {} vs {}",
        m.time_ms,
        base.time_ms
    );
}

/// §V (haccmk): at factor 8 the unmerged body overflows the instruction
/// cache; plain unrolling stays ahead.
#[test]
fn haccmk_fetch_stalls_at_high_factors() {
    let b = bench("haccmk");
    let base = measure_baseline(&b).unwrap();
    let u8 = on_hot(&b, uu(8));
    let unroll8 = on_hot(&b, Transform::Unroll { factor: 8 });
    assert!(
        u8.metrics.stall_inst_fetch() > base.metrics.stall_inst_fetch(),
        "fetch stalls must appear"
    );
    assert!(
        base.time_ms / unroll8.time_ms > base.time_ms / u8.time_ms,
        "unroll stays ahead of u&u on haccmk at factor 8"
    );
}
