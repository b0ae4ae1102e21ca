//! The artifact cache's headline guarantee: cached and cacheless sweeps
//! are identical — not statistically close, *identical* — at any worker
//! count, cold or warm. Every report is a pure function of the sweep
//! struct, so Debug-comparing the structs (which renders f64s at full
//! round-trip precision) is equivalent to diffing the report bytes.

use uu_core::FaultPlan;
use uu_harness::study::run_study_backed;
use uu_harness::sweep::{run_sweep_backed, Sweep};
use uu_harness::Backend;
use uu_kernels::{all_benchmarks, Benchmark};
use uu_serve::CompileCache;

fn benches() -> Vec<Benchmark> {
    all_benchmarks()
        .into_iter()
        .filter(|b| b.info.name == "mandelbrot")
        .collect()
}

fn repr(s: &Sweep) -> String {
    format!("{:?}\n{:?}", s.points, s.apps)
}

fn sweep(
    benches: &[Benchmark],
    jobs: usize,
    fault: Option<FaultPlan>,
    cache: Option<&CompileCache>,
) -> Sweep {
    run_sweep_backed(benches, true, jobs, fault, Backend::local(cache))
}

#[test]
fn cached_sweep_is_identical_to_cacheless_at_any_jobs() {
    let benches = benches();
    let plain = sweep(&benches, 1, None, None);

    // Cold cache, serial.
    let cold_cache = CompileCache::new_mem();
    let cold = sweep(&benches, 1, None, Some(&cold_cache));
    assert_eq!(repr(&plain), repr(&cold), "cold cached != cacheless");
    // The sweep shares compiles across configs even within one cold run
    // (e.g. each loop's `unmerge` module is compiled once per filter).
    let cold_stats = cold_cache.stats();
    assert!(cold_stats.compile_misses > 0);

    // Cold cache, 4 workers: the cache is shared across threads.
    let j4_cache = CompileCache::new_mem();
    let j4 = sweep(&benches, 4, None, Some(&j4_cache));
    assert_eq!(repr(&plain), repr(&j4), "jobs=4 cached != cacheless");

    // Warm rerun over the jobs=4 cache: every executed point must come
    // from a run artifact, every skip-run point from a compile artifact —
    // and the output must still be identical.
    let warm = sweep(&benches, 1, None, Some(&j4_cache));
    assert_eq!(repr(&plain), repr(&warm), "warm cached != cacheless");
    let st = j4_cache.stats();
    assert!(st.run_mem_hits > 0, "warm rerun must hit run artifacts: {st:?}");
    assert_eq!(
        st.run_mem_hits + st.run_disk_hits,
        st.run_misses,
        "warm pass must re-serve exactly the cold pass's run lookups: {st:?}"
    );
}

#[test]
fn cached_study_is_identical_and_warm_hits() {
    let benches = benches();
    let plain = run_study_backed(&benches, 1, None, Backend::default());
    let cache = CompileCache::new_mem();
    let cold = run_study_backed(&benches, 2, None, Backend::local(Some(&cache)));
    let warm = run_study_backed(&benches, 1, None, Backend::local(Some(&cache)));
    let r = |s: &uu_harness::study::Study| format!("{:?}", s.points);
    assert_eq!(r(&plain), r(&cold));
    assert_eq!(r(&plain), r(&warm));
    let st = cache.stats();
    assert!(st.run_mem_hits > 0, "{st:?}");
    assert!(st.work_saved > 0, "{st:?}");
}

#[test]
fn disk_cache_round_trips_a_sweep_across_cache_instances() {
    // bezier-surface, not mandelbrot: its two cold loops produce
    // skip-run (compile-only) points, so the warm pass must hit disk
    // *compile* artifacts as well as run artifacts. A single-hot-loop
    // app re-serves everything from run artifacts and never consults
    // the compile layer on a warm pass.
    let benches: Vec<Benchmark> = all_benchmarks()
        .into_iter()
        .filter(|b| b.info.name == "bezier-surface")
        .collect();
    let dir = std::env::temp_dir().join(format!("uu-sweep-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let plain = sweep(&benches, 1, None, None);
    {
        let cache = CompileCache::at_dir(&dir).unwrap();
        let cold = sweep(&benches, 1, None, Some(&cache));
        assert_eq!(repr(&plain), repr(&cold));
    }
    // A fresh cache instance (empty memory, as after a process restart)
    // must serve the whole sweep from disk artifacts, byte-identically.
    let cache = CompileCache::at_dir(&dir).unwrap();
    let warm = sweep(&benches, 1, None, Some(&cache));
    assert_eq!(repr(&plain), repr(&warm), "disk-warm sweep != cacheless");
    let st = cache.stats();
    assert!(st.run_disk_hits > 0, "{st:?}");
    assert!(st.compile_disk_hits > 0, "{st:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn faulted_cached_sweeps_are_identical_cold_and_warm_at_any_jobs() {
    // A pass panic degrades compiles, whose artifacts are cached with the
    // degraded rung; a memory fault traps simulations, which are never
    // cached. Either way a cached sweep, cold or warm, must reproduce
    // the cacheless faulted sweep exactly.
    let benches = benches();
    for spec in ["panic@3", "mem@40"] {
        let fault = Some(FaultPlan::parse(spec).unwrap());
        let plain = repr(&sweep(&benches, 1, fault, None));
        for jobs in [1, 4] {
            let cache = CompileCache::new_mem();
            let cold = sweep(&benches, jobs, fault, Some(&cache));
            assert_eq!(plain, repr(&cold), "{spec}, jobs={jobs}: cold cached != cacheless");
            let warm = sweep(&benches, jobs, fault, Some(&cache));
            assert_eq!(plain, repr(&warm), "{spec}, jobs={jobs}: warm cached != cacheless");
            if spec.starts_with("mem") {
                let trapped = warm
                    .points
                    .iter()
                    .map(|p| p.diag.as_str())
                    .chain(warm.apps.iter().map(|a| a.diag.as_str()))
                    .any(|d| d.contains("exec fault"));
                assert!(trapped, "jobs={jobs}: the warm sweep lost the mem fault");
            }
        }
    }
}
