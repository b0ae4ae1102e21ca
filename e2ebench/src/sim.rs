//! The `sim-arch` workload: every application compiled under baseline
//! and the u&u heuristic, then simulated under seeded draws of the GPU
//! architecture (a generalization of `examples/architecture_sweep.rs`).

use crate::layers::Counts;
use crate::trace::span;
use uu_check::Rng;
use uu_core::{compile, HeuristicOptions, LoopFilter, PipelineOptions, Rung, Transform};
use uu_harness::experiment::COMPILE_TIMEOUT;
use uu_ir::Module;
use uu_kernels::{all_benchmarks, Benchmark};
use uu_simt::{Gpu, GpuParams};

/// One application compiled both ways, with its reference checksum.
pub struct App {
    bench: Benchmark,
    /// Baseline and heuristic modules.
    modules: [Module; 2],
    /// Checksum under default parameters (baseline and heuristic agree).
    pub checksum: f64,
}

/// Set-up: compile all 16 applications under baseline and the heuristic
/// and simulate each module once under default parameters. Failures are
/// described in `failures`.
pub fn setup(c: &mut Counts, failures: &mut Vec<String>) -> Vec<App> {
    let mut apps = Vec::new();
    for bench in all_benchmarks() {
        let name = bench.info.name;
        let configs = [
            ("baseline", Transform::Baseline),
            (
                "heuristic",
                Transform::UuHeuristic(HeuristicOptions::default()),
            ),
        ];
        let mut modules = Vec::new();
        let mut sums = Vec::new();
        for (config, transform) in configs {
            let ctx = format!("{name}/{config}");
            let mut m = span("kernels.build", &ctx, || (bench.build)());
            let opts = PipelineOptions {
                transform,
                filter: LoopFilter::All,
                timeout: Some(COMPILE_TIMEOUT),
                ..Default::default()
            };
            let o = span("core.compile", &ctx, || compile(&mut m, &opts));
            c.compiled(&o);
            if o.rung != Rung::Full && !o.timed_out || !o.failures.is_empty() {
                failures.push(format!(
                    "{ctx}: compile {:?} {}",
                    o.rung,
                    o.failure_summary()
                ));
            }
            let run = span("simt.run", &ctx, || (bench.run)(&m, &mut Gpu::new()));
            c.ran(run.as_ref().ok());
            c.points += 1;
            match run {
                Ok(r) => sums.push(r.checksum),
                Err(e) => failures.push(format!("{ctx}: {e}")),
            }
            modules.push(m);
        }
        if sums.len() == 2 && sums[0] != sums[1] {
            failures.push(format!(
                "{name}: heuristic checksum {} != baseline {}",
                sums[1], sums[0]
            ));
        }
        let [base, heur]: [Module; 2] = modules.try_into().expect("two configurations");
        apps.push(App {
            bench,
            modules: [base, heur],
            checksum: sums.first().copied().unwrap_or(f64::NAN),
        });
    }
    apps
}

/// Architecture draws per timed pass; every module is simulated under
/// each. A pass of 10 draws (320 simulations) takes a few tenths of a
/// second, so a run holds dozens of passes and its fastest pass is steady
/// (see `METHOD.md`, Host noise); the figures there are for this count.
pub const DRAWS: usize = 10;

/// [`DRAWS`] architecture draws from `seed`, stratified per knob (one
/// draw in each of [`DRAWS`] equal slices of every range, slices shuffled
/// per knob) so that every seed covers the ranges evenly.
pub fn draws(seed: u64) -> Vec<GpuParams> {
    let n = DRAWS;
    let mut rng = Rng::seed_from_u64(seed);
    let strata = |rng: &mut Rng| -> Vec<f64> {
        let mut v: Vec<f64> = (0..n)
            .map(|i| (i as f64 + rng.gen_f64()) / n as f64)
            .collect();
        for i in (1..n).rev() {
            v.swap(i, rng.gen_range_usize(0, i + 1));
        }
        v
    };
    let (icache, warps, latency, sms) = (
        strata(&mut rng),
        strata(&mut rng),
        strata(&mut rng),
        strata(&mut rng),
    );
    (0..n)
        .map(|i| GpuParams {
            // 1 KiB .. 32 KiB of code, log-uniform (the range of
            // examples/architecture_sweep.rs).
            icache_capacity: (1024.0 * 32f64.powf(icache[i])).round() as u64,
            warps_per_sm: 2 + (warps[i] * 31.0) as u32,
            mem_latency: 100 + (latency[i] * 700.0) as u64,
            num_sms: 16 + (sms[i] * 145.0) as u32,
            ..GpuParams::default()
        })
        .collect()
}

/// The timed phase: simulate every module under every draw. Returns the
/// per-(app, draw) heuristic speedups; failures are described.
pub fn simulate(
    apps: &[App],
    params: &[GpuParams],
    c: &mut Counts,
    failures: &mut Vec<String>,
) -> Vec<f64> {
    let mut speedups = Vec::with_capacity(apps.len() * params.len());
    for (d, p) in params.iter().enumerate() {
        for app in apps {
            let name = app.bench.info.name;
            let mut times = [0.0f64; 2];
            for (k, m) in app.modules.iter().enumerate() {
                let ctx = format!("{name}/{}/draw{d}", ["baseline", "heuristic"][k]);
                let run = span("simt.run", &ctx, || {
                    (app.bench.run)(m, &mut Gpu::with_params(*p))
                });
                c.ran(run.as_ref().ok());
                c.points += 1;
                match run {
                    Ok(r) if r.checksum == app.checksum => times[k] = r.kernel_time_ms,
                    Ok(r) => failures.push(format!(
                        "{ctx}: checksum {} != {}",
                        r.checksum, app.checksum
                    )),
                    Err(e) => failures.push(format!("{ctx}: {e}")),
                }
            }
            if times[0] > 0.0 && times[1] > 0.0 {
                speedups.push(times[0] / times[1]);
            }
        }
    }
    speedups
}
