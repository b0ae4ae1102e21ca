//! The `fast-cold` / `fast-warm` workloads: `uu-harness all --fast` over a
//! fixed subset of the applications, run through the product's own entry
//! points, and a traced replay of the product's point list by direct calls.

use crate::layers::Counts;
use crate::trace::{span, span_as};
use std::io;
use std::path::Path;
use uu_core::{compile, HeuristicOptions, LoopFilter, PipelineOptions, Rung, Transform};
use uu_harness::experiment::{loop_list, sweep_configs, Measurement, COMPILE_TIMEOUT};
use uu_harness::indepth::CounterCase;
use uu_harness::study::{study_configs, Study};
use uu_harness::sweep::{LoopPoint, Sweep, FRONTEND_MS};
use uu_harness::{figures, indepth, study, sweep, Backend};
use uu_kernels::{all_benchmarks, Benchmark, RunOutput};
use uu_serve::{CompileCache, CompileMeta, RunRecord};
use uu_simt::{ExecError, Gpu};

/// The applications a fast rep regenerates. The full `all --fast` takes
/// about a minute, longer than one benchmark run may; this subset takes a
/// few seconds and still spans the report's behaviours: two hot loops
/// that u&u speeds up about 2x (libor, mandelbrot), an application it
/// slows down (quicksort, with 15 loops, so many cold skip-run points),
/// and ccs, whose small loops lose their baseline runtime unrolling under
/// u&u (the paper's compile-timeout case).
pub const APPS: &[&str] = &["ccs", "libor", "mandelbrot", "quicksort"];

/// The `indepth` cases (application, kernel, u&u factor), as
/// `uu_harness::indepth::collect` measures them; the replay needs the
/// kernel, which [`CounterCase`] does not record.
const INDEPTH: [(&str, &str, u32); 3] = [
    ("XSBench", "xs_lookup", 8),
    ("rainflow", "rainflow_scan", 4),
    ("complex", "complex_pow", 8),
];

/// The fast subset, in Table I order.
pub fn benches() -> Vec<Benchmark> {
    all_benchmarks()
        .into_iter()
        .filter(|b| APPS.contains(&b.info.name))
        .collect()
}

/// What a fast rep produced: the sweep, the study and the indepth cases.
pub struct Outcome {
    /// Sweep over the subset.
    pub sweep: Sweep,
    /// Three-way study over the subset.
    pub study: Study,
    /// Whether the rep ran `indepth`.
    pub indepth: bool,
    /// The indepth cases that survived.
    pub cases: Vec<CounterCase>,
}

impl Outcome {
    /// Operations attempted: every sweep point and application summary,
    /// every study point and every indepth case.
    pub fn attempted(&self) -> u64 {
        let indepth = if self.indepth { INDEPTH.len() } else { 0 };
        (self.sweep.points.len() + self.sweep.apps.len() + self.study.points.len() + indepth) as u64
    }

    /// Failed operations, described. A point fails when its diagnostics
    /// are non-empty (pass failure, exec fault, checksum mismatch) or its
    /// rung is below `Full` without a compile timeout explaining it.
    pub fn failures(&self) -> Vec<String> {
        let bad = |rung: Rung, timed_out: bool, diag: &str| {
            !diag.is_empty() || (rung != Rung::Full && !timed_out)
        };
        let mut out = Vec::new();
        for p in self.sweep.points.iter().chain(&self.study.points) {
            if bad(p.rung, p.timed_out, &p.diag) {
                out.push(format!("{}: {:?} {}", point_ctx(p), p.rung, p.diag));
            }
        }
        for a in &self.sweep.apps {
            let (b, h) = (&a.baseline, &a.heuristic);
            if bad(b.rung, b.timed_out, &a.diag) || bad(h.rung, h.timed_out, "") {
                out.push(format!("{}: {:?}/{:?} {}", a.app, b.rung, h.rung, a.diag));
            }
        }
        let ran = if self.indepth { &INDEPTH[..] } else { &[] };
        for (app, _, _) in ran {
            if !self.cases.iter().any(|c| c.app == *app) {
                out.push(format!(
                    "indepth {app}: case dropped (exec fault or checksum mismatch)"
                ));
            }
        }
        out
    }

    /// Output checksums: each application's baseline and heuristic, then
    /// each indepth case's baseline and u&u.
    pub fn checksums(&self) -> Vec<f64> {
        let apps = self
            .sweep
            .apps
            .iter()
            .flat_map(|a| [a.baseline.checksum, a.heuristic.checksum]);
        let cases = self
            .cases
            .iter()
            .flat_map(|c| [c.base.checksum, c.uu.checksum]);
        apps.chain(cases).collect()
    }
}

fn point_ctx(p: &LoopPoint) -> String {
    let l = &p.loop_ref;
    format!("{}/{}#{}/{}", p.app, l.func, l.loop_id, p.config)
}

/// The product path of `uu-harness all --fast` (`UU_JOBS=1`, no fault
/// plan), restricted to `benches`, writing every report into `out`.
/// `fast-warm` leaves out `indepth`, which never uses the cache.
pub fn product(
    benches: &[Benchmark],
    out: &Path,
    cache: Option<&CompileCache>,
    with_indepth: bool,
) -> io::Result<Outcome> {
    let backend = Backend::local(cache);
    let sweep = sweep::run_sweep_backed(benches, true, 1, None, backend);
    let cases = if with_indepth {
        indepth::collect()
    } else {
        Vec::new()
    };
    let study = study::run_study_backed(benches, 1, None, backend);
    let o = Outcome {
        sweep,
        study,
        indepth: with_indepth,
        cases,
    };
    write_reports(&o, benches, out)?;
    Ok(o)
}

/// Write every report of `o` into `out`, each writer in a
/// `harness.report_write` span.
fn write_reports(o: &Outcome, benches: &[Benchmark], out: &Path) -> io::Result<()> {
    type Writer<'a> = &'a dyn Fn(&Path) -> io::Result<()>;
    let write = |what: &str, f: Writer| span("harness.report_write", what, || f(out));
    write("table1", &|d| figures::table1(&o.sweep, d, benches))?;
    write("fig6", &|d| figures::fig6(&o.sweep, d))?;
    write("fig7", &|d| figures::fig7(&o.sweep, d))?;
    write("fig8", &|d| figures::fig8(&o.sweep, d))?;
    if o.indepth {
        write("indepth", &|d| indepth::report(&o.cases, d))?;
    }
    write("fig9", &|d| figures::fig9(&o.study, d))?;
    write("table2", &|d| figures::table2(&o.study, d))?;
    write("faults", &|d| figures::faults(&o.sweep, d))
}

/// Fill `cache` the way a cold cached `all --fast` does: the sweep and
/// the study are the only phases that write artifacts.
pub fn fill(benches: &[Benchmark], cache: &CompileCache) {
    let backend = Backend::local(Some(cache));
    sweep::run_sweep_backed(benches, true, 1, None, backend);
    study::run_study_backed(benches, 1, None, backend);
}

/// Replay `o`, the outcome of a product rep, call by call: the same
/// builds, compiles, simulations and cache calls in the product's order,
/// each in a span, then the report writers on `o` into `out`. Layer counts
/// go to `c`. Every replayed measurement is checked against the
/// product's; the differences are returned.
pub fn replay(
    benches: &[Benchmark],
    o: &Outcome,
    out: &Path,
    cache: Option<&CompileCache>,
    c: &mut Counts,
) -> io::Result<Vec<String>> {
    let mut r = Replay {
        c,
        diffs: Vec::new(),
    };
    let bases: Vec<&Measurement> = o.sweep.apps.iter().map(|a| &a.baseline).collect();
    span("harness.run", "", || {
        span("harness.sweep", "", || r.sweep(benches, &o.sweep, cache));
        if o.indepth {
            span("harness.indepth", "", || r.indepth(&o.cases));
        }
        span("harness.study", "", || {
            r.baselines(benches, &bases, cache);
            r.points(benches, &bases, &o.study.points, study_configs(), cache);
        });
        write_reports(o, benches, out)
    })?;
    r.c.points += o.attempted();
    Ok(r.diffs)
}

/// What one replayed measurement produced.
#[derive(Debug)]
struct Got {
    work: u64,
    code_size: u64,
    timed_out: bool,
    rung: Rung,
    /// The simulation's checksum; `None` when it was not run or trapped.
    checksum: Option<f64>,
}

impl Got {
    fn of_meta(meta: &CompileMeta, checksum: Option<f64>) -> Got {
        Got {
            work: meta.work,
            code_size: meta.code_size,
            timed_out: meta.timed_out,
            rung: meta.rung,
            checksum,
        }
    }

    fn compile_ms(&self) -> f64 {
        self.work as f64 / uu_core::WORK_PER_MS
    }
}

struct Replay<'a> {
    c: &'a mut Counts,
    diffs: Vec<String>,
}

impl Replay<'_> {
    /// Build, compile and (if `run`) simulate one configuration, through
    /// `cache` if given, as `uu_harness::experiment::measure_backed` does.
    fn measure(
        &mut self,
        ctx: &str,
        bench: &Benchmark,
        transform: Transform,
        filter: LoopFilter,
        run: bool,
        cache: Option<&CompileCache>,
    ) -> Got {
        let mut m = span("kernels.build", ctx, || (bench.build)());
        let opts = PipelineOptions {
            transform,
            filter,
            timeout: Some(COMPILE_TIMEOUT),
            ..Default::default()
        };
        let Some(cache) = cache else {
            let o = span("core.compile", ctx, || compile(&mut m, &opts));
            self.c.compiled(&o);
            let checksum = run
                .then(|| self.simulate(ctx, bench, &m).ok().map(|r| r.checksum))
                .flatten();
            return Got {
                work: o.work,
                code_size: uu_analysis::cost::module_size(&m),
                timed_out: o.timed_out,
                rung: o.rung,
                checksum,
            };
        };
        if !run {
            return Got::of_meta(&self.cache_compile(ctx, cache, &mut m, &opts, false), None);
        }
        let (key, hit) = span("serve.lookup", ctx, || {
            let key =
                CompileCache::run_key(CompileCache::compile_key(&m, &opts), &workload_tag(bench));
            (key, cache.lookup_run(key))
        });
        if let Some((meta, record)) = hit {
            return Got::of_meta(&meta, Some(record.checksum));
        }
        let meta = self.cache_compile(ctx, cache, &mut m, &opts, true);
        let run = self.simulate(ctx, bench, &m).ok();
        if let Some(r) = &run {
            let record = RunRecord {
                time_ms: r.kernel_time_ms * bench.info.launch_repeats.max(1) as f64,
                checksum: r.checksum,
                transfer_ms: r.transfer_ms(),
                metrics: r.metrics,
            };
            span("serve.store", ctx, || cache.store_run(key, &meta, &record));
        }
        Got::of_meta(&meta, run.map(|r| r.checksum))
    }

    fn simulate(
        &mut self,
        ctx: &str,
        bench: &Benchmark,
        m: &uu_ir::Module,
    ) -> Result<RunOutput, ExecError> {
        let r = span("simt.run", ctx, || (bench.run)(m, &mut Gpu::new()));
        self.c.ran(r.as_ref().ok());
        r
    }

    /// A `CompileCache::compile` call, its span named after whether it hit.
    fn cache_compile(
        &mut self,
        ctx: &str,
        cache: &CompileCache,
        m: &mut uu_ir::Module,
        opts: &PipelineOptions,
        want_module: bool,
    ) -> CompileMeta {
        let c = span_as(ctx, || {
            let c = cache.compile(m, opts, want_module);
            let name = if c.hit {
                "serve.compile_hit"
            } else {
                "core.compile_miss"
            };
            (c, name)
        });
        if !c.hit {
            self.c
                .compiled_meta(c.meta.work, c.meta.timed_out, c.meta.rung);
        }
        c.meta
    }

    /// Record a difference unless the replayed `got` reproduces the
    /// product's whole-application measurement `want`.
    fn check(&mut self, ctx: &str, want: &Measurement, got: &Got) {
        let same = got.compile_ms() == want.compile_ms
            && got.code_size == want.code_size
            && got.timed_out == want.timed_out
            && got.rung == want.rung
            && got.checksum == Some(want.checksum);
        if !same {
            self.diffs
                .push(format!("{ctx}: replay {got:?} != product {want:?}"));
        }
    }

    /// The sweep's two phases: every application's baseline and
    /// heuristic, then its points.
    fn sweep(&mut self, benches: &[Benchmark], s: &Sweep, cache: Option<&CompileCache>) {
        let heuristic = Transform::UuHeuristic(HeuristicOptions::default());
        for (bench, a) in benches.iter().zip(&s.apps) {
            for (config, transform, want) in [
                ("baseline", Transform::Baseline, &a.baseline),
                ("heuristic", heuristic.clone(), &a.heuristic),
            ] {
                let ctx = format!("{}/{config}", a.app);
                let got = self.measure(&ctx, bench, transform, LoopFilter::All, true, cache);
                self.check(&ctx, want, &got);
            }
        }
        let bases: Vec<&Measurement> = s.apps.iter().map(|a| &a.baseline).collect();
        self.points(benches, &bases, &s.points, sweep_configs(), cache);
    }

    /// The study's first phase: every application's baseline again, which
    /// must reproduce the sweep's.
    fn baselines(
        &mut self,
        benches: &[Benchmark],
        bases: &[&Measurement],
        cache: Option<&CompileCache>,
    ) {
        for (bench, want) in benches.iter().zip(bases) {
            let ctx = format!("{}/baseline", bench.info.name);
            let got = self.measure(
                &ctx,
                bench,
                Transform::Baseline,
                LoopFilter::All,
                true,
                cache,
            );
            self.check(&ctx, want, &got);
        }
    }

    /// The per-loop points of a sweep or study, in product order, each
    /// checked against the product's point: same rung and timeout, same
    /// size and compile ratios (so the same code size and compile work),
    /// and for a hot point the baseline's checksum.
    fn points(
        &mut self,
        benches: &[Benchmark],
        bases: &[&Measurement],
        points: &[LoopPoint],
        configs: Vec<(&'static str, Transform)>,
        cache: Option<&CompileCache>,
    ) {
        for b in benches {
            span("harness.loop_list", b.info.name, || loop_list(b));
        }
        for p in points {
            let ctx = point_ctx(p);
            let i = benches.iter().position(|b| b.info.name == p.app);
            let transform = configs.iter().find(|(name, _)| *name == p.config);
            let (Some(i), Some((_, transform))) = (i, transform) else {
                self.diffs.push(format!("{ctx}: not a point of this run"));
                continue;
            };
            let (bench, base) = (&benches[i], bases[i]);
            let filter = LoopFilter::Only {
                func: p.loop_ref.func.clone(),
                loop_id: p.loop_ref.loop_id,
            };
            let got = self.measure(&ctx, bench, transform.clone(), filter, p.hot, cache);
            let rest = bench.info.binary_rest_size as f64;
            let size_ratio = (rest + got.code_size as f64) / (rest + base.code_size as f64);
            let compile_ratio = (FRONTEND_MS + got.compile_ms()) / (FRONTEND_MS + base.compile_ms);
            let same = size_ratio == p.size_ratio
                && compile_ratio == p.compile_ratio
                && got.timed_out == p.timed_out
                && got.rung == p.rung
                && (!p.hot || got.checksum == Some(base.checksum));
            if !same {
                self.diffs
                    .push(format!("{ctx}: replay {got:?} != product {p:?}"));
            }
        }
    }

    /// `uu_harness::indepth::collect`'s cases; it never uses a cache.
    fn indepth(&mut self, cases: &[CounterCase]) {
        let all = all_benchmarks();
        for case in cases {
            let found = INDEPTH.iter().find(|(app, ..)| *app == case.app);
            let bench = all.iter().find(|b| b.info.name == case.app);
            let (Some(&(app, func, factor)), Some(bench)) = (found, bench) else {
                self.diffs
                    .push(format!("indepth {}: unknown case", case.app));
                continue;
            };
            let ctx = format!("{app}/baseline");
            let got = self.measure(
                &ctx,
                bench,
                Transform::Baseline,
                LoopFilter::All,
                true,
                None,
            );
            self.check(&ctx, &case.base, &got);
            let transform = Transform::Uu {
                factor,
                unmerge: Default::default(),
            };
            let filter = LoopFilter::Only {
                func: func.to_string(),
                loop_id: 0,
            };
            let ctx = format!("{app}/{func}#0/uu{factor}");
            let got = self.measure(&ctx, bench, transform, filter, true, None);
            self.check(&ctx, &case.uu, &got);
        }
    }
}

/// The run-side cache-key tag the harness uses with the simulator-engine
/// and fault variables cleared. Were it to drift from the harness's, every
/// replayed lookup would miss, and the replay's cache hits would differ
/// from the product's.
fn workload_tag(bench: &Benchmark) -> String {
    format!(
        "{}|wl{}|x{}||",
        bench.info.name,
        uu_kernels::WORKLOAD_VERSION,
        bench.info.launch_repeats.max(1)
    )
}
