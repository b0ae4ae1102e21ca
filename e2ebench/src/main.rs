//! Worker of the repository benchmark. `run.py` starts it and reads the
//! JSON line it prints last.
//!
//! ```text
//! uu-e2ebench cold --dir DIR [--trace FILE]
//! uu-e2ebench warm --dir DIR --seconds N [--trace FILE]
//! uu-e2ebench sim --seed N --seconds N [--trace FILE]
//! ```
//!
//! `cold` runs one `fast-cold` rep: the cold, cacheless fast reports of
//! the subset in [`fast::APPS`], written to `DIR/out`. `warm` fills
//! [`FILLS`] disk caches under `DIR` (its set-up), then runs `fast-warm`
//! reps, the same reports without `indepth` read from the first cache,
//! for `--seconds`. `sim` runs the `sim-arch` workload: [`SIM_SETUPS`]
//! set-ups, then timed passes over the draws for `--seconds`. Each
//! command runs at least [`MIN_REPS`] reps (or passes).
//!
//! With `--trace` every rep is followed by a traced replay of the same
//! work (for `sim`, a traced pass): its per-layer metrics join the rep's
//! record, and the last replay's spans are written to `FILE` as Chrome
//! trace JSON. Only the traced run has spans; untraced reps record none.

mod fast;
mod json;
mod layers;
mod sim;
mod trace;

use layers::{Counts, ServeCounts};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use uu_serve::CompileCache;

/// Variables that change what the product measures; the worker refuses
/// to run with any of them set.
const ISOLATED_VARS: [&str; 5] = [
    "UU_FAULT",
    "UU_SERVE_SOCKET",
    "UU_SIMT_ENGINE",
    "UU_CACHE",
    "UU_CACHE_DIR",
];

/// `fast-cold` set-up samples per rep, half taken before the timed phase
/// and half after.
const COLD_SETUPS: usize = 10;
/// Passes over all 16 applications in one `fast-cold` set-up sample.
const COLD_SETUP_PASSES: usize = 4;
/// `fast-warm` cache fills (set-ups) per untraced run.
const FILLS: usize = 3;
/// `sim-arch` set-ups per untraced run.
const SIM_SETUPS: usize = 2;
/// Reps (or passes) a `warm` or `sim` worker runs at least, so that a
/// median and a drift check have something to work on.
const MIN_REPS: usize = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("uu-e2ebench: {e}");
            ExitCode::from(2)
        }
    }
}

fn flag(args: &[String], name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    args.get(i + 1).cloned()
}

fn run(args: &[String]) -> Result<String, String> {
    if let Some(v) = ISOLATED_VARS.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(format!(
            "{v} is set; the benchmark measures the default configuration"
        ));
    }
    if std::env::var("UU_JOBS").as_deref() != Ok("1") {
        return Err("UU_JOBS must be 1".into());
    }
    let trace_file = flag(args, "--trace").map(PathBuf::from);
    let trace = trace_file.as_deref();
    let num = |name: &str| -> Result<u64, String> {
        let v = flag(args, name).ok_or(format!("needs {name} N"))?;
        v.parse().map_err(|_| format!("{name}: not a number: {v}"))
    };
    let dir = || {
        flag(args, "--dir")
            .map(PathBuf::from)
            .ok_or("needs --dir DIR")
    };
    let report = match args.first().map(String::as_str) {
        Some("cold") => run_cold(&dir()?, trace)?,
        Some("warm") => run_warm(&dir()?, num("--seconds")? as f64, trace)?,
        Some("sim") => run_sim(num("--seed")?, num("--seconds")? as f64, trace)?,
        _ => return Err("usage: uu-e2ebench cold|warm|sim ... (see the crate docs)".into()),
    };
    Ok(report.render())
}

/// What a worker hands back to `run.py`.
#[derive(Default)]
struct Report {
    /// Set-up times in seconds; the run reports their median as `setup_s`.
    setup: Vec<f64>,
    /// One record per rep (or pass).
    reps: Vec<json::Obj>,
    /// Operations attempted.
    attempted: u64,
    /// Failed operations, described.
    failures: Vec<String>,
    /// Results that should have been identical and were not (between
    /// reps, or between the product path and its replay), described.
    mismatches: Vec<String>,
}

impl Report {
    fn render(&self) -> String {
        json::Obj::default()
            .raw("setup_samples", json::numbers(&self.setup))
            .raw("reps", json::array(self.reps.iter().map(json::Obj::render)))
            .int("attempted", self.attempted)
            .int("failed", self.failures.len() as u64)
            .raw("failures", json::strings(&self.failures))
            .raw("mismatches", json::strings(&self.mismatches))
            .raw("apps", json::strings(fast::APPS))
            .render()
    }

    /// Record a mismatch unless `product` and `replay` agree.
    fn same<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, product: T, replay: T) {
        if product != replay {
            self.mismatches
                .push(format!("{what}: replay {replay:?} != product {product:?}"));
        }
    }
}

fn checksums_hex(xs: &[f64]) -> String {
    let hex: Vec<String> = xs.iter().map(|x| format!("{:016x}", x.to_bits())).collect();
    json::string(&hex.join(" "))
}

fn io_err(path: &Path) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{}: {e}", path.display())
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(io_err(dir))?;
    }
    std::fs::create_dir_all(dir).map_err(io_err(dir))
}

fn open_cache(dir: &Path) -> Result<CompileCache, String> {
    CompileCache::at_dir(dir).map_err(|e| format!("cache {}: {e}", dir.display()))
}

/// The files of a report directory, by name.
fn read_reports(dir: &Path) -> Result<BTreeMap<String, Vec<u8>>, String> {
    let mut files = BTreeMap::new();
    for e in std::fs::read_dir(dir).map_err(io_err(dir))? {
        let path = e.map_err(io_err(dir))?.path();
        let bytes = std::fs::read(&path).map_err(io_err(&path))?;
        files.insert(
            path.file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .into(),
            bytes,
        );
    }
    Ok(files)
}

/// Per-layer metrics of a traced replay whose product rep took `wall`
/// seconds, with the overhead of tracing it.
fn layer_metrics(
    spans: &[trace::Span],
    counts: &Counts,
    decode: (u64, u64),
    serve: ServeCounts,
    wall: f64,
) -> BTreeMap<String, f64> {
    let mut m = layers::metrics(&trace::summarize(spans), counts, decode, serve);
    m.insert(
        "trace.overhead_share".into(),
        m["trace.wall_s"] / wall - 1.0,
    );
    m
}

/// One fast rep: the product path into `out`, timed; then, with `trace`,
/// the replay of it, whose reports, counts and measurements must equal
/// the product's.
fn fast_rep(
    benches: &[uu_kernels::Benchmark],
    out: &Path,
    cache_dir: Option<&Path>,
    with_indepth: bool,
    trace: Option<&Path>,
    report: &mut Report,
) -> Result<(), String> {
    // Every rep starts from an empty decode cache and a fresh handle on
    // the disk cache, as a product process does.
    fresh_dir(out)?;
    uu_simt::decode_cache_clear();
    let cache = cache_dir.map(open_cache).transpose()?;
    let t0 = Instant::now();
    let o = fast::product(benches, out, cache.as_ref(), with_indepth).map_err(io_err(out))?;
    let wall = t0.elapsed().as_secs_f64();
    let decode = uu_simt::decode_cache_stats();
    let serve = cache
        .as_ref()
        .map_or(ServeCounts::default(), |c| ServeCounts::of(c, cache_dir));
    report.attempted += o.attempted();
    report.failures.extend(o.failures());
    let mut rep = json::Obj::default()
        .num("wall_s", wall)
        .int("points", o.attempted())
        .raw("checksums", checksums_hex(&o.checksums()))
        .int("decode_hits", decode.0)
        .int("decode_misses", decode.1)
        .int("serve_hits", serve.hits)
        .int("serve_misses", serve.misses);

    if let Some(file) = trace {
        uu_simt::decode_cache_clear();
        let cache = cache_dir.map(open_cache).transpose()?;
        let replay_out = out.with_extension("replay");
        fresh_dir(&replay_out)?;
        let mut counts = Counts::default();
        trace::start();
        let diffs = fast::replay(benches, &o, &replay_out, cache.as_ref(), &mut counts)
            .map_err(io_err(&replay_out))?;
        let spans = trace::finish();
        let replay_decode = uu_simt::decode_cache_stats();
        let replay_serve = cache
            .as_ref()
            .map_or(ServeCounts::default(), |c| ServeCounts::of(c, cache_dir));
        report.mismatches.extend(diffs);
        report.same("decode-cache (hits, misses)", decode, replay_decode);
        report.same(
            "artifact-cache (hits, misses)",
            (serve.hits, serve.misses),
            (replay_serve.hits, replay_serve.misses),
        );
        if read_reports(out)? != read_reports(&replay_out)? {
            report
                .mismatches
                .push("the replay's reports differ from the product's".into());
        }
        std::fs::remove_dir_all(&replay_out).map_err(io_err(&replay_out))?;
        std::fs::write(file, trace::chrome_json(&spans)).map_err(io_err(file))?;
        let layers = layer_metrics(&spans, &counts, replay_decode, replay_serve, wall);
        rep = rep.nums("layers", &layers);
    }
    report.reps.push(rep);
    Ok(())
}

/// One `fast-cold` set-up sample: what a rep prepares before its first
/// compile, the application list and each application's module and loop
/// list, for all 16 applications, [`COLD_SETUP_PASSES`] times over.
fn cold_setup() -> f64 {
    let t0 = Instant::now();
    for _ in 0..COLD_SETUP_PASSES {
        for b in uu_kernels::all_benchmarks() {
            std::hint::black_box(uu_harness::experiment::loop_list(&b));
        }
    }
    t0.elapsed().as_secs_f64()
}

fn run_cold(dir: &Path, trace: Option<&Path>) -> Result<Report, String> {
    let mut report = Report::default();
    report
        .setup
        .extend((0..COLD_SETUPS / 2).map(|_| cold_setup()));
    let benches = fast::benches();
    fast_rep(&benches, &dir.join("out"), None, true, trace, &mut report)?;
    report
        .setup
        .extend((0..COLD_SETUPS / 2).map(|_| cold_setup()));
    Ok(report)
}

fn run_warm(dir: &Path, seconds: f64, trace: Option<&Path>) -> Result<Report, String> {
    let mut report = Report::default();
    let benches = fast::benches();
    let mut misses = Vec::new();
    for i in 0..if trace.is_some() { 1 } else { FILLS } {
        let t0 = Instant::now();
        let cache = open_cache(&dir.join(format!("cache{i}")))?;
        fast::fill(&benches, &cache);
        report.setup.push(t0.elapsed().as_secs_f64());
        let st = cache.stats();
        misses.push((st.compile_misses, st.run_misses));
    }
    if misses.windows(2).any(|w| w[0] != w[1]) {
        report
            .mismatches
            .push(format!("cache fills miss differently: {misses:?}"));
    }

    let (out, cache_dir) = (dir.join("out"), dir.join("cache0"));
    let mut first = None;
    let t0 = Instant::now();
    while report.reps.len() < MIN_REPS || t0.elapsed().as_secs_f64() < seconds {
        fast_rep(&benches, &out, Some(&cache_dir), false, trace, &mut report)?;
        let files = read_reports(&out)?;
        match &first {
            None => first = Some(files),
            Some(f) if *f != files => {
                let n = report.reps.len();
                report
                    .mismatches
                    .push(format!("rep {n}'s reports differ from rep 1's"));
            }
            Some(_) => {}
        }
    }
    Ok(report)
}

/// One timed `sim-arch` pass; returns its wall time and record.
fn sim_pass(
    apps: &[sim::App],
    params: &[uu_simt::GpuParams],
    counts: &mut Counts,
    failures: &mut Vec<String>,
) -> (f64, json::Obj) {
    // Every pass starts with an empty decode cache, as a fresh product
    // process does.
    uu_simt::decode_cache_clear();
    let runs0 = counts.runs;
    let t0 = Instant::now();
    let speedups = trace::span("harness.simulate", "", || {
        sim::simulate(apps, params, counts, failures)
    });
    let wall = t0.elapsed().as_secs_f64();
    let decode = uu_simt::decode_cache_stats();
    let geomean = if speedups.is_empty() {
        f64::NAN
    } else {
        uu_harness::stats::geomean(&speedups)
    };
    let reference: Vec<f64> = apps.iter().map(|a| a.checksum).collect();
    let rec = json::Obj::default()
        .num("wall_s", wall)
        .num("geomean", geomean)
        .raw("checksums", checksums_hex(&reference))
        .int("runs", counts.runs - runs0)
        .int("decode_hits", decode.0)
        .int("decode_misses", decode.1);
    (wall, rec)
}

/// The set-ups, then timed passes over the draws until `seconds` have
/// passed. Traced, every pass is followed by a traced pass, and the
/// per-layer metrics cover that pass alone.
fn run_sim(seed: u64, seconds: f64, trace: Option<&Path>) -> Result<Report, String> {
    let mut report = Report::default();
    let mut counts = Counts::default();
    let mut apps = Vec::new();
    for _ in 0..if trace.is_some() { 1 } else { SIM_SETUPS } {
        // Free the previous set-up's modules first, so peak memory is that
        // of one set-up.
        apps.clear();
        let t0 = Instant::now();
        apps = sim::setup(&mut counts, &mut report.failures);
        report.setup.push(t0.elapsed().as_secs_f64());
    }

    let params = sim::draws(seed);
    let t0 = Instant::now();
    while report.reps.len() < MIN_REPS || t0.elapsed().as_secs_f64() < seconds {
        let (wall, mut rec) = sim_pass(&apps, &params, &mut counts, &mut report.failures);
        if let Some(file) = trace {
            let mut traced = Counts::default();
            trace::start();
            let (_, traced_rec) = sim_pass(&apps, &params, &mut traced, &mut report.failures);
            let spans = trace::finish();
            counts.points += traced.points;
            let decode = uu_simt::decode_cache_stats();
            report.same(
                "sim-arch pass",
                rec.without("wall_s"),
                traced_rec.without("wall_s"),
            );
            std::fs::write(file, trace::chrome_json(&spans)).map_err(io_err(file))?;
            let layers = layer_metrics(&spans, &traced, decode, ServeCounts::default(), wall);
            rec = rec.nums("layers", &layers);
        }
        report.reps.push(rec);
    }
    report.attempted = counts.points;
    Ok(report)
}
