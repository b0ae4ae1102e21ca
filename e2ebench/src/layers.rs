//! Per-layer counts gathered by the traced replay, and the per-layer
//! metrics built from them and the rep's spans.

use crate::trace::Summary;
use std::collections::BTreeMap;
use uu_core::{CompileOutcome, Rung};
use uu_kernels::RunOutput;

/// Counts taken at the layer boundaries of one traced rep.
#[derive(Debug, Default)]
pub struct Counts {
    /// Pipeline compiles actually run (cache misses included).
    pub compiles: u64,
    /// Their deterministic work units.
    pub work: u64,
    /// Compiles that hit the work-budget timeout.
    pub timeouts: u64,
    /// Compiles that landed below [`Rung::Full`].
    pub degraded: u64,
    /// Per pass: (wall seconds, work units), from `CompileOutcome::timings`.
    pub pass: BTreeMap<&'static str, (f64, u64)>,
    /// Simulated workload runs.
    pub runs: u64,
    /// Warp-level instructions issued by those runs.
    pub warp_insts: u64,
    /// Operations attempted (sweep/study/indepth points, or simulations).
    pub points: u64,
}

impl Counts {
    /// Account one direct `uu_core::compile`.
    pub fn compiled(&mut self, o: &CompileOutcome) {
        self.compiled_meta(o.work, o.timed_out, o.rung);
        for t in &o.timings {
            let e = self.pass.entry(t.name).or_insert((0.0, 0));
            e.0 += t.elapsed.as_secs_f64();
            e.1 += t.work;
        }
    }

    /// Account one compile whose outcome only survives as cache metadata
    /// (a `CompileCache::compile` miss); it has no per-pass split.
    pub fn compiled_meta(&mut self, work: u64, timed_out: bool, rung: Rung) {
        self.compiles += 1;
        self.work += work;
        self.timeouts += u64::from(timed_out);
        self.degraded += u64::from(rung != Rung::Full);
    }

    /// Account one simulated workload run (`None` when it trapped).
    pub fn ran(&mut self, r: Option<&RunOutput>) {
        self.runs += 1;
        self.warp_insts += r.map_or(0, |r| r.metrics.warp_insts);
    }
}

/// What the serve layer reported for a rep (zero without a cache).
#[derive(Debug, Default, Clone, Copy)]
pub struct ServeCounts {
    /// Compile + run artifact hits.
    pub hits: u64,
    /// Compile + run artifact misses.
    pub misses: u64,
    /// Work units served from cache.
    pub work_saved: u64,
    /// Bytes of artifacts on disk.
    pub disk_bytes: u64,
}

impl ServeCounts {
    /// Read a cache's counters and the size of its directory.
    pub fn of(cache: &uu_serve::CompileCache, dir: Option<&std::path::Path>) -> ServeCounts {
        let st = cache.stats();
        ServeCounts {
            hits: st.hits(),
            misses: st.misses(),
            work_saved: st.work_saved,
            disk_bytes: dir.map_or(0, dir_bytes),
        }
    }
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Build every per-layer metric of one traced rep. Times are seconds;
/// `decode` is the rep's decode-cache (hits, misses).
pub fn metrics(
    sum: &Summary,
    c: &Counts,
    decode: (u64, u64),
    serve: ServeCounts,
) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    let wall = sum.wall;
    put("trace.wall_s", wall);

    put("harness.sweep_s", sum.time("harness.sweep"));
    put("harness.study_s", sum.time("harness.study"));
    put("harness.indepth_s", sum.time("harness.indepth"));
    put("harness.report_write_s", sum.time("harness.report_write"));
    // Time in the replay's own loop, inside no call into another crate:
    // what the layer spans leave unaccounted.
    let harness_self =
        sum.self_time("harness") - sum.time("harness.report_write") - sum.time("harness.loop_list");
    put("harness.self_s", harness_self);
    put("trace.unattributed_share", ratio(harness_self, wall));
    put("harness.points", c.points as f64);

    put("kernels.build_s", sum.self_time("kernels"));
    put("kernels.builds", sum.count("kernels.build") as f64);

    let compile_s = sum.self_time("core");
    put("core.compile_s", compile_s);
    put("core.compile_share", ratio(compile_s, wall));
    put("core.compiles", c.compiles as f64);
    put("core.work_units", c.work as f64);
    put("core.units_per_ms", ratio(c.work as f64, compile_s * 1e3));
    put("core.timeouts", c.timeouts as f64);
    put("core.degraded", c.degraded as f64);
    for (pass, _) in uu_core::PASS_VERSIONS {
        let (s, w) = c.pass.get(pass).copied().unwrap_or((0.0, 0));
        put(&format!("core.pass.{pass}_s"), s);
        put(&format!("core.pass.{pass}.work_units"), w as f64);
    }

    let sim_s = sum.self_time("simt");
    put("simt.sim_s", sim_s);
    put("simt.sim_share", ratio(sim_s, wall));
    put("simt.runs", c.runs as f64);
    put("simt.warp_insts", c.warp_insts as f64);
    put("simt.warp_insts_per_s", ratio(c.warp_insts as f64, sim_s));
    put("simt.decode_hits", decode.0 as f64);
    put("simt.decode_misses", decode.1 as f64);
    put(
        "simt.decode_hit_ratio",
        ratio(decode.0 as f64, (decode.0 + decode.1) as f64),
    );

    put(
        "serve.lookup_s",
        sum.time("serve.lookup") + sum.time("serve.compile_hit"),
    );
    put("serve.store_s", sum.time("serve.store"));
    put("serve.hits", serve.hits as f64);
    put("serve.misses", serve.misses as f64);
    put(
        "serve.hit_ratio",
        ratio(serve.hits as f64, (serve.hits + serve.misses) as f64),
    );
    put("serve.work_saved", serve.work_saved as f64);
    put("serve.disk_bytes", serve.disk_bytes as f64);
    m
}
