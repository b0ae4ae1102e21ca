//! In-memory span recorder for the traced replay.
//!
//! Spans are recorded around calls into each crate's public functions,
//! from this benchmark's own code only, and stay in memory until the rep
//! ends. A span's layer is the part of its name before the first `.`
//! (`harness`, `kernels`, `core`, `simt`, `serve`); its self time is its
//! duration minus the time its child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Seconds since [`start`].
    pub start: f64,
    /// Seconds since [`start`].
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The point identity (`app/func#loop/config`), or empty.
    pub ctx: String,
}

struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Begin recording on this thread (discarding any earlier recording).
pub fn start() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Stop recording and hand back every span, in start order.
pub fn finish() -> Vec<Span> {
    REC.with(|r| r.borrow_mut().take().map(|r| r.spans).unwrap_or_default())
}

/// Record `f` as a span called `name`.
pub fn span<R>(name: &'static str, ctx: &str, f: impl FnOnce() -> R) -> R {
    span_as(ctx, || (f(), name))
}

/// Record `f` as a span whose name `f` picks from its own result (a cache
/// call is named after whether it hit). Without an active recording `f`
/// just runs.
pub fn span_as<R>(ctx: &str, f: impl FnOnce() -> (R, &'static str)) -> R {
    let id = REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let id = rec.spans.len();
        let parent = rec.open.last().copied();
        rec.open.push(id);
        let now = rec.t0.elapsed().as_secs_f64();
        rec.spans.push(Span {
            name: "",
            start: now,
            end: now,
            parent,
            ctx: ctx.to_string(),
        });
        Some(id)
    });
    let (out, name) = f();
    if let Some(id) = id {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let rec = r.as_mut().expect("recording stays active inside a span");
            let end = rec.t0.elapsed().as_secs_f64();
            let s = &mut rec.spans[id];
            s.end = end;
            s.name = name;
            rec.open.pop();
        });
    }
    out
}

/// Durations and self times aggregated from a rep's spans.
#[derive(Debug, Default)]
pub struct Summary {
    /// Per span name: (summed duration, count).
    pub by_name: BTreeMap<&'static str, (f64, u64)>,
    /// Per layer: summed self time.
    pub self_by_layer: BTreeMap<&'static str, f64>,
    /// Summed duration of the root spans.
    pub wall: f64,
}

impl Summary {
    /// Summed duration of every span called `name`.
    pub fn time(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |v| v.0)
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |v| v.1)
    }

    /// Summed self time of `layer`.
    pub fn self_time(&self, layer: &str) -> f64 {
        self.self_by_layer.get(layer).copied().unwrap_or(0.0)
    }
}

/// The layer a span name belongs to.
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Aggregate `spans` into per-name totals and per-layer self times.
pub fn summarize(spans: &[Span]) -> Summary {
    let mut child_time = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p] += s.end - s.start;
        }
    }
    let mut sum = Summary::default();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end - s.start;
        let e = sum.by_name.entry(s.name).or_insert((0.0, 0));
        e.0 += dur;
        e.1 += 1;
        *sum.self_by_layer.entry(layer(s.name)).or_insert(0.0) += dur - child_time[i];
        if s.parent.is_none() {
            sum.wall += dur;
        }
    }
    sum
}

/// Render `spans` as Chrome trace-event JSON (viewable in Perfetto or
/// `chrome://tracing`).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{},\"point\":{}}}}}",
            crate::json::string(s.name),
            crate::json::string(layer(s.name)),
            s.start * 1e6,
            (s.end - s.start) * 1e6,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            crate::json::string(&s.ctx),
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root() {
        start();
        span("harness.sweep", "", || {
            span("core.compile", "a/f#0/uu2", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            span_as("a", || ((), "serve.compile_hit"));
        });
        let spans = finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].name, "serve.compile_hit");
        let s = summarize(&spans);
        let selfs: f64 = s.self_by_layer.values().sum();
        assert!((selfs - s.wall).abs() < 1e-9);
        assert!(s.time("core.compile") >= 0.002);
        assert_eq!(s.count("serve.compile_hit"), 1);
    }
}
