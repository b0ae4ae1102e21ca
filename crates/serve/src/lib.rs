//! # uu-serve — content-addressed artifact cache
//!
//! Compile and run artifacts for the `uu-harness` batch commands, keyed
//! on
//!
//! ```text
//! (module hash, canonical pipeline config, pipeline-version fingerprint)
//! ```
//!
//! * the module hash is [`uu_ir::module_hash`] — FNV-1a 64 over the
//!   printed module text, stable across processes, machines and
//!   print → parse → print round trips;
//! * the canonical config is the `Debug` rendering of
//!   [`uu_core::PipelineOptions`] — every field that can change a
//!   compile's output is part of the key (transform, filter, position,
//!   rounds, thresholds, timeout, guard, fault plan, bisect limit);
//! * the pipeline-version fingerprint is
//!   [`uu_core::pipeline_fingerprint`] — bumping any pass version in
//!   [`uu_core::PASS_VERSIONS`] invalidates every cached artifact.
//!
//! The cache has an in-memory layer (modules kept as values — a hit is a
//! clone, bit-identical by construction) and an optional on-disk layer
//! (artifacts stored as printed IR + metadata under a content-addressed
//! path, surviving process restarts). Disk artifacts are validated on
//! load (format version, field integrity, IR content hash); anything
//! suspicious degrades to a cache miss and a fresh compile — the cache
//! can make a run faster, never wronger.
//!
//! `uu-harness` threads one [`CompileCache`] through the sweep and the
//! three-way study, so fig6/fig8/fig9 points share compiles across
//! (kernel, loop, config) triples and a warm `results/` regeneration
//! skips both the compile and the simulation of every previously
//! measured point — byte-identically, at any `UU_JOBS`.
//!
//! Observability follows the typed-stats idiom: [`CacheStats`] is a
//! versioned struct with hit/miss/latency/rung counters, rendered as
//! stable JSON (printed on stderr after a cached harness run).

#![warn(missing_docs)]

pub mod artifact;
pub mod cache;
pub mod config;
pub mod stats;

pub use artifact::{Artifact, CompileMeta, RunRecord, ARTIFACT_VERSION};
pub use cache::{CachedCompile, CompileCache, Key};
pub use config::{config_names, parse_config};
pub use stats::{CacheStats, STATS_VERSION};
