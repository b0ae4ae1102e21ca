//! Typed, versioned cache statistics, following the workspace's
//! versioned-stats idiom (schema version field + stable JSON rendering).

use uu_core::Rung;

/// Stats schema version; bump on any field change so dashboards detect
/// skew instead of misreading counters. Version 3 dropped the compile
/// daemon's service counters, keeping `store_errors`.
pub const STATS_VERSION: u32 = 3;

/// Counters for one cache.
///
/// All counts are cumulative since cache creation. "Memory" and "disk"
/// hits are disjoint: a request served from memory never touches disk.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheStats {
    /// Compile requests served from the in-memory layer.
    pub compile_mem_hits: u64,
    /// Compile requests served from the on-disk layer.
    pub compile_disk_hits: u64,
    /// Compile requests that ran the pipeline.
    pub compile_misses: u64,
    /// Measure requests served from the in-memory layer.
    pub run_mem_hits: u64,
    /// Measure requests served from the on-disk layer.
    pub run_disk_hits: u64,
    /// Measure requests that ran the simulator.
    pub run_misses: u64,
    /// Modeled compile work saved by hits (deterministic clock units).
    pub work_saved: u64,
    /// Wall time spent in cache lookups (µs).
    pub lookup_micros: u64,
    /// Wall time spent running actual compiles on misses (µs).
    pub compile_micros: u64,
    /// Per-rung compile outcomes, indexed by [`Rung::index`] (hits count
    /// the rung recorded in the artifact).
    pub rung_counts: [u64; 4],
    /// Cache artifact writes that failed (disk full, permissions) and
    /// degraded to "not cached".
    pub store_errors: u64,
}

impl CacheStats {
    /// Total compile+run hits across both layers.
    pub fn hits(&self) -> u64 {
        self.compile_mem_hits + self.compile_disk_hits + self.run_mem_hits + self.run_disk_hits
    }

    /// Total compile+run misses.
    pub fn misses(&self) -> u64 {
        self.compile_misses + self.run_misses
    }

    /// Hit fraction in `[0, 1]`; 0 when no lookups happened yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }

    /// Record a compile outcome rung.
    pub fn count_rung(&mut self, rung: Rung) {
        self.rung_counts[rung.index()] += 1;
    }

    /// Render as stable JSON (object key order is fixed; validates under
    /// `uu-jsonck`).
    pub fn to_json(&self) -> String {
        let rungs = Rung::ALL
            .iter()
            .map(|r| format!("    \"{}\": {}", r.as_str(), self.rung_counts[r.index()]))
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            concat!(
                "{{\n",
                "  \"stats_version\": {},\n",
                "  \"compile_mem_hits\": {},\n",
                "  \"compile_disk_hits\": {},\n",
                "  \"compile_misses\": {},\n",
                "  \"run_mem_hits\": {},\n",
                "  \"run_disk_hits\": {},\n",
                "  \"run_misses\": {},\n",
                "  \"hit_rate\": {:.4},\n",
                "  \"work_saved\": {},\n",
                "  \"lookup_micros\": {},\n",
                "  \"compile_micros\": {},\n",
                "  \"store_errors\": {},\n",
                "  \"rung_counts\": {{\n{}\n  }}\n",
                "}}\n"
            ),
            STATS_VERSION,
            self.compile_mem_hits,
            self.compile_disk_hits,
            self.compile_misses,
            self.run_mem_hits,
            self.run_disk_hits,
            self.run_misses,
            self.hit_rate(),
            self.work_saved,
            self.lookup_micros,
            self.compile_micros,
            self.store_errors,
            rungs,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_is_well_defined() {
        let mut s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        s.compile_mem_hits = 3;
        s.compile_misses = 1;
        assert_eq!(s.hit_rate(), 0.75);
        s.run_disk_hits = 4;
        assert_eq!(s.hit_rate(), 0.875);
    }

    #[test]
    fn json_is_valid_and_versioned() {
        let mut s = CacheStats::default();
        s.compile_misses = 2;
        s.count_rung(Rung::Full);
        s.count_rung(Rung::DroppedPass);
        s.store_errors = 3;
        let j = s.to_json();
        uu_check::json::validate(&j).expect("stats JSON must parse");
        assert!(j.contains("\"stats_version\": 3"));
        assert!(j.contains("\"dropped-pass\": 1"));
        assert!(j.contains("\"hit_rate\": 0.0000"));
        assert!(j.contains("\"store_errors\": 3"));
    }
}
