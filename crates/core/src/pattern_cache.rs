//! Counter surface of the former cross-call BIPS pattern-table cache.
//!
//! **Nothing is cached.** [`crate::accelerator::Accelerator::multiply`]
//! builds each block's Fig. 8 subset-sum table once per call and replays
//! it across that call's output windows, exactly as the Converter streams
//! it on every pass (§IV-A). Keeping tables across calls saved only the
//! 2^q words per block that each call's PE-pass grid dwarfs, and measured
//! no faster than rebuilding them, so that store was removed.
//!
//! The module remains only because the `sim_structural` benchmark
//! workload still reads `clear` and `counters` for its
//! `core.pattern_cache.hit_rate` layer metric, which now truthfully reads
//! 0. It goes once that metric is dropped from the benchmark.

/// Fig. 8 table-lookup counters; always zero, since no lookup happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Lookups answered from a resident table.
    pub hits: u64,
    /// Lookups that had to generate a table.
    pub misses: u64,
}

/// No-op: no Fig. 8 table outlives its call, so nothing is resident.
pub fn clear() {}

/// Fig. 8 table-lookup counter snapshot: all zeros.
pub fn counters() -> CacheCounters {
    CacheCounters::default()
}
