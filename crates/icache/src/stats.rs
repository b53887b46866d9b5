//! Fetch-engine statistics.

use std::fmt;

/// Counters accumulated by a fetch engine over a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FetchStats {
    /// Demand instruction-fetch requests sent off-chip.
    pub demand_requests: u64,
    /// Prefetch requests sent off-chip.
    pub prefetch_requests: u64,
    /// Bytes requested off-chip (demand + prefetch).
    pub bytes_requested: u64,
    /// Cache probes that hit.
    pub cache_hits: u64,
    /// Cache probes that missed.
    pub cache_misses: u64,
    /// Instructions handed to the decoder.
    pub instructions_delivered: u64,
    /// Pipeline redirects (taken branches reaching their delay-slot count).
    pub redirects: u64,
    /// Parcels discarded from the queues by redirects (PIPE engine) or
    /// instructions discarded past a redirect (conventional engine).
    pub flushed_parcels: u64,
    /// Off-chip requests whose payload was (at least partly) discarded by a
    /// redirect before use — wasted bus traffic.
    pub wasted_requests: u64,
}

impl FetchStats {
    /// The counts accumulated since `earlier`, a snapshot of the same
    /// run.
    pub fn since(&self, earlier: &FetchStats) -> FetchStats {
        FetchStats {
            demand_requests: self.demand_requests - earlier.demand_requests,
            prefetch_requests: self.prefetch_requests - earlier.prefetch_requests,
            bytes_requested: self.bytes_requested - earlier.bytes_requested,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            instructions_delivered: self.instructions_delivered - earlier.instructions_delivered,
            redirects: self.redirects - earlier.redirects,
            flushed_parcels: self.flushed_parcels - earlier.flushed_parcels,
            wasted_requests: self.wasted_requests - earlier.wasted_requests,
        }
    }

    /// Adds a delta computed by [`since`](Self::since).
    pub fn add(&mut self, delta: &FetchStats) {
        self.demand_requests += delta.demand_requests;
        self.prefetch_requests += delta.prefetch_requests;
        self.bytes_requested += delta.bytes_requested;
        self.cache_hits += delta.cache_hits;
        self.cache_misses += delta.cache_misses;
        self.instructions_delivered += delta.instructions_delivered;
        self.redirects += delta.redirects;
        self.flushed_parcels += delta.flushed_parcels;
        self.wasted_requests += delta.wasted_requests;
    }

    /// Cache hit rate over all probes, `0.0..=1.0`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Total off-chip instruction requests.
    pub fn total_requests(&self) -> u64 {
        self.demand_requests + self.prefetch_requests
    }
}

impl fmt::Display for FetchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "fetch statistics:")?;
        writeln!(f, "  delivered:     {}", self.instructions_delivered)?;
        writeln!(f, "  demand reqs:   {}", self.demand_requests)?;
        writeln!(f, "  prefetch reqs: {}", self.prefetch_requests)?;
        writeln!(f, "  bytes req'd:   {}", self.bytes_requested)?;
        writeln!(
            f,
            "  cache:         {} hits / {} misses ({:.1}%)",
            self.cache_hits,
            self.cache_misses,
            self.hit_rate() * 100.0
        )?;
        writeln!(f, "  redirects:     {}", self.redirects)?;
        write!(f, "  wasted reqs:   {}", self.wasted_requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_zero_probe_safe() {
        assert_eq!(FetchStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn totals() {
        let s = FetchStats {
            demand_requests: 3,
            prefetch_requests: 7,
            cache_hits: 9,
            cache_misses: 1,
            ..FetchStats::default()
        };
        assert_eq!(s.total_requests(), 10);
        assert!((s.hit_rate() - 0.9).abs() < 1e-12);
        assert!(!s.to_string().is_empty());
    }
}
