//! JSON rendering of run statistics — the object `pipe-sim --json`
//! prints. Hand-rolled because the workspace deliberately has no external
//! dependencies.

use pipe_core::SimStats;

/// Serializes run statistics as a JSON object — the shape `pipe-sim
/// --json` prints. The stats are all numbers, so no escaping is needed
/// beyond the fixed keys. Only the fields below are covered (queue
/// occupancies and most memory-system counters are not), so two
/// [`SimStats`] that agree on them serialize identically.
pub fn stats_json(stats: &SimStats) -> String {
    format!(
        concat!(
            "{{\"cycles\":{},\"instructions\":{},\"cpi\":{:.4},",
            "\"loads\":{},\"stores\":{},\"fpu_ops\":{},",
            "\"branches_taken\":{},\"branches_not_taken\":{},",
            "\"stalls\":{{\"ifetch\":{},\"data_wait\":{},\"queue_full\":{},\"branch\":{}}},",
            "\"fetch\":{{\"demand_requests\":{},\"prefetch_requests\":{},",
            "\"bytes_requested\":{},\"cache_hits\":{},\"cache_misses\":{},",
            "\"redirects\":{},\"wasted_requests\":{}}},",
            "\"mem\":{{\"contended_cycles\":{}}}}}"
        ),
        stats.cycles,
        stats.instructions_issued,
        stats.cpi(),
        stats.loads,
        stats.stores,
        stats.fpu_ops,
        stats.branches_taken,
        stats.branches_not_taken,
        stats.stalls.ifetch,
        stats.stalls.data_wait,
        stats.stalls.queue_full,
        stats.stalls.branch,
        stats.fetch.demand_requests,
        stats.fetch.prefetch_requests,
        stats.fetch.bytes_requested,
        stats.fetch.cache_hits,
        stats.fetch.cache_misses,
        stats.fetch.redirects,
        stats.fetch.wasted_requests,
        stats.mem.contended_cycles,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_json_is_valid_shape() {
        let stats = SimStats {
            cycles: 100,
            instructions_issued: 40,
            ..Default::default()
        };
        let j = stats_json(&stats);
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"cycles\":100"));
        assert!(j.contains("\"cpi\":2.5000"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
