//! Running a single experiment point.

use std::sync::Arc;

use pipe_core::{run_decoded, FetchStrategy, SimConfig, SimError, SimStats};
use pipe_isa::DecodedProgram;
use pipe_mem::MemConfig;

/// One measured point of a sweep.
#[derive(Debug, Clone)]
pub struct ExperimentPoint {
    /// Cache size in bytes.
    pub cache_bytes: u32,
    /// Total cycles for the benchmark — the paper's metric.
    pub cycles: u64,
    /// Full statistics, for deeper analysis.
    pub stats: SimStats,
}

/// The simulation configuration every experiment point runs under, so
/// equal inputs simulate under bit-identical configurations wherever a
/// point is measured.
pub fn point_config(fetch: FetchStrategy, mem: &MemConfig) -> SimConfig {
    SimConfig {
        fetch,
        mem: *mem,
        max_cycles: 2_000_000_000,
        ..SimConfig::default()
    }
}

/// Runs an already-predecoded program under (`fetch`, `mem`) and returns
/// the measured point, or the typed simulation error, so one failing
/// point becomes a recorded failure instead of aborting a sweep. Callers
/// measuring many points over the same workload (the sweep engine, the
/// benchmark harness) decode each static instruction exactly once
/// instead of once per point.
///
/// # Errors
///
/// Returns the [`SimError`] the simulator reported (configuration,
/// decode, or timeout).
pub fn try_run_point_decoded(
    decoded: &Arc<DecodedProgram>,
    fetch: FetchStrategy,
    mem: &MemConfig,
    cache_bytes: u32,
) -> Result<ExperimentPoint, SimError> {
    let stats = run_decoded(decoded, &point_config(fetch, mem))?;
    Ok(ExperimentPoint {
        cache_bytes,
        cycles: stats.cycles,
        stats,
    })
}

/// [`try_run_point_decoded`] mapped over `(fetch, cache bytes)` pairs,
/// returning one result per pair, in order. Kept for callers that hand
/// over a group of points at once; each point runs alone through the one
/// cycle loop, so one failing point does not disturb the others.
pub fn try_run_points_batched(
    decoded: &Arc<DecodedProgram>,
    points: &[(FetchStrategy, u32)],
    mem: &MemConfig,
) -> Vec<Result<ExperimentPoint, SimError>> {
    points
        .iter()
        .map(|&(fetch, cache_bytes)| try_run_point_decoded(decoded, fetch, mem, cache_bytes))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipe_icache::CacheConfig;
    use pipe_isa::InstrFormat;
    use pipe_workloads::synthetic::tight_loop;

    #[test]
    fn run_point_measures_cycles() {
        let p = Arc::new(DecodedProgram::new(tight_loop(4, 20, InstrFormat::Fixed32)));
        let point = try_run_point_decoded(
            &p,
            FetchStrategy::conventional(CacheConfig::new(64, 16)),
            &MemConfig::default(),
            64,
        )
        .unwrap();
        assert!(point.cycles > 0);
        assert_eq!(point.cache_bytes, 64);
        assert_eq!(point.cycles, point.stats.cycles);
    }
}
