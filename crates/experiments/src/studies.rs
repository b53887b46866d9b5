//! Design studies beyond the paper's printed figures.
//!
//! * [`queue_size_study`] — sweeps IQ and IQB sizes independently at a
//!   fixed cache, the paper's simulation parameters 7 and 8.
//! * [`partial_line_study`] — whole-line fetches (the paper's model)
//!   versus fetching only the needed tail of a line, a natural
//!   critical-word-style refinement the paper leaves unexplored.

use std::sync::Arc;

use pipe_core::FetchStrategy;
use pipe_icache::{BufferConfig, CacheConfig, ConvPrefetch, ConventionalConfig, PipeFetchConfig};
use pipe_isa::DecodedProgram;
use pipe_mem::MemConfig;
use pipe_workloads::LivermoreSuite;

use crate::runner::{try_run_point_decoded, ExperimentPoint};

/// The suite's program, predecoded once for all of a study's points.
fn predecode(suite: &LivermoreSuite) -> Arc<DecodedProgram> {
    Arc::new(DecodedProgram::new(suite.program().clone()))
}

/// Runs one study point. Study configurations are fixed and valid, so a
/// failure is a simulator bug and fails loudly rather than skewing a row.
fn study_point(
    decoded: &Arc<DecodedProgram>,
    fetch: FetchStrategy,
    mem: &MemConfig,
    cache_bytes: u32,
) -> ExperimentPoint {
    try_run_point_decoded(decoded, fetch, mem, cache_bytes)
        .unwrap_or_else(|e| panic!("study point failed ({fetch}, {cache_bytes}B): {e}"))
}

/// One cell of the queue-size study.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueStudyCell {
    /// IQ size in bytes.
    pub iq_bytes: u32,
    /// IQB size in bytes.
    pub iqb_bytes: u32,
    /// Total benchmark cycles.
    pub cycles: u64,
}

/// Sweeps IQ × IQB sizes (paper parameters 7 and 8) at a fixed cache
/// geometry and memory configuration.
pub fn queue_size_study(
    suite: &LivermoreSuite,
    cache_bytes: u32,
    line_bytes: u32,
    mem: &MemConfig,
    sizes: &[u32],
) -> Vec<QueueStudyCell> {
    let decoded = predecode(suite);
    let mut cells = Vec::new();
    for &iq in sizes {
        for &iqb in sizes {
            let cfg = PipeFetchConfig {
                iq_bytes: iq,
                iqb_bytes: iqb,
                ..PipeFetchConfig::table2(cache_bytes, line_bytes, iq, iqb)
            };
            let point = study_point(&decoded, FetchStrategy::Pipe(cfg), mem, cache_bytes);
            cells.push(QueueStudyCell {
                iq_bytes: iq,
                iqb_bytes: iqb,
                cycles: point.cycles,
            });
        }
    }
    cells
}

/// Renders the queue-size study as a matrix (rows: IQ, columns: IQB).
pub fn render_queue_study(cells: &[QueueStudyCell], sizes: &[u32]) -> String {
    let mut out =
        String::from("queue-size study (paper parameters 7 & 8): total kilocycles\nIQ \\ IQB |");
    for &iqb in sizes {
        out.push_str(&format!(" {iqb:>7}B"));
    }
    out.push('\n');
    out.push_str(&format!("---------+{}\n", "-".repeat(9 * sizes.len())));
    for &iq in sizes {
        out.push_str(&format!("{iq:>8}B |"));
        for &iqb in sizes {
            let cell = cells
                .iter()
                .find(|c| c.iq_bytes == iq && c.iqb_bytes == iqb)
                .expect("cell measured");
            out.push_str(&format!(" {:>7.0}k", cell.cycles as f64 / 1000.0));
        }
        out.push('\n');
    }
    out
}

/// One row of the partial-line study.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialLineRow {
    /// Cache size in bytes.
    pub cache_bytes: u32,
    /// Cycles with whole-line fetches (the paper's model).
    pub whole_line_cycles: u64,
    /// Cycles fetching only the needed line tail.
    pub partial_line_cycles: u64,
    /// Off-chip instruction bytes, whole-line.
    pub whole_line_bytes: u64,
    /// Off-chip instruction bytes, partial.
    pub partial_line_bytes: u64,
}

/// Compares whole-line and partial-line fetch policies for the 16-16 PIPE
/// configuration across cache sizes.
pub fn partial_line_study(
    suite: &LivermoreSuite,
    mem: &MemConfig,
    sizes: &[u32],
) -> Vec<PartialLineRow> {
    let decoded = predecode(suite);
    sizes
        .iter()
        .map(|&cache| {
            let whole = study_point(
                &decoded,
                FetchStrategy::Pipe(PipeFetchConfig::table2(cache, 16, 16, 16)),
                mem,
                cache,
            );
            let partial_cfg = PipeFetchConfig {
                partial_lines: true,
                ..PipeFetchConfig::table2(cache, 16, 16, 16)
            };
            let partial = study_point(&decoded, FetchStrategy::Pipe(partial_cfg), mem, cache);
            PartialLineRow {
                cache_bytes: cache,
                whole_line_cycles: whole.cycles,
                partial_line_cycles: partial.cycles,
                whole_line_bytes: whole.stats.fetch.bytes_requested,
                partial_line_bytes: partial.stats.fetch.bytes_requested,
            }
        })
        .collect()
}

/// Renders the partial-line study.
pub fn render_partial_line_study(rows: &[PartialLineRow]) -> String {
    let mut out = String::from(
        "partial-line fetch study (PIPE 16-16): cycles and off-chip instruction bytes\n\
         cache     whole-line      partial      whole bytes  partial bytes\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>5}B  {:>11}  {:>11}  {:>13}  {:>13}\n",
            r.cache_bytes,
            r.whole_line_cycles,
            r.partial_line_cycles,
            r.whole_line_bytes,
            r.partial_line_bytes
        ));
    }
    out
}

/// One row of the Hill prefetch-strategy study.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HillStudyRow {
    /// Cache size in bytes.
    pub cache_bytes: u32,
    /// Cycles per [`ConvPrefetch`] strategy, in declaration order
    /// (always, on-miss-only, tagged).
    pub cycles: [u64; 3],
}

/// Compares Hill's three conventional-cache prefetch strategies across
/// cache sizes. The paper adopts always-prefetch because Hill found it
/// "consistently provided the best performance"; on PIPE's decoupled,
/// data-heavy workload the strategies land within a few percent of each
/// other, because a prefetch yields the memory port to data while a
/// demand fetch outranks it — see EXPERIMENTS.md for the discussion.
pub fn hill_prefetch_study(
    suite: &LivermoreSuite,
    mem: &MemConfig,
    sizes: &[u32],
) -> Vec<HillStudyRow> {
    let decoded = predecode(suite);
    let modes = [
        ConvPrefetch::Always,
        ConvPrefetch::OnMissOnly,
        ConvPrefetch::Tagged,
    ];
    sizes
        .iter()
        .map(|&cache| {
            let mut cycles = [0u64; 3];
            for (i, &mode) in modes.iter().enumerate() {
                let fetch = FetchStrategy::Conventional(ConventionalConfig {
                    cache: CacheConfig::new(cache, 16),
                    prefetch: mode,
                });
                cycles[i] = study_point(&decoded, fetch, mem, cache).cycles;
            }
            HillStudyRow {
                cache_bytes: cache,
                cycles,
            }
        })
        .collect()
}

/// Renders the Hill prefetch study.
pub fn render_hill_study(rows: &[HillStudyRow]) -> String {
    let mut out = String::from(
        "conventional-cache prefetch strategies (Hill): total kilocycles\n\
         cache      always    on-miss     tagged\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>5}B  {:>8.0}k  {:>8.0}k  {:>8.0}k\n",
            r.cache_bytes,
            r.cycles[0] as f64 / 1000.0,
            r.cycles[1] as f64 / 1000.0,
            r.cycles[2] as f64 / 1000.0,
        ));
    }
    out
}

/// One row of the finite-external-cache study.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtCacheStudyRow {
    /// External cache size in bytes (`None` = the paper's infinite cache).
    pub ext_cache_bytes: Option<u32>,
    /// Total benchmark cycles.
    pub cycles: u64,
}

/// Relaxes the paper's "external cache large enough for a 100 % hit rate"
/// assumption (§5): sweeps finite external-cache sizes with a fixed miss
/// penalty and measures the impact on the on-chip comparison point
/// (PIPE 16-16, 64 B on-chip cache).
pub fn external_cache_study(
    suite: &LivermoreSuite,
    base: &MemConfig,
    miss_penalty: u32,
    sizes: &[u32],
) -> Vec<ExtCacheStudyRow> {
    let decoded = predecode(suite);
    let fetch = FetchStrategy::Pipe(PipeFetchConfig::table2(64, 16, 16, 16));
    let mut rows = vec![ExtCacheStudyRow {
        ext_cache_bytes: None,
        cycles: study_point(&decoded, fetch, base, 64).cycles,
    }];
    for &size in sizes {
        let mem = MemConfig {
            external_cache: Some(pipe_mem::ExternalCacheConfig {
                size_bytes: size,
                line_bytes: 64,
                miss_penalty,
            }),
            ..*base
        };
        rows.push(ExtCacheStudyRow {
            ext_cache_bytes: Some(size),
            cycles: study_point(&decoded, fetch, &mem, 64).cycles,
        });
    }
    rows
}

/// Renders the external-cache study.
pub fn render_ext_cache_study(rows: &[ExtCacheStudyRow], miss_penalty: u32) -> String {
    let mut out = format!(
        "finite external cache study (PIPE 16-16, 64B on-chip, +{miss_penalty} cycle misses)\n\
         external cache        cycles\n"
    );
    for r in rows {
        let label = match r.ext_cache_bytes {
            None => "infinite (paper)".to_string(),
            Some(b) if b >= 1024 => format!("{}KB", b / 1024),
            Some(b) => format!("{b}B"),
        };
        out.push_str(&format!("{label:<18}  {:>10}\n", r.cycles));
    }
    out
}

/// One row of the memory-speed sensitivity study.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessStudyRow {
    /// Memory access time in cycles.
    pub access_cycles: u32,
    /// Conventional-cache cycles.
    pub conventional: u64,
    /// PIPE 16-16 cycles.
    pub pipe: u64,
}

impl AccessStudyRow {
    /// PIPE's speedup over the conventional cache at this access time.
    pub fn speedup(&self) -> f64 {
        self.conventional as f64 / self.pipe as f64
    }
}

/// Sweeps the external memory access time (paper simulation parameter 4)
/// at a fixed cache size, comparing the conventional cache against PIPE
/// 16-16. Shows how the PIPE advantage grows as memory gets relatively
/// slower — the paper's central technology-scaling argument.
pub fn access_sweep_study(
    suite: &LivermoreSuite,
    cache_bytes: u32,
    bus: u32,
    accesses: &[u32],
) -> Vec<AccessStudyRow> {
    let decoded = predecode(suite);
    accesses
        .iter()
        .map(|&access| {
            let mem = MemConfig {
                access_cycles: access,
                in_bus_bytes: bus,
                ..MemConfig::default()
            };
            let conv = study_point(
                &decoded,
                FetchStrategy::conventional(CacheConfig::new(cache_bytes, 16)),
                &mem,
                cache_bytes,
            );
            let pipe = study_point(
                &decoded,
                FetchStrategy::Pipe(PipeFetchConfig::table2(cache_bytes, 16, 16, 16)),
                &mem,
                cache_bytes,
            );
            AccessStudyRow {
                access_cycles: access,
                conventional: conv.cycles,
                pipe: pipe.cycles,
            }
        })
        .collect()
}

/// Renders the access-time sweep.
pub fn render_access_study(rows: &[AccessStudyRow], cache_bytes: u32) -> String {
    let mut out = format!(
        "memory-speed sensitivity ({cache_bytes}B cache, paper parameter 4)\n\
         access  conventional      PIPE 16-16   speedup\n"
    );
    for r in rows {
        out.push_str(&format!(
            "{:>6}  {:>12}  {:>14}  {:>7.2}x\n",
            r.access_cycles,
            r.conventional,
            r.pipe,
            r.speedup()
        ));
    }
    out
}

/// One row of the Rau & Rossman prefetch-buffer study.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferStudyRow {
    /// Number of prefetch buffers.
    pub buffers: u32,
    /// Total benchmark cycles.
    pub cycles: u64,
    /// Off-chip instruction bytes requested.
    pub bytes_requested: u64,
}

/// Sweeps the prefetch-buffer count (paper §2.1's Rau & Rossman model:
/// decode takes instructions straight from sequential prefetch buffers).
/// Reproduces their trade-off: more buffers improve performance, at the
/// cost of more memory traffic.
pub fn buffer_study(
    suite: &LivermoreSuite,
    mem: &MemConfig,
    counts: &[u32],
    cache: Option<CacheConfig>,
) -> Vec<BufferStudyRow> {
    let decoded = predecode(suite);
    counts
        .iter()
        .map(|&buffers| {
            let fetch = FetchStrategy::Buffers(BufferConfig { buffers, cache });
            let point = study_point(&decoded, fetch, mem, buffers * 4);
            BufferStudyRow {
                buffers,
                cycles: point.cycles,
                bytes_requested: point.stats.fetch.bytes_requested,
            }
        })
        .collect()
}

/// Renders the prefetch-buffer study.
pub fn render_buffer_study(rows: &[BufferStudyRow]) -> String {
    let mut out = String::from(
        "prefetch-buffer study (Rau & Rossman): cycles and off-chip traffic\n\
         buffers       cycles    bytes requested\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>7}  {:>11}  {:>17}\n",
            r.buffers, r.cycles, r.bytes_requested
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipe_isa::InstrFormat;

    fn small_suite() -> LivermoreSuite {
        LivermoreSuite::build_scaled(InstrFormat::Fixed32, 20).unwrap()
    }

    #[test]
    fn queue_study_covers_grid() {
        let suite = small_suite();
        let sizes = [8u32, 16];
        let cells = queue_size_study(&suite, 64, 16, &MemConfig::default(), &sizes);
        assert_eq!(cells.len(), 4);
        assert!(cells.iter().all(|c| c.cycles > 0));
        let text = render_queue_study(&cells, &sizes);
        assert!(text.contains("IQ \\ IQB"));
    }

    #[test]
    fn finite_external_cache_monotone() {
        let suite = small_suite();
        let base = MemConfig {
            access_cycles: 3,
            in_bus_bytes: 8,
            ..MemConfig::default()
        };
        let rows = external_cache_study(&suite, &base, 10, &[4096, 65536]);
        assert_eq!(rows.len(), 3);
        let infinite = rows[0].cycles;
        let small = rows[1].cycles;
        let big = rows[2].cycles;
        assert!(small >= big, "bigger external cache can't be slower");
        assert!(big >= infinite, "finite can't beat the paper's assumption");
        assert!(small > infinite, "a small external cache must cost cycles");
        assert!(render_ext_cache_study(&rows, 10).contains("infinite"));
    }

    #[test]
    fn pipe_advantage_grows_with_memory_latency() {
        let suite = small_suite();
        let rows = access_sweep_study(&suite, 32, 8, &[1, 3, 6]);
        assert_eq!(rows.len(), 3);
        assert!(
            rows[2].speedup() > rows[0].speedup(),
            "speedup at access 6 ({:.2}) !> at access 1 ({:.2})",
            rows[2].speedup(),
            rows[0].speedup()
        );
        assert!(render_access_study(&rows, 32).contains("speedup"));
    }

    #[test]
    fn more_buffers_better_performance_more_traffic() {
        // Rau & Rossman's trade-off, on a pipelined memory where multiple
        // outstanding prefetches actually overlap.
        let suite = small_suite();
        let mem = MemConfig {
            access_cycles: 4,
            in_bus_bytes: 4,
            pipelined: true,
            ..MemConfig::default()
        };
        let rows = buffer_study(&suite, &mem, &[1, 8], None);
        assert!(
            rows[1].cycles < rows[0].cycles,
            "8 buffers {} !< 1 buffer {}",
            rows[1].cycles,
            rows[0].cycles
        );
        assert!(
            rows[1].bytes_requested >= rows[0].bytes_requested,
            "traffic must not shrink with more buffers"
        );
        assert!(render_buffer_study(&rows).contains("buffers"));
    }

    #[test]
    fn hill_prefetch_strategies_are_close_on_this_workload() {
        // Hill found always-prefetch consistently best in an
        // instruction-side-only study; on PIPE's decoupled, data-heavy
        // workload the three strategies land within a few percent of each
        // other (a prefetch yields the bus to data, while a demand fetch
        // outranks it under instruction-first arbitration — so launching
        // earlier at lower priority roughly cancels out). We check the
        // bounded spread rather than a strict ordering.
        let suite = small_suite();
        let mem = MemConfig {
            access_cycles: 6,
            in_bus_bytes: 8,
            ..MemConfig::default()
        };
        let rows = hill_prefetch_study(&suite, &mem, &[64]);
        let [always, on_miss, tagged] = rows[0].cycles;
        let max = always.max(on_miss).max(tagged) as f64;
        let min = always.min(on_miss).min(tagged) as f64;
        assert!(
            max / min < 1.10,
            "spread too wide: {always} {on_miss} {tagged}"
        );
        assert!(render_hill_study(&rows).contains("64B"));
    }

    #[test]
    fn partial_lines_reduce_traffic() {
        let suite = small_suite();
        let mem = MemConfig {
            access_cycles: 6,
            in_bus_bytes: 4,
            ..MemConfig::default()
        };
        let rows = partial_line_study(&suite, &mem, &[32]);
        assert_eq!(rows.len(), 1);
        assert!(
            rows[0].partial_line_bytes <= rows[0].whole_line_bytes,
            "partial fetches cannot request more bytes"
        );
        let text = render_partial_line_study(&rows);
        assert!(text.contains("32B"));
    }
}
