//! Per-loop cycle attribution for the Livermore benchmark.
//!
//! Uses the trace [`RegionProfiler`] to charge every cycle of a benchmark
//! run to the Livermore loop executing at the time, giving a per-kernel
//! breakdown the paper's aggregate metric hides: which loops are
//! fetch-bound at a given cache size, and which are data/FPU-bound.

use pipe_core::{FetchStrategy, Processor, Region, RegionProfiler};
use pipe_mem::MemConfig;
use pipe_workloads::LivermoreSuite;

use crate::runner::point_config;

use std::cell::RefCell;
use std::rc::Rc;

/// One loop's share of a profiled run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopShare {
    /// 1-based loop number.
    pub index: usize,
    /// Kernel name.
    pub name: &'static str,
    /// Inner-loop size in bytes.
    pub inner_loop_bytes: u32,
    /// Cycles attributed to the loop body.
    pub cycles: u64,
    /// Instructions issued from the loop body.
    pub instructions: u64,
}

impl LoopShare {
    /// Cycles per instruction within this loop.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            f64::NAN
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }
}

/// A profiled benchmark run.
#[derive(Debug, Clone)]
pub struct LoopProfile {
    /// Strategy label.
    pub label: String,
    /// Per-loop shares, in loop order.
    pub shares: Vec<LoopShare>,
    /// Cycles outside any loop body (prologues, drain).
    pub other_cycles: u64,
    /// Whole-run total cycles.
    pub total_cycles: u64,
}

/// Runs the benchmark under (`fetch`, `mem`) and attributes cycles to each
/// Livermore loop body.
///
/// # Panics
///
/// Panics if the simulation fails — configurations are validated up
/// front, so a failure is a bug.
pub fn per_loop_profile(
    suite: &LivermoreSuite,
    fetch: FetchStrategy,
    mem: &MemConfig,
) -> LoopProfile {
    let regions: Vec<Region> = suite
        .loops()
        .iter()
        .map(|info| Region {
            name: format!("LL{}", info.index),
            start: info.top_address,
            end: info.top_address + info.inner_loop_bytes,
        })
        .collect();
    let profiler = Rc::new(RefCell::new(RegionProfiler::new(regions)));

    let cfg = point_config(fetch, mem);
    let proc = Processor::new(suite.program(), &cfg).expect("valid config");
    let mut proc = proc.with_trace(Rc::clone(&profiler));
    proc.run().expect("benchmark runs");
    let stats = proc.stats();

    let p = profiler.borrow();
    let shares = suite
        .loops()
        .iter()
        .zip(p.results())
        .map(|(info, (_, cycles, instructions))| LoopShare {
            index: info.index,
            name: info.name,
            inner_loop_bytes: info.inner_loop_bytes,
            cycles,
            instructions,
        })
        .collect();
    LoopProfile {
        label: fetch.label(),
        shares,
        other_cycles: p.other_cycles(),
        total_cycles: stats.cycles,
    }
}

/// Renders a profile as a text table.
pub fn render_profile(profile: &LoopProfile) -> String {
    let mut out = format!(
        "per-loop cycle breakdown — {} ({} total cycles)\nloop  bytes  instructions      cycles    CPI   share\n",
        profile.label, profile.total_cycles
    );
    for s in &profile.shares {
        out.push_str(&format!(
            "LL{:<3} {:>5}  {:>12}  {:>10}  {:>5.2}  {:>5.1}%\n",
            s.index,
            s.inner_loop_bytes,
            s.instructions,
            s.cycles,
            s.cpi(),
            100.0 * s.cycles as f64 / profile.total_cycles as f64
        ));
    }
    out.push_str(&format!(
        "other (prologues, drain): {} cycles\n",
        profile.other_cycles
    ));
    out
}

/// Renders a profile as CSV: one row per loop, then an `other` row for
/// cycles outside any loop body and a `total` row. The `share` column is
/// each row's fraction of total cycles (0..1).
pub fn render_profile_csv(profile: &LoopProfile) -> String {
    let share = |cycles: u64| cycles as f64 / profile.total_cycles as f64;
    let mut out = String::from("loop,name,inner_loop_bytes,instructions,cycles,cpi,share\n");
    for s in &profile.shares {
        out.push_str(&format!(
            "LL{},{},{},{},{},{:.4},{:.4}\n",
            s.index,
            s.name,
            s.inner_loop_bytes,
            s.instructions,
            s.cycles,
            s.cpi(),
            share(s.cycles),
        ));
    }
    out.push_str(&format!(
        "other,,,,{},,{:.4}\n",
        profile.other_cycles,
        share(profile.other_cycles),
    ));
    let instructions: u64 = profile.shares.iter().map(|s| s.instructions).sum();
    out.push_str(&format!(
        "total,,,{},{},,1.0000\n",
        instructions, profile.total_cycles,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::StrategyKind;
    use pipe_icache::PrefetchPolicy;
    use pipe_isa::InstrFormat;

    #[test]
    fn profile_accounts_for_all_cycles() {
        let suite = LivermoreSuite::build_scaled(InstrFormat::Fixed32, 20).unwrap();
        let fetch = StrategyKind::Pipe16x16
            .fetch_for(64, PrefetchPolicy::TruePrefetch)
            .unwrap();
        let profile = per_loop_profile(&suite, fetch, &MemConfig::default());
        let attributed: u64 = profile.shares.iter().map(|s| s.cycles).sum();
        assert_eq!(attributed + profile.other_cycles, profile.total_cycles);
        assert_eq!(profile.shares.len(), 14);
        for s in &profile.shares {
            assert!(s.instructions > 0, "LL{} never ran", s.index);
            assert!(s.cycles >= s.instructions, "LL{} CPI < 1", s.index);
        }
        let text = render_profile(&profile);
        assert!(text.contains("LL14"));

        // CSV form: header, 14 loop rows, `other`, `total` — and the
        // cycle column re-sums to the run total.
        let csv = render_profile_csv(&profile);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + 14 + 2);
        assert!(lines[0].starts_with("loop,name,"));
        let cycles_of = |line: &str| line.split(',').nth(4).unwrap().parse::<u64>().unwrap();
        let body: u64 = lines[1..=14].iter().map(|l| cycles_of(l)).sum();
        assert_eq!(body + cycles_of(lines[15]), profile.total_cycles);
        assert!(lines[16].starts_with("total,"));
        assert!(lines[16].ends_with("1.0000"));
    }

    #[test]
    fn fetch_bound_loops_improve_with_cache_size() {
        // LL8 (732 B body) is fetch-bound at 64 B but not at 512 B.
        let suite = LivermoreSuite::build_scaled(InstrFormat::Fixed32, 20).unwrap();
        let mem = MemConfig {
            access_cycles: 6,
            in_bus_bytes: 8,
            ..MemConfig::default()
        };
        let small = per_loop_profile(
            &suite,
            StrategyKind::Pipe16x16
                .fetch_for(64, PrefetchPolicy::TruePrefetch)
                .unwrap(),
            &mem,
        );
        let large = per_loop_profile(
            &suite,
            StrategyKind::Pipe16x16
                .fetch_for(512, PrefetchPolicy::TruePrefetch)
                .unwrap(),
            &mem,
        );
        let ll8_small = small.shares[7].cpi();
        let ll8_large = large.shares[7].cpi();
        assert!(
            ll8_large < ll8_small,
            "LL8 CPI should drop with a larger cache: {ll8_small:.2} -> {ll8_large:.2}"
        );
    }
}
