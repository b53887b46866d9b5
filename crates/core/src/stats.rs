//! Simulation statistics.

use std::fmt;

use pipe_icache::repeat::Counters;
use pipe_icache::FetchStats;
use pipe_mem::MemStats;

/// Why the issue stage did nothing on a given cycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// No complete instruction available from the fetch engine.
    pub ifetch: u64,
    /// An `r7` read was waiting for the LDQ head to fill.
    pub data_wait: u64,
    /// A load/store could not issue because LAQ/SAQ/SDQ/LDQ was full.
    pub queue_full: u64,
    /// Issue was gated by an unresolved prepare-to-branch (wrong-path
    /// guard) or by back-to-back branches.
    pub branch: u64,
}

impl StallBreakdown {
    /// Total stall cycles.
    pub fn total(&self) -> u64 {
        self.ifetch + self.data_wait + self.queue_full + self.branch
    }

    fn since(&self, earlier: &StallBreakdown) -> StallBreakdown {
        StallBreakdown {
            ifetch: self.ifetch - earlier.ifetch,
            data_wait: self.data_wait - earlier.data_wait,
            queue_full: self.queue_full - earlier.queue_full,
            branch: self.branch - earlier.branch,
        }
    }

    fn add(&mut self, delta: &StallBreakdown) {
        self.ifetch += delta.ifetch;
        self.data_wait += delta.data_wait;
        self.queue_full += delta.queue_full;
        self.branch += delta.branch;
    }
}

/// Occupancy tracking for one architectural queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueOccupancy {
    /// Highest occupancy observed.
    pub max: usize,
    /// Sum of per-cycle occupancies (divide by cycles for the average).
    pub total: u64,
}

impl QueueOccupancy {
    /// Samples one cycle's occupancy.
    pub fn sample(&mut self, len: usize) {
        self.max = self.max.max(len);
        self.total += len as u64;
    }

    /// The occupancy summed since `earlier`. The maximum is left at 0:
    /// [`add`](Self::add) applies a delta to the run it came from, whose
    /// maximum a repeat of the same cycles cannot raise.
    fn since(&self, earlier: &QueueOccupancy) -> QueueOccupancy {
        QueueOccupancy {
            max: 0,
            total: self.total - earlier.total,
        }
    }

    fn add(&mut self, delta: &QueueOccupancy) {
        self.max = self.max.max(delta.max);
        self.total += delta.total;
    }

    /// Average occupancy over `cycles`.
    pub fn average(&self, cycles: u64) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.total as f64 / cycles as f64
        }
    }
}

/// Per-queue occupancy statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Load Address Queue.
    pub laq: QueueOccupancy,
    /// Load (data) Queue.
    pub ldq: QueueOccupancy,
    /// Store Address Queue.
    pub saq: QueueOccupancy,
    /// Store Data Queue.
    pub sdq: QueueOccupancy,
}

/// Results of a simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total cycles from reset to full drain after `halt` — the paper's
    /// performance metric.
    pub cycles: u64,
    /// Instructions issued (architecturally executed).
    pub instructions_issued: u64,
    /// Data loads issued (LAQ pushes).
    pub loads: u64,
    /// Stores issued (SAQ pushes), including FPU-operand stores.
    pub stores: u64,
    /// Floating-point operations started (FPU-triggering stores issued).
    pub fpu_ops: u64,
    /// Taken branches.
    pub branches_taken: u64,
    /// Not-taken branches.
    pub branches_not_taken: u64,
    /// Issue-stall cycles by cause.
    pub stalls: StallBreakdown,
    /// Architectural queue occupancies sampled every cycle.
    pub queues: QueueStats,
    /// Fetch-engine statistics snapshot.
    pub fetch: FetchStats,
    /// Memory-system statistics snapshot.
    pub mem: MemStats,
}

impl QueueStats {
    fn since(&self, earlier: &QueueStats) -> QueueStats {
        QueueStats {
            laq: self.laq.since(&earlier.laq),
            ldq: self.ldq.since(&earlier.ldq),
            saq: self.saq.since(&earlier.saq),
            sdq: self.sdq.since(&earlier.sdq),
        }
    }

    fn add(&mut self, delta: &QueueStats) {
        self.laq.add(&delta.laq);
        self.ldq.add(&delta.ldq);
        self.saq.add(&delta.saq);
        self.sdq.add(&delta.sdq);
    }
}

impl Counters for SimStats {
    /// The counts accumulated since `earlier`, a snapshot of the same
    /// run (queue maxima are left at 0; see [`QueueOccupancy`]).
    fn since(&self, earlier: &SimStats) -> SimStats {
        SimStats {
            cycles: self.cycles - earlier.cycles,
            instructions_issued: self.instructions_issued - earlier.instructions_issued,
            loads: self.loads - earlier.loads,
            stores: self.stores - earlier.stores,
            fpu_ops: self.fpu_ops - earlier.fpu_ops,
            branches_taken: self.branches_taken - earlier.branches_taken,
            branches_not_taken: self.branches_not_taken - earlier.branches_not_taken,
            stalls: self.stalls.since(&earlier.stalls),
            queues: self.queues.since(&earlier.queues),
            fetch: self.fetch.since(&earlier.fetch),
            mem: self.mem.since(&earlier.mem),
        }
    }

    /// Adds a delta computed by [`since`](Self::since).
    fn add(&mut self, delta: &SimStats) {
        self.cycles += delta.cycles;
        self.instructions_issued += delta.instructions_issued;
        self.loads += delta.loads;
        self.stores += delta.stores;
        self.fpu_ops += delta.fpu_ops;
        self.branches_taken += delta.branches_taken;
        self.branches_not_taken += delta.branches_not_taken;
        self.stalls.add(&delta.stalls);
        self.queues.add(&delta.queues);
        self.fetch.add(&delta.fetch);
        self.mem.add(&delta.mem);
    }
}

impl SimStats {
    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.instructions_issued == 0 {
            f64::NAN
        } else {
            self.cycles as f64 / self.instructions_issued as f64
        }
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "simulation results:")?;
        writeln!(f, "  cycles:        {}", self.cycles)?;
        writeln!(f, "  instructions:  {}", self.instructions_issued)?;
        writeln!(f, "  CPI:           {:.3}", self.cpi())?;
        writeln!(f, "  loads/stores:  {} / {}", self.loads, self.stores)?;
        writeln!(f, "  fpu ops:       {}", self.fpu_ops)?;
        writeln!(
            f,
            "  branches:      {} taken, {} not taken",
            self.branches_taken, self.branches_not_taken
        )?;
        writeln!(
            f,
            "  stalls:        {} ifetch, {} data, {} queue, {} branch",
            self.stalls.ifetch, self.stalls.data_wait, self.stalls.queue_full, self.stalls.branch
        )?;
        writeln!(
            f,
            "  queue peaks:   LAQ {} / LDQ {} / SAQ {} / SDQ {}",
            self.queues.laq.max, self.queues.ldq.max, self.queues.saq.max, self.queues.sdq.max
        )?;
        write!(f, "{}", self.fetch)?;
        writeln!(f)?;
        write!(f, "{}", self.mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpi_guards_division() {
        assert!(SimStats::default().cpi().is_nan());
        let s = SimStats {
            cycles: 30,
            instructions_issued: 10,
            ..SimStats::default()
        };
        assert_eq!(s.cpi(), 3.0);
    }

    #[test]
    fn stall_totals() {
        let s = StallBreakdown {
            ifetch: 1,
            data_wait: 2,
            queue_full: 3,
            branch: 4,
        };
        assert_eq!(s.total(), 10);
    }

    #[test]
    fn display_includes_cycles() {
        let s = SimStats {
            cycles: 42,
            instructions_issued: 10,
            ..SimStats::default()
        };
        assert!(s.to_string().contains("42"));
    }
}
