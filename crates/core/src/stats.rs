//! Simulation statistics.

use std::fmt;

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

    /// Samples `n` consecutive cycles at the same occupancy — equivalent
    /// to calling [`sample`](Self::sample) `n` times. Used by the cycle
    /// loop when fast-forwarding a stall window during which no queue
    /// length can change.
    pub fn sample_n(&mut self, len: usize, n: u64) {
        self.max = self.max.max(len);
        self.total += len as u64 * n;
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
