//! Memory subsystem statistics.

use std::fmt;

use crate::request::ReqClass;

/// Counters accumulated by the memory system over a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Requests accepted, by class (indexed with [`ReqClass::index`]).
    pub accepted: [u64; 4],
    /// Bytes transferred on the input bus, by beat source: data loads,
    /// FPU results, demand fetches, prefetches.
    pub in_bus_bytes: u64,
    /// Cycles the input bus carried at least one beat.
    pub in_bus_busy_cycles: u64,
    /// Cycles the output bus carried a request.
    pub out_bus_busy_cycles: u64,
    /// Cycles on which more than one class offered a request (contention).
    pub contended_cycles: u64,
    /// Cycles a non-pipelined memory refused offers because it was busy.
    pub blocked_cycles: u64,
    /// FPU operations started.
    pub fpu_ops: u64,
    /// Total cycles ticked.
    pub cycles: u64,
}

impl MemStats {
    /// Requests accepted for `class`.
    pub fn accepted_for(&self, class: ReqClass) -> u64 {
        self.accepted[class.index()]
    }

    /// The counts accumulated since `earlier`, a snapshot of the same
    /// run.
    pub fn since(&self, earlier: &MemStats) -> MemStats {
        MemStats {
            accepted: std::array::from_fn(|i| self.accepted[i] - earlier.accepted[i]),
            in_bus_bytes: self.in_bus_bytes - earlier.in_bus_bytes,
            in_bus_busy_cycles: self.in_bus_busy_cycles - earlier.in_bus_busy_cycles,
            out_bus_busy_cycles: self.out_bus_busy_cycles - earlier.out_bus_busy_cycles,
            contended_cycles: self.contended_cycles - earlier.contended_cycles,
            blocked_cycles: self.blocked_cycles - earlier.blocked_cycles,
            fpu_ops: self.fpu_ops - earlier.fpu_ops,
            cycles: self.cycles - earlier.cycles,
        }
    }

    /// Adds a delta computed by [`since`](Self::since).
    pub fn add(&mut self, delta: &MemStats) {
        for (a, d) in self.accepted.iter_mut().zip(delta.accepted) {
            *a += d;
        }
        self.in_bus_bytes += delta.in_bus_bytes;
        self.in_bus_busy_cycles += delta.in_bus_busy_cycles;
        self.out_bus_busy_cycles += delta.out_bus_busy_cycles;
        self.contended_cycles += delta.contended_cycles;
        self.blocked_cycles += delta.blocked_cycles;
        self.fpu_ops += delta.fpu_ops;
        self.cycles += delta.cycles;
    }

    /// Fraction of cycles the input bus was busy, `0.0..=1.0`.
    pub fn in_bus_utilization(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.in_bus_busy_cycles as f64 / self.cycles as f64
        }
    }
}

impl fmt::Display for MemStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "memory statistics over {} cycles:", self.cycles)?;
        for class in ReqClass::ALL {
            writeln!(f, "  {class:<12} accepted: {}", self.accepted_for(class))?;
        }
        writeln!(f, "  fpu ops:       {}", self.fpu_ops)?;
        writeln!(f, "  in-bus bytes:  {}", self.in_bus_bytes)?;
        writeln!(
            f,
            "  in-bus util:   {:.1}%",
            self.in_bus_utilization() * 100.0
        )?;
        writeln!(f, "  contended:     {} cycles", self.contended_cycles)?;
        write!(f, "  blocked:       {} cycles", self.blocked_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_handles_zero_cycles() {
        assert_eq!(MemStats::default().in_bus_utilization(), 0.0);
    }

    #[test]
    fn totals() {
        let mut s = MemStats::default();
        s.accepted[ReqClass::DataLoad.index()] = 3;
        s.accepted[ReqClass::IFetch.index()] = 2;
        assert_eq!(s.accepted_for(ReqClass::DataLoad), 3);
    }

    #[test]
    fn display_nonempty() {
        assert!(!MemStats::default().to_string().is_empty());
    }
}
