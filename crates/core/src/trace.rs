//! Cycle-trace infrastructure: structured events from the processor.
//!
//! Attach a [`TraceSink`] to a [`Processor`](crate::Processor) with
//! [`Processor::with_trace`](crate::Processor::with_trace) to observe every
//! issue, stall, branch resolution and redirect as it happens. The sink is
//! a generic parameter of the processor, so the default [`NoTrace`] sink
//! compiles to nothing in the cycle loop; boxed trait objects
//! (`Box<dyn TraceSink>`) remain available when the sink is chosen at
//! run time. The crate ships three concrete sinks:
//!
//! * [`VecTrace`] — collect events into memory for assertions;
//! * [`TextTrace`] — render a human-readable line per event;
//! * [`RegionProfiler`] — attribute cycles to program regions (used by the
//!   experiment harness to produce per-Livermore-loop cycle breakdowns).

use std::fmt;

use pipe_isa::Instruction;

/// Why the issue stage did nothing this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallReason {
    /// No complete instruction available from the fetch engine.
    IFetch,
    /// An `r7` read was waiting on the LDQ head.
    DataWait,
    /// An architectural queue (LAQ/SAQ/SDQ/LDQ) was full.
    QueueFull,
    /// Gated by an unresolved or in-flight prepare-to-branch.
    Branch,
}

impl fmt::Display for StallReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StallReason::IFetch => "ifetch",
            StallReason::DataWait => "data-wait",
            StallReason::QueueFull => "queue-full",
            StallReason::Branch => "branch",
        };
        f.write_str(s)
    }
}

/// A data-side operation queued by the instruction that issued this
/// cycle. These events let a trace recorder capture the complete memory
/// "timing skeleton" of a run: replaying them re-creates the data-side
/// bus and memory-array contention that instruction fetches competed
/// with, which is what makes trace replay cycle-exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataOp {
    /// A `ldw` pushed this effective address onto the load address queue.
    Load {
        /// Effective byte address.
        addr: u32,
    },
    /// A `sta` pushed this effective address onto the store address queue.
    StoreAddr {
        /// Effective byte address.
        addr: u32,
    },
    /// A write to `r7` pushed this value onto the store data queue.
    StoreData {
        /// The 32-bit value queued.
        value: u32,
    },
}

/// One trace event. Every pre-halt cycle produces exactly one `Issue` or
/// `Stall` event; the others interleave as they occur.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// An instruction issued.
    Issue {
        /// Cycle number.
        cycle: u64,
        /// Byte address of the instruction (as reported by the fetch
        /// engine; `None` if the engine cannot attribute one).
        addr: Option<u32>,
        /// The decoded instruction.
        instr: Instruction,
    },
    /// The issue stage stalled.
    Stall {
        /// Cycle number.
        cycle: u64,
        /// Cause.
        reason: StallReason,
    },
    /// A prepare-to-branch resolved in execution.
    BranchResolved {
        /// Cycle number.
        cycle: u64,
        /// Whether the branch was taken.
        taken: bool,
        /// Target byte address.
        target: u32,
        /// Delay-slot instructions still to issue.
        remaining: u32,
    },
    /// The instruction issued this cycle queued a data-side operation.
    /// Emitted after the corresponding [`TraceEvent::Issue`], one event
    /// per operation, in program order.
    DataIssue {
        /// Cycle number (same as the owning `Issue` event).
        cycle: u64,
        /// The operation queued.
        op: DataOp,
    },
    /// The program halted (issue side; draining may continue).
    Halted {
        /// Cycle number.
        cycle: u64,
    },
}

impl TraceEvent {
    /// The cycle the event occurred on.
    pub fn cycle(&self) -> u64 {
        match self {
            TraceEvent::Issue { cycle, .. }
            | TraceEvent::Stall { cycle, .. }
            | TraceEvent::BranchResolved { cycle, .. }
            | TraceEvent::DataIssue { cycle, .. }
            | TraceEvent::Halted { cycle } => *cycle,
        }
    }
}

/// A consumer of trace events.
pub trait TraceSink {
    /// Receives one event. Called in cycle order.
    fn event(&mut self, event: &TraceEvent);

    /// Whether this sink consumes events at all. The processor is generic
    /// over its sink and checks this before constructing an event, so a
    /// sink returning `false` — notably [`NoTrace`], the default —
    /// monomorphizes the entire trace path to dead code. A provided
    /// method (not an associated const) so the trait stays object-safe.
    fn enabled(&self) -> bool {
        true
    }
}

/// The disabled trace sink: a zero-sized type whose `enabled()` is
/// `false`, letting `Processor<NoTrace>` (the default) compile the trace
/// plumbing out of the hot loop entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTrace;

impl TraceSink for NoTrace {
    fn event(&mut self, _event: &TraceEvent) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Boxed sinks forward, so heterogeneous sinks chosen at runtime (e.g. by
/// the CLI) can drive a `Processor<Box<dyn TraceSink>>`.
impl TraceSink for Box<dyn TraceSink> {
    fn event(&mut self, event: &TraceEvent) {
        (**self).event(event);
    }

    fn enabled(&self) -> bool {
        (**self).enabled()
    }
}

/// Shared sinks: keep an `Rc<RefCell<VecTrace>>` clone and hand the other
/// clone to the processor, then inspect it after the run.
impl<S: TraceSink> TraceSink for std::rc::Rc<std::cell::RefCell<S>> {
    fn event(&mut self, event: &TraceEvent) {
        self.borrow_mut().event(event);
    }

    fn enabled(&self) -> bool {
        self.borrow().enabled()
    }
}

/// Collects events into a vector.
#[derive(Debug, Default)]
pub struct VecTrace {
    events: Vec<TraceEvent>,
}

impl VecTrace {
    /// Creates an empty collector.
    pub fn new() -> VecTrace {
        VecTrace::default()
    }

    /// The collected events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the collector, returning the events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl TraceSink for VecTrace {
    fn event(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }
}

/// Renders one line per event to a writer.
pub struct TextTrace<W: std::io::Write> {
    out: W,
}

impl<W: std::io::Write> TextTrace<W> {
    /// Creates a text renderer over `out`. A `&mut Vec<u8>` or
    /// `std::io::stderr()` both work.
    pub fn new(out: W) -> TextTrace<W> {
        TextTrace { out }
    }

    /// Returns the underlying writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: std::io::Write> TraceSink for TextTrace<W> {
    fn event(&mut self, event: &TraceEvent) {
        let line = match event {
            TraceEvent::Issue { cycle, addr, instr } => match addr {
                Some(a) => format!("[{cycle:>8}] {a:#08x}  {instr}"),
                None => format!("[{cycle:>8}]           {instr}"),
            },
            TraceEvent::Stall { cycle, reason } => {
                format!("[{cycle:>8}]           -- stall ({reason})")
            }
            TraceEvent::BranchResolved {
                cycle,
                taken,
                target,
                remaining,
            } => format!(
                "[{cycle:>8}]           -- branch {} target {target:#x} ({remaining} slots left)",
                if *taken { "TAKEN" } else { "not taken" }
            ),
            TraceEvent::DataIssue { cycle, op } => {
                let desc = match op {
                    DataOp::Load { addr } => format!("load {addr:#x} -> LAQ"),
                    DataOp::StoreAddr { addr } => format!("store {addr:#x} -> SAQ"),
                    DataOp::StoreData { value } => format!("value {value:#x} -> SDQ"),
                };
                format!("[{cycle:>8}]           -- data {desc}")
            }
            TraceEvent::Halted { cycle } => format!("[{cycle:>8}]           -- halt"),
        };
        let _ = writeln!(self.out, "{line}");
    }
}

/// A named, half-open byte-address region of the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Display name.
    pub name: String,
    /// First byte address.
    pub start: u32,
    /// One past the last byte address.
    pub end: u32,
}

/// Attributes cycles to program regions: each `Issue`/`Stall` cycle is
/// charged to the region of the most recently issued instruction.
#[derive(Debug)]
pub struct RegionProfiler {
    regions: Vec<Region>,
    cycles: Vec<u64>,
    instructions: Vec<u64>,
    /// Cycles before any region was entered, or issued outside all
    /// regions.
    other_cycles: u64,
    current: Option<usize>,
}

impl RegionProfiler {
    /// Creates a profiler over `regions` (they may not overlap for
    /// meaningful results, but this is not checked).
    pub fn new(regions: Vec<Region>) -> RegionProfiler {
        let n = regions.len();
        RegionProfiler {
            regions,
            cycles: vec![0; n],
            instructions: vec![0; n],
            other_cycles: 0,
            current: None,
        }
    }

    fn region_of(&self, addr: u32) -> Option<usize> {
        self.regions
            .iter()
            .position(|r| (r.start..r.end).contains(&addr))
    }

    /// Per-region results as `(region, cycles, instructions)`.
    pub fn results(&self) -> impl Iterator<Item = (&Region, u64, u64)> {
        self.regions
            .iter()
            .zip(&self.cycles)
            .zip(&self.instructions)
            .map(|((r, &c), &i)| (r, c, i))
    }

    /// Cycles not attributable to any region.
    pub fn other_cycles(&self) -> u64 {
        self.other_cycles
    }

    fn charge(&mut self) {
        match self.current {
            Some(i) => self.cycles[i] += 1,
            None => self.other_cycles += 1,
        }
    }
}

impl TraceSink for RegionProfiler {
    fn event(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::Issue { addr, .. } => {
                if let Some(a) = addr {
                    self.current = self.region_of(*a);
                }
                if let Some(i) = self.current {
                    self.instructions[i] += 1;
                }
                self.charge();
            }
            TraceEvent::Stall { .. } => self.charge(),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipe_isa::Instruction;

    fn issue(cycle: u64, addr: u32) -> TraceEvent {
        TraceEvent::Issue {
            cycle,
            addr: Some(addr),
            instr: Instruction::Nop,
        }
    }

    #[test]
    fn vec_trace_collects() {
        let mut t = VecTrace::new();
        t.event(&issue(0, 0));
        t.event(&TraceEvent::Halted { cycle: 1 });
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.events()[1].cycle(), 1);
    }

    #[test]
    fn text_trace_renders() {
        let mut t = TextTrace::new(Vec::new());
        t.event(&issue(3, 0x10));
        t.event(&TraceEvent::Stall {
            cycle: 4,
            reason: StallReason::DataWait,
        });
        let text = String::from_utf8(t.into_inner()).unwrap();
        assert!(text.contains("0x000010"));
        assert!(text.contains("data-wait"));
    }

    #[test]
    fn region_profiler_attributes_cycles() {
        let mut p = RegionProfiler::new(vec![
            Region {
                name: "a".into(),
                start: 0,
                end: 0x20,
            },
            Region {
                name: "b".into(),
                start: 0x20,
                end: 0x40,
            },
        ]);
        p.event(&issue(0, 0x00)); // region a
        p.event(&TraceEvent::Stall {
            cycle: 1,
            reason: StallReason::IFetch,
        }); // still charged to a
        p.event(&issue(2, 0x24)); // region b
        p.event(&issue(3, 0x100)); // outside
        let results: Vec<_> = p
            .results()
            .map(|(r, c, i)| (r.name.clone(), c, i))
            .collect();
        assert_eq!(results[0], ("a".into(), 2, 1));
        assert_eq!(results[1], ("b".into(), 1, 1));
        assert_eq!(p.other_cycles(), 1);
    }
}
