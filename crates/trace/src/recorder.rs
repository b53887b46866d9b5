//! Recording a live simulation into a trace file.

use std::io::{self, Write};

use pipe_core::{DataOp, StallReason, TraceEvent, TraceSink};
use pipe_icache::{ReplayBranch, ReplayOp, ReplayStep};

use crate::format::{TraceMeta, TraceSummary};
use crate::writer::TraceWriter;

/// A [`TraceSink`] that converts the processor's event stream into trace
/// steps and writes them through a [`TraceWriter`] as the run proceeds.
///
/// Attach with `Processor::with_trace` (via an `Rc<RefCell<..>>` clone to
/// keep a handle), run the simulation, then call
/// [`finish`](TraceRecorder::finish) with the run's final cycle count.
/// Write errors are latched and reported by `finish` — the sink API has
/// no error channel.
#[derive(Debug)]
pub struct TraceRecorder<W: Write> {
    writer: Option<TraceWriter<W>>,
    pending: Option<ReplayStep>,
    next_waits: u32,
    ifetch_stalls: u64,
    halted: bool,
    error: Option<io::Error>,
}

impl TraceRecorder<std::io::BufWriter<std::fs::File>> {
    /// Creates a recorder writing to a buffered file at `path`.
    ///
    /// # Errors
    ///
    /// Any failure creating the file or writing the header.
    pub fn create(
        path: &std::path::Path,
        meta: &TraceMeta,
    ) -> io::Result<TraceRecorder<std::io::BufWriter<std::fs::File>>> {
        Ok(TraceRecorder::from_writer(TraceWriter::create(path, meta)?))
    }
}

impl<W: Write> TraceRecorder<W> {
    /// Creates a recorder writing the trace header for `meta` to `out`.
    ///
    /// # Errors
    ///
    /// Any write failure while emitting the header.
    pub fn new(out: W, meta: &TraceMeta) -> io::Result<TraceRecorder<W>> {
        Ok(TraceRecorder::from_writer(TraceWriter::new(out, meta)?))
    }

    fn from_writer(writer: TraceWriter<W>) -> TraceRecorder<W> {
        TraceRecorder {
            writer: Some(writer),
            pending: None,
            next_waits: 0,
            ifetch_stalls: 0,
            halted: false,
            error: None,
        }
    }

    /// `true` once a `Halted` event has been observed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    fn write(&mut self, step: &ReplayStep) {
        if self.error.is_some() {
            return;
        }
        if let Some(w) = &mut self.writer {
            if let Err(e) = w.write_step(step) {
                self.error = Some(e);
            }
        }
    }

    fn flush_pending(&mut self) {
        if let Some(step) = self.pending.take() {
            self.write(&step);
        }
    }

    /// Writes the final block and end summary. `total_cycles` is the
    /// completed run's cycle count (`SimStats::cycles`), which includes
    /// the post-halt drain the sink cannot observe.
    ///
    /// # Errors
    ///
    /// The first latched write error, or any failure while finishing.
    pub fn finish(&mut self, total_cycles: u64) -> io::Result<(W, TraceSummary)> {
        self.flush_pending();
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let writer = self
            .writer
            .take()
            .ok_or_else(|| io::Error::other("trace recorder already finished"))?;
        writer.finish(total_cycles, self.ifetch_stalls)
    }
}

impl<W: Write> TraceSink for TraceRecorder<W> {
    fn event(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::Stall { reason, .. } => {
                if *reason == StallReason::IFetch {
                    self.ifetch_stalls += 1;
                } else {
                    self.next_waits += 1;
                }
            }
            TraceEvent::Issue { addr, .. } => {
                self.flush_pending();
                self.pending = Some(ReplayStep {
                    addr: Some(*addr),
                    waits: std::mem::take(&mut self.next_waits),
                    ops: Vec::new(),
                    resolve: None,
                });
            }
            TraceEvent::DataIssue { op, .. } => {
                if let Some(step) = &mut self.pending {
                    step.ops.push(match *op {
                        DataOp::Load { addr } => ReplayOp::Load { addr },
                        DataOp::StoreAddr { addr } => ReplayOp::StoreAddr { addr },
                        DataOp::StoreData { value } => ReplayOp::StoreData { value },
                    });
                }
            }
            TraceEvent::BranchResolved {
                taken,
                target,
                remaining,
                ..
            } => {
                // Resolution always lands one cycle after the PBR issued,
                // before the next issue — so `pending` is the PBR step.
                if let Some(step) = &mut self.pending {
                    step.resolve = Some(ReplayBranch {
                        taken: *taken,
                        remaining: *remaining,
                        target: *target,
                    });
                }
            }
            TraceEvent::Halted { .. } => self.halted = true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::program_fnv;
    use crate::reader::TraceReader;
    use pipe_core::{FetchStrategy, Processor, SimConfig};
    use pipe_isa::{Assembler, InstrFormat};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn recorder_captures_a_run() {
        let program = Assembler::new(InstrFormat::Fixed32)
            .assemble(
                "lim r1, 0x100\nlim r2, 42\nsta r1, 0\nor r7, r2, r2\nldw r1, 0\n\
                 or r3, r7, r7\nhalt\n",
            )
            .expect("assembles");
        let meta = TraceMeta {
            workload: "test".into(),
            program_fnv: program_fnv(&program),
            entry_pc: program.entry(),
            fetch_key: "perfect".into(),
            mem_key: "default".into(),
        };
        let recorder = Rc::new(RefCell::new(
            TraceRecorder::new(Vec::new(), &meta).expect("creates"),
        ));
        let config = SimConfig {
            fetch: FetchStrategy::Perfect,
            ..SimConfig::default()
        };
        let proc = Processor::new(&program, &config).expect("builds");
        let mut proc = proc.with_trace(Rc::clone(&recorder));
        proc.run().expect("runs");
        let stats = proc.stats();
        let (bytes, summary) = recorder
            .borrow_mut()
            .finish(stats.cycles)
            .expect("finishes");

        assert_eq!(summary.instructions, stats.instructions_issued);
        assert_eq!(summary.cycles, stats.cycles);
        assert_eq!(summary.ifetch_stalls, stats.stalls.ifetch);

        let steps: Vec<_> = TraceReader::new(&bytes[..])
            .expect("parses")
            .collect::<Result<_, _>>()
            .expect("decodes");
        assert_eq!(steps.len() as u64, stats.instructions_issued);
        // The sta/or pair recorded a store address and a store value; the
        // ldw recorded a load.
        let ops: Vec<_> = steps.iter().flat_map(|s| s.ops.iter()).collect();
        assert!(ops
            .iter()
            .any(|o| matches!(o, ReplayOp::StoreAddr { addr: 0x100 })));
        assert!(ops
            .iter()
            .any(|o| matches!(o, ReplayOp::StoreData { value: 42 })));
        assert!(ops
            .iter()
            .any(|o| matches!(o, ReplayOp::Load { addr: 0x100 })));
        // The r7-reading `or` waited on the load.
        assert!(steps.iter().any(|s| s.waits > 0));
    }
}
