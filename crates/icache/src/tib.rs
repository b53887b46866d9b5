//! A Target Instruction Buffer (TIB) fetch engine.
//!
//! Section 2.1 of the paper discusses the TIB approach studied by Rau &
//! Rossman, Grohoski & Patel, and Hill, and used by the AMD29000 *instead
//! of* an instruction cache: a small buffer holds "the n sequential
//! instructions stored at a branch target address"; on a taken branch
//! those instructions issue from the TIB while the fetch logic streams the
//! instructions sequential to them from off-chip memory. The paper notes
//! two properties this engine lets us verify experimentally:
//!
//! * "a small TIB can provide better performance than a simple small
//!   instruction cache", and
//! * "the use of a TIB implies large amounts of off-chip accessing".
//!
//! Model: a fully-associative, LRU-replaced buffer of branch-target
//! entries (metadata only — instruction bytes come from the program
//! image), plus a sequential fetch queue continuously streamed from
//! off-chip. There is **no** instruction cache: straight-line code always
//! comes over the bus.

use pipe_isa::{Image, Program, PARCEL_BYTES};
use pipe_mem::error::{require_at_least, require_multiple_of};
use pipe_mem::{Beat, BeatSource, ConfigError, MemorySystem, ReqClass, TimingKey};

use crate::engine::{FetchEngine, Redirect, Request};
use crate::queue::ParcelQueue;
use crate::stats::FetchStats;

/// Geometry of a [`TibFetch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TibConfig {
    /// Number of target entries.
    pub entries: u32,
    /// Instruction bytes held per entry (the paper's *n*, in bytes).
    pub entry_bytes: u32,
}

impl TibConfig {
    /// A TIB with total capacity comparable to a cache of `total_bytes`.
    pub fn with_budget(total_bytes: u32, entry_bytes: u32) -> TibConfig {
        TibConfig {
            entries: (total_bytes / entry_bytes).max(1),
            entry_bytes,
        }
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for zero entries or an entry that does
    /// not hold whole parcels.
    pub fn validate(&self) -> Result<(), ConfigError> {
        require_at_least("entries", u64::from(self.entries), 1)?;
        require_multiple_of("entry_bytes", self.entry_bytes, PARCEL_BYTES)
    }

    /// Capacity of the sequential fetch queue, in bytes: one entry, and
    /// never under 16, so it always holds the longest instruction.
    pub fn fetch_queue_bytes(&self) -> u32 {
        self.entry_bytes.max(16)
    }

    /// Total instruction bytes the TIB can hold.
    pub fn total_bytes(&self) -> u32 {
        self.entries * self.entry_bytes
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TibEntry {
    target: u32,
    valid: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PendingFill {
    req: Request,
    /// Next parcel expected by the fetch queue; `None` = discard (stale).
    expect: Option<u32>,
    /// TIB entry being filled by this fetch, if any.
    tib_slot: Option<usize>,
}

/// The TIB fetch engine. See the [module docs](self).
#[derive(Debug)]
pub struct TibFetch {
    cfg: TibConfig,
    image: Image,
    state: TibState,
    stats: FetchStats,
}

/// The TIB engine's timing state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct TibState {
    entries: Vec<TibEntry>,
    /// Indices into `entries`, least recently used first.
    recency: Vec<usize>,
    fq: ParcelQueue,
    /// Next sequential parcel address not yet scheduled.
    stream_end: u32,
    pending: Option<PendingFill>,
    redirect: Redirect,
}

impl TibFetch {
    /// Creates a TIB engine over `program` with a configuration that
    /// [`FetchConfig::build`](crate::FetchConfig::build) has validated.
    pub(crate) fn new(program: &Program, cfg: TibConfig) -> TibFetch {
        let image = program.image();
        let entry = TibEntry {
            target: 0,
            valid: false,
        };
        TibFetch {
            cfg,
            state: TibState {
                entries: vec![entry; cfg.entries as usize],
                recency: (0..cfg.entries as usize).collect(),
                fq: ParcelQueue::new(&image, cfg.fetch_queue_bytes(), program.entry()),
                stream_end: program.entry(),
                pending: None,
                redirect: Redirect::default(),
            },
            image,
            stats: FetchStats::default(),
        }
    }

    /// Marks entry `i` the most recently used.
    fn touch(&mut self, i: usize) {
        let recency = &mut self.state.recency;
        let at = recency.iter().position(|&e| e == i).expect("every entry");
        recency[at..].rotate_left(1);
    }

    fn lookup(&mut self, target: u32) -> Option<usize> {
        let hit = self
            .state
            .entries
            .iter()
            .position(|e| e.valid && e.target == target);
        if let Some(i) = hit {
            self.touch(i);
        }
        hit
    }

    /// Gives `target` an entry, to be filled by the demand fetch that
    /// starts there (`supply` finds it by target): the first entry not
    /// valid, or else the least recently used one.
    fn allocate(&mut self, target: u32) {
        let state = &mut self.state;
        let victim = state.entries.iter().position(|e| !e.valid);
        let victim = victim.unwrap_or(state.recency[0]);
        state.entries[victim] = TibEntry {
            target,
            valid: false, // becomes valid when the fill completes
        };
        self.touch(victim);
    }

    fn maybe_trigger(&mut self) {
        let Some(target) = self.state.redirect.take_due() else {
            return;
        };
        self.stats.redirects += 1;
        self.stats.flushed_parcels += self.state.fq.len() as u64;
        self.state.fq.restart(target);
        // A sequential fill in flight is now wrong-path.
        if let Some(p) = &mut self.state.pending {
            if p.expect.is_some() {
                p.expect = None;
                self.stats.wasted_requests += 1;
            }
        }
        // TIB hit: the target instructions issue from the buffer while the
        // sequential stream restarts past them.
        if self.lookup(target).is_some() {
            self.stats.cache_hits += 1;
            let entry_end = target + self.cfg.entry_bytes;
            self.state.stream_end = self.state.fq.fill_from(target, entry_end);
        } else {
            self.stats.cache_misses += 1;
            self.allocate(target);
            self.state.stream_end = target;
        }
    }

    /// Keeps the sequential fetch queue streaming from off-chip.
    fn supply(&mut self) {
        if self.state.pending.is_some() {
            return;
        }
        let need = self.state.stream_end;
        if self.image.parcel_at(need).is_none() {
            return;
        }
        let chunk = self
            .cfg
            .entry_bytes
            .min(self.image.end() - need)
            .min((self.state.fq.room() as u32) * PARCEL_BYTES);
        if chunk == 0 {
            return;
        }
        // Demand when the decoder is starved, prefetch otherwise.
        let class = if self.state.fq.needs_refill() {
            ReqClass::IFetch
        } else {
            ReqClass::IPrefetch
        };
        // If this fetch starts at a freshly-allocated TIB target, it also
        // fills that entry.
        let tib_slot = self
            .state
            .entries
            .iter()
            .position(|e| !e.valid && e.target == need);
        self.state.pending = Some(PendingFill {
            req: Request::new(class, need, chunk),
            expect: Some(need),
            tib_slot,
        });
        self.state.stream_end = need + chunk;
    }
}

impl FetchEngine for TibFetch {
    fn offer_requests(&mut self, mem: &mut MemorySystem) {
        self.maybe_trigger();
        self.supply();
        if let Some(p) = &mut self.state.pending {
            if !p.req.accepted() {
                // Upgrade to demand if the decoder has starved meanwhile.
                if self.state.fq.needs_refill() {
                    p.req.class = ReqClass::IFetch;
                }
                p.req.offer(mem);
            }
        }
    }

    fn on_accepted(&mut self, class: ReqClass) {
        let p = self.state.pending.as_mut();
        let p = p.expect("memory accepted a request never offered");
        p.req.accept(class, &mut self.stats);
    }

    fn on_beat(&mut self, beat: &Beat) {
        debug_assert!(matches!(
            beat.source,
            BeatSource::IFetch | BeatSource::IPrefetch
        ));
        let mut p = self.state.pending.expect("beat without a request");
        p.req.receive(beat);
        if let Some(expect) = p.expect {
            let beat_end = beat.addr + beat.bytes;
            let mut a = expect.max(beat.addr);
            while a < beat_end {
                if self.state.fq.room() == 0 {
                    // Queue full: the remainder re-fetches later.
                    p.expect = None;
                    self.state.stream_end = a;
                    break;
                }
                self.state.fq.push(a);
                a += PARCEL_BYTES;
                if p.expect.is_some() {
                    p.expect = Some(a);
                }
            }
        }
        if beat.last {
            if let Some(slot) = p.tib_slot {
                self.state.entries[slot].valid = true;
            }
            self.state.pending = None;
        } else {
            self.state.pending = Some(p);
        }
    }

    fn advance(&mut self) {
        self.maybe_trigger();
        self.supply();
    }

    fn peek_index(&self) -> Option<usize> {
        self.state.fq.head_index()
    }

    fn consume(&mut self) {
        self.state
            .fq
            .pop_instruction()
            .expect("consume without available instruction");
        self.stats.instructions_delivered += 1;
        self.state.redirect.delivered();
        self.maybe_trigger();
    }

    fn resolve_branch(&mut self, taken: bool, remaining: u32, target: u32) {
        self.state.redirect.resolve(taken, remaining, target);
        self.maybe_trigger();
    }

    fn outstanding(&self) -> usize {
        usize::from(self.state.pending.is_some())
    }

    fn describe_timing(&self, key: &mut TimingKey) {
        key.add(&self.state);
    }

    fn add_stats(&mut self, delta: &FetchStats) {
        self.stats.add(delta);
    }

    fn stats(&self) -> &FetchStats {
        &self.stats
    }

    fn name(&self) -> &'static str {
        "tib"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::cycle;
    use pipe_isa::{Assembler, InstrFormat};
    use pipe_mem::MemConfig;

    fn program() -> Program {
        Assembler::new(InstrFormat::Fixed32)
            .assemble(
                "lim r1, 3\nlbr b0, top\ntop: subi r1, r1, 1\nnop\npbr.nez b0, r1, 1\nnop\nhalt\n",
            )
            .unwrap()
    }

    fn mem(access: u32) -> MemorySystem {
        MemorySystem::new(MemConfig {
            access_cycles: access,
            in_bus_bytes: 8,
            ..MemConfig::default()
        })
    }

    #[test]
    fn config_budget() {
        let c = TibConfig::with_budget(64, 16);
        assert_eq!(c.entries, 4);
        assert_eq!(c.total_bytes(), 64);
        assert!(c.validate().is_ok());
        assert!(TibConfig {
            entries: 0,
            entry_bytes: 16,
        }
        .validate()
        .is_err());
        // The fetch queue holds an entry, and at least 16 bytes.
        assert_eq!(TibConfig::with_budget(64, 4).fetch_queue_bytes(), 16);
        assert_eq!(TibConfig::with_budget(64, 32).fetch_queue_bytes(), 32);
    }

    #[test]
    fn sequential_code_streams_from_memory() {
        let p = program();
        let mut f = TibFetch::new(&p, TibConfig::with_budget(64, 16));
        let mut m = mem(1);
        let mut consumed = 0;
        for _ in 0..40 {
            if cycle(&mut f, &mut m) {
                consumed += 1;
            }
        }
        assert_eq!(consumed, 7, "the whole 7-instruction image streams through");
        assert!(f.stats().total_requests() >= 2, "everything comes off-chip");
    }

    #[test]
    fn taken_branch_misses_then_hits() {
        let p = program();
        let top = p.symbols()["top"];
        let mut f = TibFetch::new(&p, TibConfig::with_budget(64, 16));
        let mut m = mem(1);
        // Issue through the first pbr's delay slot.
        let mut issued = 0;
        for _ in 0..40 {
            if cycle(&mut f, &mut m) {
                issued += 1;
            }
            if issued == 5 {
                break;
            }
        }
        // First taken branch: TIB miss, entry allocated + filled.
        f.resolve_branch(true, 0, top);
        assert_eq!(f.stats().cache_misses, 1);
        for _ in 0..20 {
            if f.stats().instructions_delivered >= 8 {
                break;
            }
            cycle(&mut f, &mut m);
        }
        // Second taken branch to the same target: TIB hit.
        f.resolve_branch(true, 0, top);
        assert_eq!(f.stats().cache_hits, 1, "{:?}", f.stats());
        // Target instructions are immediately available from the buffer.
        f.advance();
        assert!(f.peek_index().is_some());
    }

    #[test]
    fn timing_key_holds_the_lru_order_not_the_stamps() {
        let p = program();
        let key = |uses: &[u32]| {
            let mut f = TibFetch::new(&p, TibConfig::with_budget(32, 16));
            f.state.entries = vec![
                TibEntry {
                    target: 0x8,
                    valid: true,
                },
                TibEntry {
                    target: 0x10,
                    valid: true,
                },
            ];
            for &target in uses {
                f.lookup(target).expect("a valid entry");
            }
            let mut key = TimingKey::default();
            f.describe_timing(&mut key);
            key
        };
        // Replacement reads only the order of the last uses.
        assert_eq!(key(&[0x8, 0x10]), key(&[0x10, 0x8, 0x8, 0x10]));
        assert_ne!(key(&[0x8, 0x10]), key(&[0x10, 0x8]));
    }

    #[test]
    fn lru_replacement() {
        let p = Assembler::new(InstrFormat::Fixed32)
            .assemble("nop\nnop\nnop\nnop\nnop\nnop\nnop\nnop\nhalt\n")
            .unwrap();
        // One entry: a second target evicts the first.
        let mut f = TibFetch::new(
            &p,
            TibConfig {
                entries: 1,
                entry_bytes: 8,
            },
        );
        let mut m = mem(1);
        for _ in 0..4 {
            cycle(&mut f, &mut m);
        }
        f.resolve_branch(true, 0, 0x8); // miss, fill
        for _ in 0..10 {
            cycle(&mut f, &mut m);
        }
        f.resolve_branch(true, 0, 0x10); // miss, evicts 0x8
        for _ in 0..10 {
            cycle(&mut f, &mut m);
        }
        f.resolve_branch(true, 0, 0x8); // miss again (evicted)
        assert_eq!(f.stats().cache_misses, 3);
        assert_eq!(f.stats().cache_hits, 0);
    }
}
