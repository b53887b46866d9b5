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
use pipe_mem::{Beat, BeatSource, ConfigError, MemorySystem, ReqClass};

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
    /// Capacity of the sequential fetch queue, in bytes.
    pub fetch_queue_bytes: u32,
}

impl TibConfig {
    /// A TIB with total capacity comparable to a cache of `total_bytes`.
    pub fn with_budget(total_bytes: u32, entry_bytes: u32) -> TibConfig {
        TibConfig {
            entries: (total_bytes / entry_bytes).max(1),
            entry_bytes,
            fetch_queue_bytes: entry_bytes.max(16),
        }
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for zero entries, invalid sizes, or a
    /// fetch queue too small for the longest (two-parcel) instruction.
    pub fn validate(&self) -> Result<(), ConfigError> {
        require_at_least("entries", u64::from(self.entries), 1)?;
        require_multiple_of("entry_bytes", self.entry_bytes, PARCEL_BYTES)?;
        require_multiple_of("fetch_queue_bytes", self.fetch_queue_bytes, PARCEL_BYTES)?;
        require_at_least(
            "fetch_queue_bytes",
            u64::from(self.fetch_queue_bytes),
            2 * u64::from(PARCEL_BYTES),
        )
    }

    /// Total instruction bytes the TIB can hold.
    pub fn total_bytes(&self) -> u32 {
        self.entries * self.entry_bytes
    }
}

#[derive(Debug, Clone, Copy)]
struct TibEntry {
    target: u32,
    valid: bool,
    last_use: u64,
}

#[derive(Debug, Clone, Copy)]
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
    entries: Vec<TibEntry>,
    fq: ParcelQueue,
    /// Next sequential parcel address not yet scheduled.
    stream_end: u32,
    pending: Option<PendingFill>,
    redirect: Redirect,
    use_clock: u64,
    stats: FetchStats,
}

impl TibFetch {
    /// Creates a TIB engine over `program` with a configuration that
    /// [`FetchConfig::build`](crate::FetchConfig::build) has validated.
    pub(crate) fn new(program: &Program, cfg: TibConfig) -> TibFetch {
        let image = program.image();
        TibFetch {
            cfg,
            entries: vec![
                TibEntry {
                    target: 0,
                    valid: false,
                    last_use: 0,
                };
                cfg.entries as usize
            ],
            fq: ParcelQueue::new(&image, cfg.fetch_queue_bytes),
            image,
            stream_end: program.entry(),
            pending: None,
            redirect: Redirect::default(),
            use_clock: 0,
            stats: FetchStats::default(),
        }
    }

    fn lookup(&mut self, target: u32) -> Option<usize> {
        let hit = self
            .entries
            .iter()
            .position(|e| e.valid && e.target == target);
        if let Some(i) = hit {
            self.use_clock += 1;
            self.entries[i].last_use = self.use_clock;
        }
        hit
    }

    /// Gives `target` the least recently used entry, to be filled by the
    /// demand fetch that starts there (`supply` finds it by target).
    fn allocate(&mut self, target: u32) {
        let victim = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| if e.valid { e.last_use } else { 0 })
            .map(|(i, _)| i)
            .expect("at least one entry");
        self.use_clock += 1;
        self.entries[victim] = TibEntry {
            target,
            valid: false, // becomes valid when the fill completes
            last_use: self.use_clock,
        };
    }

    fn maybe_trigger(&mut self) {
        let Some(target) = self.redirect.take_due() else {
            return;
        };
        self.stats.redirects += 1;
        self.stats.flushed_parcels += self.fq.len() as u64;
        self.fq.restart(target);
        // A sequential fill in flight is now wrong-path.
        if let Some(p) = &mut self.pending {
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
            self.stream_end = self.fq.fill_from(target, entry_end);
        } else {
            self.stats.cache_misses += 1;
            self.allocate(target);
            self.stream_end = target;
        }
    }

    /// Keeps the sequential fetch queue streaming from off-chip.
    fn supply(&mut self) {
        if self.pending.is_some() {
            return;
        }
        let need = self.stream_end;
        if self.image.parcel_at(need).is_none() {
            return;
        }
        let chunk = self
            .cfg
            .entry_bytes
            .min(self.image.end() - need)
            .min((self.fq.room() as u32) * PARCEL_BYTES);
        if chunk == 0 {
            return;
        }
        // Demand when the decoder is starved, prefetch otherwise.
        let class = if self.fq.needs_refill() {
            ReqClass::IFetch
        } else {
            ReqClass::IPrefetch
        };
        // If this fetch starts at a freshly-allocated TIB target, it also
        // fills that entry.
        let tib_slot = self
            .entries
            .iter()
            .position(|e| !e.valid && e.target == need);
        self.pending = Some(PendingFill {
            req: Request::new(class, need, chunk),
            expect: Some(need),
            tib_slot,
        });
        self.stream_end = need + chunk;
    }
}

impl FetchEngine for TibFetch {
    fn offer_requests(&mut self, mem: &mut MemorySystem) {
        self.maybe_trigger();
        self.supply();
        if let Some(p) = &mut self.pending {
            if !p.req.accepted {
                // Upgrade to demand if the decoder has starved meanwhile.
                if self.fq.needs_refill() {
                    p.req.class = ReqClass::IFetch;
                }
                p.req.offer(mem);
            }
        }
    }

    fn on_accepted(&mut self, tag: u64) {
        if let Some(p) = &mut self.pending {
            p.req.accept(tag, &mut self.stats);
        }
    }

    fn on_beat(&mut self, beat: &Beat) {
        debug_assert!(matches!(
            beat.source,
            BeatSource::IFetch | BeatSource::IPrefetch
        ));
        let Some(mut p) = self.pending else { return };
        if p.req.tag != beat.tag {
            return;
        }
        if let Some(expect) = p.expect {
            let beat_end = beat.addr + beat.bytes;
            let mut a = expect.max(beat.addr);
            while a < beat_end {
                if self.fq.room() == 0 {
                    // Queue full: the remainder re-fetches later.
                    p.expect = None;
                    self.stream_end = a;
                    break;
                }
                self.fq.push(a);
                a += PARCEL_BYTES;
                if p.expect.is_some() {
                    p.expect = Some(a);
                }
            }
        }
        if beat.last {
            if let Some(slot) = p.tib_slot {
                self.entries[slot].valid = true;
            }
            self.pending = None;
        } else {
            self.pending = Some(p);
        }
    }

    fn advance(&mut self) {
        self.maybe_trigger();
        self.supply();
    }

    fn peek_index(&self) -> Option<usize> {
        self.fq.head_index()
    }

    fn consume(&mut self) {
        self.fq
            .pop_instruction()
            .expect("consume without available instruction");
        self.stats.instructions_delivered += 1;
        self.redirect.delivered();
        self.maybe_trigger();
    }

    fn resolve_branch(&mut self, taken: bool, remaining: u32, target: u32) {
        self.redirect.resolve(taken, remaining, target);
        self.maybe_trigger();
    }

    fn has_outstanding(&self) -> bool {
        self.pending.is_some()
    }

    fn describe_timing(&self, key: &mut Vec<u64>, next_tag: u64) {
        // Replacement reads only the order of the use stamps, so each
        // entry's stamp is described by its rank. The fetch queue is a
        // window onto the image: its head address and length describe it.
        for e in &self.entries {
            let rank = self
                .entries
                .iter()
                .filter(|other| other.last_use < e.last_use)
                .count();
            key.extend([u64::from(e.target), u64::from(e.valid), rank as u64]);
        }
        key.extend([
            u64::from(self.fq.front_addr()),
            self.fq.len() as u64,
            u64::from(self.stream_end),
        ]);
        match &self.pending {
            Some(p) => {
                key.push(1);
                p.req.describe(key, next_tag);
                key.extend([
                    p.expect.map_or(0, |a| 1 + u64::from(a)),
                    p.tib_slot.map_or(0, |slot| 1 + slot as u64),
                ]);
            }
            None => key.push(0),
        }
        self.redirect.describe(key);
    }

    fn shift_timing(&mut self, tags: u64, stats: &FetchStats) {
        if let Some(p) = &mut self.pending {
            p.req.shift(tags);
        }
        self.stats.add(stats);
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

    fn cycle(f: &mut TibFetch, m: &mut MemorySystem) -> bool {
        f.offer_requests(m);
        let out = m.tick();
        if let Some(t) = out.accepted {
            f.on_accepted(t);
        }
        if let Some(b) = &out.beats {
            if matches!(b.source, BeatSource::IFetch | BeatSource::IPrefetch) {
                f.on_beat(b);
            }
        }
        f.advance();
        if f.peek_index().is_some() {
            f.consume();
            true
        } else {
            false
        }
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
            fetch_queue_bytes: 16
        }
        .validate()
        .is_err());
        // One parcel of fetch queue can never hold a two-parcel
        // instruction: the decoder would wait forever.
        assert_eq!(
            TibConfig {
                entries: 4,
                entry_bytes: 16,
                fetch_queue_bytes: 2
            }
            .validate(),
            Err(ConfigError::TooSmall {
                field: "fetch_queue_bytes",
                value: 2,
                min: 4
            })
        );
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
        let key = |stamps: [u64; 2]| {
            let mut f = TibFetch::new(&p, TibConfig::with_budget(32, 16));
            for (e, (target, last_use)) in f
                .entries
                .iter_mut()
                .zip([(0x8, stamps[0]), (0x10, stamps[1])])
            {
                *e = TibEntry {
                    target,
                    valid: true,
                    last_use,
                };
            }
            let mut key = Vec::new();
            f.describe_timing(&mut key, 1);
            key
        };
        // Replacement reads only the order of the stamps.
        assert_eq!(key([1, 2]), key([7, 40]));
        assert_ne!(key([1, 2]), key([2, 1]));
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
                fetch_queue_bytes: 16,
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
