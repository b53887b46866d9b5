//! The PIPE instruction-fetch strategy: cache + IQ + IQB (paper §4.2).
//!
//! Two line-sized queues sit between the instruction cache and the decoder:
//!
//! * The **IQ** feeds the decoder. When it cannot supply a complete
//!   instruction it refills from the IQB, from the cache (same cycle — the
//!   cache array read completes within the cycle, as in the conventional
//!   model), or, on a miss, from off-chip with a demand line fetch.
//! * The **IQB** prefetches the next sequential line whenever it is empty.
//!   Because the PIPE ISA identifies branches with a single opcode bit, the
//!   fetch logic can scan the IQ for prepare-to-branch instructions; under
//!   [`PrefetchPolicy::GuaranteedOnly`] an off-chip prefetch is issued only
//!   when no unresolved branch precedes it (the real chip's rule), while
//!   [`PrefetchPolicy::TruePrefetch`] — the paper's presented assumption —
//!   always allows it.
//! * When a prepare-to-branch resolves *taken*, the engine immediately
//!   begins filling the IQB from the branch target (cache, or off-chip)
//!   while the delay slots drain from the IQ, so an on-chip target causes
//!   no supply gap and an off-chip target's fetch starts several cycles
//!   early.
//!
//! Off-chip fetches are whole (aligned) cache lines; beats stream into the
//! cache and the destination queue as they arrive, so wide buses help even
//! within a single line fill.

use pipe_isa::encode::parcel_is_branch;
use pipe_isa::{Image, Program, PARCEL_BYTES};
use pipe_mem::error::{require_at_least, require_multiple_of};
use pipe_mem::{Beat, BeatSource, ConfigError, MemorySystem, ReqClass};

use crate::cache::{CacheConfig, InstructionCache};
use crate::engine::{FetchEngine, Redirect, Request};
use crate::queue::ParcelQueue;
use crate::stats::FetchStats;

/// Off-chip prefetch gating policy (paper §6, second paragraph).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PrefetchPolicy {
    /// Speculative off-chip prefetch is always allowed — the assumption
    /// under which all of the paper's presented results were produced.
    #[default]
    TruePrefetch,
    /// Off-chip requests are issued only for lines guaranteed to contain an
    /// executed instruction (no unresolved branch ahead of them) — the
    /// strategy actually implemented in the PIPE chip, which the paper
    /// found non-optimal for a stand-alone processor.
    GuaranteedOnly,
}

impl std::fmt::Display for PrefetchPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrefetchPolicy::TruePrefetch => f.write_str("true-prefetch"),
            PrefetchPolicy::GuaranteedOnly => f.write_str("guaranteed-only"),
        }
    }
}

/// Configuration of the PIPE fetch unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipeFetchConfig {
    /// Instruction cache geometry.
    pub cache: CacheConfig,
    /// Instruction queue capacity in bytes (a cache line in the real chip;
    /// Table II also evaluates a 16-byte IQ with 32-byte lines).
    pub iq_bytes: u32,
    /// Instruction queue buffer capacity in bytes.
    pub iqb_bytes: u32,
    /// Off-chip prefetch gating.
    pub policy: PrefetchPolicy,
    /// When `true`, off-chip fetches request only the needed tail of a
    /// line (`[needed parcel, line end)`) instead of the whole aligned
    /// line; the sub-block valid bits track the partial fill. A design
    /// study beyond the paper (which always fetches whole lines).
    pub partial_lines: bool,
}

impl PipeFetchConfig {
    /// A Table II configuration: cache size, line size, IQ and IQB sizes,
    /// with the paper's true-prefetch policy and whole-line fetches.
    pub fn table2(cache_bytes: u32, line_bytes: u32, iq_bytes: u32, iqb_bytes: u32) -> Self {
        PipeFetchConfig {
            cache: CacheConfig::new(cache_bytes, line_bytes),
            iq_bytes,
            iqb_bytes,
            policy: PrefetchPolicy::TruePrefetch,
            partial_lines: false,
        }
    }

    /// Validates geometry and queue sizes.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for invalid cache geometry, zero/odd
    /// queue sizes, or an IQ too small for the longest (two-parcel)
    /// instruction, which the decoder could then never see whole.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.cache.validate()?;
        require_multiple_of("iq_bytes", self.iq_bytes, PARCEL_BYTES)?;
        require_at_least(
            "iq_bytes",
            u64::from(self.iq_bytes),
            2 * u64::from(PARCEL_BYTES),
        )?;
        require_multiple_of("iqb_bytes", self.iqb_bytes, PARCEL_BYTES)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dest {
    /// Demand fill streaming into the IQ (overflow spills into the IQB).
    Iq,
    /// Fill streaming into the IQB (sequential prefetch or branch target).
    Iqb,
    /// Stale fill: only the cache receives the beats.
    CacheOnly,
}

#[derive(Debug, Clone, Copy)]
struct PendingFill {
    req: Request,
    /// Next parcel address expected by the destination queue; beats below
    /// this fill only the cache.
    expect: u32,
    dest: Dest,
}

/// Branch-target preparation between resolution and redirect.
#[derive(Debug, Clone, Copy)]
struct Prep {
    target: u32,
    /// End of the target-stream parcels scheduled so far (in the IQB or a
    /// pending fill).
    end: u32,
}

/// The PIPE fetch unit: instruction cache, IQ, and IQB.
#[derive(Debug)]
pub struct PipeFetch {
    cfg: PipeFetchConfig,
    image: Image,
    cache: InstructionCache,
    iq: ParcelQueue,
    iqb: ParcelQueue,
    /// Next sequential parcel address not yet scheduled into a queue or
    /// pending fill (tail of the committed stream).
    stream_end: u32,
    pendings: Vec<PendingFill>,
    /// Set between a taken resolution and its redirect trigger; while set,
    /// the IQB belongs to the target stream.
    prep: Option<Prep>,
    redirect: Redirect,
    /// A consumed PBR whose outcome has not yet been reported.
    unresolved_pbr: bool,
    /// Set when the supply pass last ran to a fixpoint: re-running it
    /// before the next external event (acceptance, beat, consume, branch
    /// resolution) is provably a no-op, so [`run_supply`](Self::run_supply)
    /// skips it. Purely an optimization — behavior is identical.
    settled: bool,
    stats: FetchStats,
}

impl PipeFetch {
    /// Creates a PIPE fetch unit over `program` with a configuration that
    /// [`FetchConfig::build`](crate::FetchConfig::build) has validated.
    pub(crate) fn new(program: &Program, cfg: PipeFetchConfig) -> PipeFetch {
        let image = program.image();
        PipeFetch {
            cfg,
            cache: InstructionCache::new(cfg.cache),
            iq: ParcelQueue::new(&image, cfg.iq_bytes),
            iqb: ParcelQueue::new(&image, cfg.iqb_bytes),
            image,
            stream_end: program.entry(),
            pendings: Vec::new(),
            prep: None,
            redirect: Redirect::default(),
            unresolved_pbr: false,
            settled: false,
            stats: FetchStats::default(),
        }
    }

    fn line_end(&self, addr: u32) -> u32 {
        self.cfg.cache.line_base(addr) + self.cfg.cache.line_bytes
    }

    fn has_pending(&self, dest: Dest) -> bool {
        self.pendings.iter().any(|p| p.dest == dest)
    }

    /// Schedules an off-chip fill of class `class` for the parcel at
    /// `need`, streaming into `dest`: the whole aligned line, or just its
    /// tail under `partial_lines`.
    fn start_fill(&mut self, class: ReqClass, need: u32, dest: Dest) {
        let (addr, bytes) = if self.cfg.partial_lines {
            (need, self.line_end(need) - need)
        } else {
            (self.cfg.cache.line_base(need), self.cfg.cache.line_bytes)
        };
        self.pendings.push(PendingFill {
            req: Request::new(class, addr, bytes),
            expect: need,
            dest,
        });
    }

    /// Starts branch-target preparation once "all the instructions
    /// guaranteed to execute [have passed] into the IQ" (paper §4.2): the
    /// IQB is repurposed for the target stream while the delay slots drain.
    fn try_start_prep(&mut self) {
        let Some((remaining, target)) = self.redirect.pending() else {
            return;
        };
        if self.prep.is_some() {
            return;
        }
        if self.iq.complete_instructions() < remaining {
            return; // delay slots still arriving on the sequential path
        }

        // Discard the sequential IQB contents (beyond the redirect point)
        // and retarget in-flight IQB fills at the cache only.
        self.stats.flushed_parcels += self.iqb.len() as u64;
        self.iqb.restart(target);
        for p in &mut self.pendings {
            if p.dest == Dest::Iqb {
                p.dest = Dest::CacheOnly;
                self.stats.wasted_requests += 1;
            }
        }

        // Begin fetching the target line (cache or off-chip).
        let mut prep = Prep {
            target,
            end: target,
        };
        if self.image.parcel_at(target).is_some() {
            let chunk_end = self.line_end(target).min(self.image.end());
            if self.cache.contains(target, chunk_end - target) {
                self.stats.cache_hits += 1;
                prep.end = self.iqb.fill_from(target, chunk_end);
            } else {
                self.stats.cache_misses += 1;
                // The branch has resolved taken: the target is guaranteed,
                // so this is a demand fetch, not a prefetch.
                self.start_fill(ReqClass::IFetch, target, Dest::Iqb);
                prep.end = self.line_end(target);
            }
        }
        self.prep = Some(prep);
    }

    /// Schedules supply for the IQ: transfer from IQB, copy from cache, or
    /// start a demand line fetch.
    fn supply_iq(&mut self) {
        // Move from the (sequential-stream) IQB first.
        if self.prep.is_none() && !self.iqb.is_empty() {
            let room = self.iq.room();
            self.iq.take_from(&mut self.iqb, room);
            if !self.iq.needs_refill() {
                return;
            }
        }
        if !self.iq.needs_refill() {
            return;
        }
        // While the IQB is preparing the branch target, the delay slots are
        // already in the IQ (prep precondition): no sequential refill.
        if self.prep.is_some() {
            return;
        }
        // A fill already streaming toward the IQ (or into the sequential
        // IQB) will deliver the parcels we need.
        if self.has_pending(Dest::Iq) || self.has_pending(Dest::Iqb) {
            return;
        }
        // The stream front is `stream_end` (nothing scheduled beyond the
        // queues). Past the image end there is nothing to fetch.
        let need = self.stream_end;
        if self.image.parcel_at(need).is_none() {
            return;
        }
        let chunk_end = self.line_end(need).min(self.image.end());
        if self.cache.contains(need, chunk_end - need) {
            self.stats.cache_hits += 1;
            self.stream_end = self.iq.fill_from(need, chunk_end);
        } else {
            self.stats.cache_misses += 1;
            self.start_fill(ReqClass::IFetch, need, Dest::Iq);
            self.stream_end = self.line_end(need);
        }
    }

    /// Schedules the IQB's next-sequential-line prefetch.
    fn supply_iqb(&mut self) {
        if self.prep.is_some() || self.redirect.pending().is_some() {
            return; // the IQB belongs to (or will belong to) the target
        }
        if !self.iqb.is_empty() || self.has_pending(Dest::Iqb) || self.has_pending(Dest::Iq) {
            return;
        }
        let need = self.stream_end;
        if self.image.parcel_at(need).is_none() {
            return;
        }
        let chunk_end = self.line_end(need).min(self.image.end());
        if self.cache.contains(need, chunk_end - need) {
            self.stats.cache_hits += 1;
            self.stream_end = self.iqb.fill_from(need, chunk_end);
        } else {
            self.stats.cache_misses += 1;
            // Off-chip prefetch: gated under the guaranteed-only policy by
            // the single-bit branch scan of the IQ and any PBR in flight.
            if self.cfg.policy == PrefetchPolicy::GuaranteedOnly
                && (self.unresolved_pbr || self.iq.contains_branch())
            {
                return;
            }
            self.start_fill(ReqClass::IPrefetch, need, Dest::Iqb);
            self.stream_end = self.line_end(need);
        }
    }

    /// Fingerprint of everything the supply pass can mutate. Equal stamps
    /// before and after a pass mean it reached a fixpoint: since the pass
    /// is a pure function of engine state, it stays a no-op until the next
    /// external event. The statistics counters are monotonic, so their sum
    /// detects paths that mutate nothing else (the guaranteed-only probe
    /// counts a cache miss every cycle it stays blocked).
    #[allow(clippy::type_complexity)]
    fn supply_stamp(
        &self,
    ) -> (
        usize,
        u32,
        usize,
        u32,
        u32,
        usize,
        Redirect,
        Option<(u32, u32)>,
        u64,
    ) {
        (
            self.iq.len(),
            self.iq.end_addr(),
            self.iqb.len(),
            self.iqb.end_addr(),
            self.stream_end,
            self.pendings.len(),
            self.redirect,
            self.prep.map(|p| (p.target, p.end)),
            self.stats.cache_hits
                + self.stats.cache_misses
                + self.stats.wasted_requests
                + self.stats.flushed_parcels
                + self.stats.redirects,
        )
    }

    /// Runs the trigger/prep/supply pass to its next step, skipping it
    /// entirely while the engine is settled (the previous pass changed
    /// nothing and no external event has occurred since).
    fn run_supply(&mut self) {
        if self.settled {
            return;
        }
        let before = self.supply_stamp();
        self.maybe_trigger();
        self.try_start_prep();
        self.supply_iq();
        self.supply_iqb();
        self.settled = self.supply_stamp() == before;
    }

    fn maybe_trigger(&mut self) {
        let Some(target) = self.redirect.take_due() else {
            return;
        };
        self.stats.redirects += 1;
        self.stats.flushed_parcels += self.iq.len() as u64;
        self.iq.restart(target);
        // Any fill still heading for the IQ carries dead sequential-path
        // parcels: keep filling the cache only.
        for p in &mut self.pendings {
            if p.dest == Dest::Iq {
                p.dest = Dest::CacheOnly;
                self.stats.wasted_requests += 1;
            }
        }
        match self.prep.take() {
            Some(prep) => {
                debug_assert_eq!(prep.target, target);
                // The IQB holds (or is receiving) the target stream; it now
                // becomes the sequential stream.
                self.stream_end = prep.end;
            }
            None => {
                // No preparation happened (e.g. zero-delay resolve in the
                // same call); restart cleanly at the target.
                self.stats.flushed_parcels += self.iqb.len() as u64;
                self.iqb.restart(target);
                for p in &mut self.pendings {
                    if p.dest == Dest::Iqb {
                        p.dest = Dest::CacheOnly;
                        self.stats.wasted_requests += 1;
                    }
                }
                self.stream_end = target;
            }
        }
    }
}

impl FetchEngine for PipeFetch {
    fn offer_requests(&mut self, mem: &mut MemorySystem) {
        // Run the supply logic here as well as in `advance` so that a fill
        // decided this cycle is offered this cycle (the logic is idempotent
        // — guarded by queue state and pending fills).
        self.run_supply();

        if self.pendings.is_empty() {
            return;
        }
        let mut offered_demand = false;
        let mut offered_prefetch = false;
        for p in &mut self.pendings {
            if p.req.accepted {
                continue;
            }
            let slot = match p.req.class {
                ReqClass::IFetch => &mut offered_demand,
                _ => &mut offered_prefetch,
            };
            if *slot {
                continue; // one offer per port per cycle
            }
            *slot = true;
            p.req.offer(mem);
        }
    }

    fn on_accepted(&mut self, tag: u64) {
        self.settled = false;
        for p in &mut self.pendings {
            if p.req.accept(tag, &mut self.stats) {
                return;
            }
        }
    }

    fn on_beat(&mut self, beat: &Beat) {
        self.settled = false;
        debug_assert!(matches!(
            beat.source,
            BeatSource::IFetch | BeatSource::IPrefetch
        ));
        let Some(idx) = self
            .pendings
            .iter()
            .position(|p| p.req.tag == beat.tag && p.req.accepted)
        else {
            return;
        };
        self.cache.fill(beat.addr, beat.bytes);

        // Queue the parcels at/after the expected address.
        let mut p = self.pendings[idx];
        let beat_end = beat.addr + beat.bytes;
        let mut a = p.expect.max(beat.addr);
        while a < beat_end && p.dest != Dest::CacheOnly {
            let q = match p.dest {
                Dest::Iq => {
                    if self.prep.is_none() && !self.iqb.is_empty() {
                        // This fill already spilled into the IQB: keep the
                        // stream contiguous there (pushing back into the
                        // IQ would leave a gap between the queues).
                        if self.iqb.room() > 0 {
                            &mut self.iqb
                        } else {
                            break;
                        }
                    } else if self.iq.room() > 0 {
                        &mut self.iq
                    } else if self.prep.is_none() && self.iqb.room() > 0 {
                        // Demand line larger than the IQ: spill the excess
                        // into the sequential IQB (the 16-32 configuration).
                        &mut self.iqb
                    } else {
                        break;
                    }
                }
                Dest::Iqb => {
                    if self.iqb.room() > 0 {
                        &mut self.iqb
                    } else {
                        break;
                    }
                }
                Dest::CacheOnly => unreachable!(),
            };
            q.push(a);
            a += PARCEL_BYTES;
            p.expect = a;
        }
        if a < beat_end && p.dest != Dest::CacheOnly {
            // Overflow: the rest of this line cannot be queued. It stays in
            // the cache; rewind the scheduled stream so a later refill
            // re-reads it from there.
            match (p.dest, self.prep.as_mut()) {
                (Dest::Iqb, Some(prep)) => prep.end = a,
                _ => self.stream_end = a,
            }
            p.dest = Dest::CacheOnly;
        }
        self.pendings[idx] = p;
        if beat.last {
            self.pendings.remove(idx);
        }
    }

    fn advance(&mut self) {
        self.run_supply();
    }

    fn peek_index(&self) -> Option<usize> {
        self.iq.head_index()
    }

    fn consume(&mut self) {
        self.settled = false;
        let first = self
            .iq
            .pop_instruction()
            .expect("consume without available instruction");
        if parcel_is_branch(first) {
            self.unresolved_pbr = true;
        }
        self.stats.instructions_delivered += 1;
        self.redirect.delivered();
        self.maybe_trigger();
        self.try_start_prep();
    }

    fn resolve_branch(&mut self, taken: bool, remaining: u32, target: u32) {
        self.settled = false;
        self.unresolved_pbr = false;
        if !taken {
            return;
        }
        self.redirect.resolve(taken, remaining, target);
        // Target preparation starts (in `try_start_prep`) once the delay
        // slots have all passed into the IQ; a zero-delay resolve triggers
        // the redirect immediately.
        self.try_start_prep();
        self.maybe_trigger();
    }

    fn has_outstanding(&self) -> bool {
        !self.pendings.is_empty()
    }

    fn describe_timing(&self, key: &mut Vec<u64>, next_tag: u64) {
        // A queue is a window onto the image: its head address and length
        // describe it.
        self.cache.describe(key);
        key.extend([
            u64::from(self.iq.front_addr()),
            self.iq.len() as u64,
            u64::from(self.iqb.front_addr()),
            self.iqb.len() as u64,
            u64::from(self.stream_end),
            u64::from(self.unresolved_pbr),
            u64::from(self.settled),
        ]);
        match self.prep {
            Some(p) => key.extend([1, u64::from(p.target), u64::from(p.end)]),
            None => key.push(0),
        }
        self.redirect.describe(key);
        key.push(self.pendings.len() as u64);
        for p in &self.pendings {
            p.req.describe(key, next_tag);
            key.extend([u64::from(p.expect), p.dest as u64]);
        }
    }

    fn shift_timing(&mut self, tags: u64, stats: &FetchStats) {
        for p in &mut self.pendings {
            p.req.shift(tags);
        }
        self.stats.add(stats);
    }

    fn stats(&self) -> &FetchStats {
        &self.stats
    }

    fn name(&self) -> &'static str {
        "pipe"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipe_isa::{Assembler, InstrFormat, Program};
    use pipe_mem::MemConfig;

    fn program() -> Program {
        Assembler::new(InstrFormat::Fixed32)
            .assemble(
                "lim r1, 3\nlbr b0, top\ntop: subi r1, r1, 1\nnop\nnop\npbr.nez b0, r1, 2\nnop\nnop\nhalt\n",
            )
            .unwrap()
    }

    fn mem(access: u32, in_bus: u32) -> MemorySystem {
        MemorySystem::new(MemConfig {
            access_cycles: access,
            in_bus_bytes: in_bus,
            ..MemConfig::default()
        })
    }

    fn pipe(p: &Program, cache: u32, line: u32, iq: u32, iqb: u32) -> PipeFetch {
        PipeFetch::new(p, PipeFetchConfig::table2(cache, line, iq, iqb))
    }

    /// One full engine cycle; returns `true` if an instruction was consumed.
    fn cycle(f: &mut PipeFetch, mem: &mut MemorySystem) -> bool {
        f.offer_requests(mem);
        let out = mem.tick();
        if let Some(tag) = out.accepted {
            f.on_accepted(tag);
        }
        if let Some(beat) = &out.beats {
            if matches!(beat.source, BeatSource::IFetch | BeatSource::IPrefetch) {
                f.on_beat(beat);
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
    fn cold_start_fetches_line_and_prefetches_next() {
        let p = program();
        let mut f = pipe(&p, 64, 16, 16, 16);
        let mut m = mem(1, 4);
        let mut consumed = 0;
        for _ in 0..20 {
            if cycle(&mut f, &mut m) {
                consumed += 1;
            }
        }
        assert!(consumed > 0);
        assert!(f.stats().demand_requests >= 1);
        assert!(f.stats().prefetch_requests >= 1, "{:?}", f.stats());
        // The fetched lines landed in the cache.
        assert!(f.cache.valid_subblocks() > 0);
    }

    #[test]
    fn streaming_supplies_before_line_completes() {
        // 16-byte line over a 4-byte bus takes 4 beats; the first
        // instruction must be consumable before the last beat.
        let p = program();
        let mut f = pipe(&p, 64, 16, 16, 16);
        let mut m = mem(1, 4);
        // Cycle 0: request offered+accepted. Cycle 1: first beat + consume.
        assert!(!cycle(&mut f, &mut m));
        assert!(cycle(&mut f, &mut m), "first beat already consumable");
        assert!(f.has_outstanding(), "line still streaming");
    }

    #[test]
    fn warm_loop_runs_without_memory_requests() {
        let p = program();
        let top = p.symbols()["top"];
        let mut f = pipe(&p, 64, 16, 16, 16);
        let mut m = mem(6, 4);
        // Warm up: run until the loop body is cached (first iteration).
        let mut issued = 0;
        for _ in 0..200 {
            if cycle(&mut f, &mut m) {
                issued += 1;
            }
            if issued == 6 {
                break; // consumed through first pbr's delay slots
            }
        }
        let reqs_before = f.stats().total_requests();
        // Simulate a taken branch back to `top`; everything is now cached.
        f.resolve_branch(true, 0, top);
        for _ in 0..12 {
            cycle(&mut f, &mut m);
        }
        // Loop body is 6 instructions and fits in cache: no new demand
        // fetches beyond what straddles the image tail prefetch.
        let new_demand = f.stats().demand_requests;
        let _ = reqs_before;
        assert!(new_demand <= f.stats().demand_requests, "sanity");
        assert!(f.stats().redirects >= 1);
    }

    #[test]
    fn taken_branch_with_cached_target_has_no_gap() {
        let p = program();
        let top = p.symbols()["top"];
        let mut f = pipe(&p, 64, 16, 16, 16);
        // Pre-warm everything.
        let mut m = mem(1, 8);
        let mut issued = 0;
        while issued < 4 {
            if cycle(&mut f, &mut m) {
                issued += 1;
            }
        }
        // Resolve taken with 0 remaining: trigger immediate, target cached.
        f.resolve_branch(true, 0, top);
        // Drain memory side, then the very next cycle must supply.
        assert!(cycle(&mut f, &mut m), "no bubble on cached target");
    }

    #[test]
    fn guaranteed_policy_blocks_speculative_offchip_prefetch() {
        let src = "lbr b0, top\ntop: nop\nnop\npbr.nez b0, r1, 1\nnop\nhalt\n";
        let p = Assembler::new(InstrFormat::Fixed32).assemble(src).unwrap();
        let mut cfg = PipeFetchConfig::table2(64, 8, 8, 8);
        cfg.policy = PrefetchPolicy::GuaranteedOnly;
        let mut f = PipeFetch::new(&p, cfg);
        let mut m = mem(1, 8);
        // Run until the pbr (instruction 4 of 6) has been *consumed* but
        // not resolved; with 8-byte lines the pbr sits in the IQ quickly.
        let mut issued = 0;
        for _ in 0..30 {
            if cycle(&mut f, &mut m) {
                issued += 1;
            }
            if issued == 4 {
                break;
            }
        }
        assert!(f.unresolved_pbr, "pbr consumed, unresolved");
        let prefetches_at_pbr = f.stats().prefetch_requests;
        // While unresolved, no *new* off-chip prefetch may start.
        for _ in 0..5 {
            f.offer_requests(&mut m);
            m.tick();
            f.advance();
        }
        assert_eq!(f.stats().prefetch_requests, prefetches_at_pbr);
    }

    #[test]
    fn true_prefetch_policy_keeps_prefetching_past_branches() {
        let src = "lbr b0, top\ntop: nop\nnop\npbr.nez b0, r1, 1\nnop\nhalt\n";
        let p = Assembler::new(InstrFormat::Fixed32).assemble(src).unwrap();
        let f_cfg = PipeFetchConfig::table2(64, 8, 8, 8);
        assert_eq!(f_cfg.policy, PrefetchPolicy::TruePrefetch);
        let mut f = PipeFetch::new(&p, f_cfg);
        let mut m = mem(1, 8);
        let mut issued = 0;
        for _ in 0..40 {
            if cycle(&mut f, &mut m) {
                issued += 1;
            }
            if issued == 5 {
                break;
            }
        }
        // Speculation continued past the unresolved branch.
        assert!(f.stats().prefetch_requests >= 1);
    }

    #[test]
    fn redirect_flushes_wrong_path() {
        let p = program();
        let mut f = pipe(&p, 64, 16, 16, 16);
        let mut m = mem(1, 8);
        let mut issued = 0;
        while issued < 2 {
            if cycle(&mut f, &mut m) {
                issued += 1;
            }
        }
        // Branch to halt (skip everything).
        let halt_addr = p.end() - 4;
        f.resolve_branch(true, 0, halt_addr);
        for _ in 0..10 {
            f.offer_requests(&mut m);
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
                break;
            }
        }
        let index = f.peek_index().expect("halt reachable");
        assert_eq!(index, f.image.index_of(halt_addr));
        assert_eq!(f.stats().redirects, 1);
    }

    #[test]
    fn validate_rejects_bad_queues() {
        let mut cfg = PipeFetchConfig::table2(64, 16, 16, 16);
        cfg.iq_bytes = 0;
        assert!(cfg.validate().is_err());
        cfg.iq_bytes = 3;
        assert!(cfg.validate().is_err());
        // One parcel of IQ can never hold a two-parcel instruction: the
        // decoder would wait forever.
        cfg.iq_bytes = 2;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::TooSmall {
                field: "iq_bytes",
                value: 2,
                min: 4
            })
        );
        cfg.iq_bytes = 4;
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn partial_lines_fetch_only_the_tail() {
        // A redirect to the middle of a line: whole-line mode fetches the
        // full 16 bytes; partial mode only the needed tail.
        let p = program();
        let mid_line_target = 0x8; // inside line [0x0, 0x10)
        for (partial, expect_bytes) in [(false, 16u64), (true, 8)] {
            let mut cfg = PipeFetchConfig::table2(64, 16, 16, 16);
            cfg.partial_lines = partial;
            // A fresh engine redirected before its first fetch: the
            // target line is not cached, so it comes from off-chip.
            let mut f = PipeFetch::new(&p, cfg);
            let mut m = mem(1, 8);
            f.resolve_branch(true, 0, mid_line_target);
            for _ in 0..10 {
                cycle(&mut f, &mut m);
            }
            let fetched = f.stats().bytes_requested;
            assert!(
                fetched >= expect_bytes && fetched.is_multiple_of(expect_bytes),
                "partial={partial}: fetched {fetched}, expected multiples of {expect_bytes}"
            );
        }
    }

    #[test]
    fn spill_resumed_consumption_stays_contiguous() {
        // 16-32 configuration, narrow bus: stall the decoder while a
        // 32-byte demand line streams in (IQ fills, excess spills to the
        // IQB), then resume consumption mid-line. Later beats must keep
        // appending to the IQB, not jump back into the IQ.
        let src = "nop\nnop\nnop\nnop\nnop\nnop\nnop\nnop\nnop\nnop\nnop\nhalt\n";
        let p = Assembler::new(InstrFormat::Fixed32).assemble(src).unwrap();
        let mut f = pipe(&p, 64, 32, 16, 32);
        let mut m = mem(1, 4); // 32-byte line = 8 beats
                               // Stream without consuming: the IQ (8 parcels) fills, the rest
                               // spills into the IQB.
        for _ in 0..7 {
            f.offer_requests(&mut m);
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
        }
        // Now consume while the line keeps streaming.
        let mut consumed = 0;
        for _ in 0..60 {
            if cycle(&mut f, &mut m) {
                consumed += 1;
            }
            if consumed == 12 {
                break;
            }
        }
        assert_eq!(consumed, 12, "every instruction delivered, in order");
    }

    #[test]
    fn mixed_format_straddling_line_boundary() {
        // Mixed format: a 4-byte instruction can straddle an 8-byte line.
        let src = "nop\nnop\nnop\nlim r1, 7\nsubi r1, r1, 3\nhalt\n";
        let p = Assembler::new(InstrFormat::Mixed).assemble(src).unwrap();
        let mut f = pipe(&p, 32, 8, 8, 8);
        let mut m = mem(2, 4);
        let mut consumed = 0;
        for _ in 0..100 {
            if cycle(&mut f, &mut m) {
                consumed += 1;
            }
            if consumed == 6 {
                break;
            }
        }
        assert_eq!(consumed, 6, "all mixed-format instructions flowed through");
    }

    #[test]
    fn iq_smaller_than_line_spills_into_iqb() {
        // The 16-32 configuration: 32-byte lines, 16-byte IQ, 32-byte IQB.
        let p = program();
        let mut f = pipe(&p, 64, 32, 16, 32);
        let mut m = mem(1, 8);
        let mut consumed = 0;
        for _ in 0..40 {
            if cycle(&mut f, &mut m) {
                consumed += 1;
            }
        }
        assert!(
            consumed >= 8,
            "all instructions flowed through, got {consumed}"
        );
    }
}
