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

use std::collections::VecDeque;

use pipe_isa::encode::parcel_is_branch;
use pipe_isa::{Image, Program, PARCEL_BYTES};
use pipe_mem::error::{require_at_least, require_multiple_of};
use pipe_mem::{Beat, BeatSource, ConfigError, MemorySystem, ReqClass, TimingKey};

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

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Dest {
    /// Demand fill streaming into the IQ (overflow spills into the IQB).
    Iq,
    /// Fill streaming into the IQB (sequential prefetch or branch target).
    Iqb,
    /// Stale fill: only the cache receives the beats.
    CacheOnly,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PendingFill {
    req: Request,
    /// Next parcel address expected by the destination queue; beats below
    /// this fill only the cache.
    expect: u32,
    dest: Dest,
}

/// Branch-target preparation between resolution and redirect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
    state: PipeState,
    stats: FetchStats,
}

/// The memory port a fill of `class` waits for: demand or prefetch.
fn port(class: ReqClass) -> usize {
    usize::from(class != ReqClass::IFetch)
}

/// The PIPE fetch unit's timing state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PipeState {
    cache: InstructionCache,
    iq: ParcelQueue,
    iqb: ParcelQueue,
    /// Next sequential parcel address not yet scheduled into a queue or
    /// pending fill (tail of the committed stream).
    stream_end: u32,
    /// Off-chip fills memory has accepted, in acceptance order: it
    /// answers them oldest first, so every beat is the front fill's.
    accepted: VecDeque<PendingFill>,
    /// Fills memory has not accepted, one queue per [`port`], oldest
    /// first. Memory takes the oldest waiting fill of each class, so the
    /// order between the two classes times nothing. A redirect leaves
    /// each unaccepted IQB prefetch waiting as a cache-only fill, and at
    /// Figure 5a/5b timing PIPE 32-32 keeps up to 499 of them; only the
    /// newest waiting prefetch can be live (see
    /// [`start_fill`](PipeFetch::start_fill)).
    waiting: [VecDeque<PendingFill>; 2],
    /// Set between a taken resolution and its redirect trigger; while set,
    /// the IQB belongs to the target stream.
    prep: Option<Prep>,
    redirect: Redirect,
    /// A consumed PBR whose outcome has not yet been reported.
    unresolved_pbr: bool,
    /// Set when the supply pass last ran to a fixpoint: re-running it
    /// before the next external event (acceptance, beat, consume, branch
    /// resolution) is provably a no-op, so
    /// [`run_supply`](PipeFetch::run_supply) skips it. Purely an
    /// optimization — behavior is identical.
    settled: bool,
}

impl PipeFetch {
    /// Creates a PIPE fetch unit over `program` with a configuration that
    /// [`FetchConfig::build`](crate::FetchConfig::build) has validated.
    pub(crate) fn new(program: &Program, cfg: PipeFetchConfig) -> PipeFetch {
        let image = program.image();
        PipeFetch {
            cfg,
            state: PipeState {
                cache: InstructionCache::new(cfg.cache),
                iq: ParcelQueue::new(&image, cfg.iq_bytes, program.entry()),
                iqb: ParcelQueue::new(&image, cfg.iqb_bytes, program.entry()),
                stream_end: program.entry(),
                accepted: VecDeque::new(),
                waiting: Default::default(),
                prep: None,
                redirect: Redirect::default(),
                unresolved_pbr: false,
                settled: false,
            },
            image,
            stats: FetchStats::default(),
        }
    }

    fn line_end(&self, addr: u32) -> u32 {
        self.cfg.cache.line_base(addr) + self.cfg.cache.line_bytes
    }

    /// Whether a fill is streaming into `dest`. Only the accepted fills,
    /// the waiting demand fills (a few of each at most) and the newest
    /// waiting prefetch can be live.
    fn has_pending(&self, dest: Dest) -> bool {
        let [demand, prefetch] = &self.state.waiting;
        let live = self.state.accepted.iter().chain(demand);
        live.chain(prefetch.back()).any(|p| p.dest == dest)
    }

    /// Retargets the live fill headed for `dest`, if any, at the cache
    /// only: its later beats fill the cache but no queue. At most one
    /// fill per destination is live.
    fn retire(&mut self, dest: Dest) {
        let [demand, prefetch] = &mut self.state.waiting;
        let live = self.state.accepted.iter_mut().chain(demand);
        if let Some(fill) = live.chain(prefetch.back_mut()).find(|p| p.dest == dest) {
            fill.dest = Dest::CacheOnly;
            self.stats.wasted_requests += 1;
        }
    }

    /// Schedules an off-chip fill of class `class` for the parcel at
    /// `need`, streaming into `dest`: the whole aligned line, or just its
    /// tail under `partial_lines`.
    ///
    /// A prefetch starts only when no fill is live, and a cache-only fill
    /// never becomes live again, so every prefetch already waiting is
    /// cache-only: only the newest can be live.
    fn start_fill(&mut self, class: ReqClass, need: u32, dest: Dest) {
        let (addr, bytes) = if self.cfg.partial_lines {
            (need, self.line_end(need) - need)
        } else {
            (self.cfg.cache.line_base(need), self.cfg.cache.line_bytes)
        };
        let waiting = &mut self.state.waiting[port(class)];
        debug_assert!(
            class == ReqClass::IFetch || waiting.iter().all(|p| p.dest == Dest::CacheOnly),
            "a prefetch starts while a waiting one is live"
        );
        waiting.push_back(PendingFill {
            req: Request::new(class, addr, bytes),
            expect: need,
            dest,
        });
    }

    /// Starts branch-target preparation once "all the instructions
    /// guaranteed to execute [have passed] into the IQ" (paper §4.2): the
    /// IQB is repurposed for the target stream while the delay slots drain.
    fn try_start_prep(&mut self) {
        let Some((remaining, target)) = self.state.redirect.pending() else {
            return;
        };
        if self.state.prep.is_some() {
            return;
        }
        if self.state.iq.complete_instructions() < remaining {
            return; // delay slots still arriving on the sequential path
        }

        // Discard the sequential IQB contents (beyond the redirect point)
        // and retarget in-flight IQB fills at the cache only.
        self.stats.flushed_parcels += self.state.iqb.len() as u64;
        self.state.iqb.restart(target);
        self.retire(Dest::Iqb);

        // Begin fetching the target line (cache or off-chip).
        let mut prep = Prep {
            target,
            end: target,
        };
        if self.image.parcel_at(target).is_some() {
            let chunk_end = self.line_end(target).min(self.image.end());
            if self.state.cache.contains(target, chunk_end - target) {
                self.stats.cache_hits += 1;
                prep.end = self.state.iqb.fill_from(target, chunk_end);
            } else {
                self.stats.cache_misses += 1;
                // The branch has resolved taken: the target is guaranteed,
                // so this is a demand fetch, not a prefetch.
                self.start_fill(ReqClass::IFetch, target, Dest::Iqb);
                prep.end = self.line_end(target);
            }
        }
        self.state.prep = Some(prep);
    }

    /// Schedules supply for the IQ: transfer from IQB, copy from cache, or
    /// start a demand line fetch.
    fn supply_iq(&mut self) {
        // Move from the (sequential-stream) IQB first.
        if self.state.prep.is_none() && !self.state.iqb.is_empty() {
            let room = self.state.iq.room();
            self.state.iq.take_from(&mut self.state.iqb, room);
            if !self.state.iq.needs_refill() {
                return;
            }
        }
        if !self.state.iq.needs_refill() {
            return;
        }
        // While the IQB is preparing the branch target, the delay slots are
        // already in the IQ (prep precondition): no sequential refill.
        if self.state.prep.is_some() {
            return;
        }
        // A fill already streaming toward the IQ (or into the sequential
        // IQB) will deliver the parcels we need.
        if self.has_pending(Dest::Iq) || self.has_pending(Dest::Iqb) {
            return;
        }
        // The stream front is `stream_end` (nothing scheduled beyond the
        // queues). Past the image end there is nothing to fetch.
        let need = self.state.stream_end;
        if self.image.parcel_at(need).is_none() {
            return;
        }
        let chunk_end = self.line_end(need).min(self.image.end());
        if self.state.cache.contains(need, chunk_end - need) {
            self.stats.cache_hits += 1;
            self.state.stream_end = self.state.iq.fill_from(need, chunk_end);
        } else {
            self.stats.cache_misses += 1;
            self.start_fill(ReqClass::IFetch, need, Dest::Iq);
            self.state.stream_end = self.line_end(need);
        }
    }

    /// Schedules the IQB's next-sequential-line prefetch.
    fn supply_iqb(&mut self) {
        if self.state.prep.is_some() || self.state.redirect.pending().is_some() {
            return; // the IQB belongs to (or will belong to) the target
        }
        if !self.state.iqb.is_empty() || self.has_pending(Dest::Iqb) || self.has_pending(Dest::Iq) {
            return;
        }
        let need = self.state.stream_end;
        if self.image.parcel_at(need).is_none() {
            return;
        }
        let chunk_end = self.line_end(need).min(self.image.end());
        if self.state.cache.contains(need, chunk_end - need) {
            self.stats.cache_hits += 1;
            self.state.stream_end = self.state.iqb.fill_from(need, chunk_end);
        } else {
            self.stats.cache_misses += 1;
            // Off-chip prefetch: gated under the guaranteed-only policy by
            // the single-bit branch scan of the IQ and any PBR in flight.
            if self.cfg.policy == PrefetchPolicy::GuaranteedOnly
                && (self.state.unresolved_pbr || self.state.iq.contains_branch())
            {
                return;
            }
            self.start_fill(ReqClass::IPrefetch, need, Dest::Iqb);
            self.state.stream_end = self.line_end(need);
        }
    }

    /// Fingerprint of everything the supply pass can mutate. Equal stamps
    /// before and after a pass mean it reached a fixpoint: since the pass
    /// is a pure function of engine state, it stays a no-op until the next
    /// external event. The statistics counters are monotonic, so their sum
    /// detects paths that mutate nothing else (the guaranteed-only probe
    /// counts a cache miss every cycle it stays blocked).
    fn supply_stamp(&self) -> impl PartialEq {
        (
            self.state.iq.len(),
            self.state.iq.end_addr(),
            self.state.iqb.len(),
            self.state.iqb.end_addr(),
            self.state.stream_end,
            self.outstanding(),
            self.state.redirect,
            self.state.prep,
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
        if self.state.settled {
            return;
        }
        let before = self.supply_stamp();
        self.maybe_trigger();
        self.try_start_prep();
        self.supply_iq();
        self.supply_iqb();
        self.state.settled = self.supply_stamp() == before;
    }

    fn maybe_trigger(&mut self) {
        let Some(target) = self.state.redirect.take_due() else {
            return;
        };
        self.stats.redirects += 1;
        self.stats.flushed_parcels += self.state.iq.len() as u64;
        self.state.iq.restart(target);
        // Any fill still heading for the IQ carries dead sequential-path
        // parcels: keep filling the cache only.
        self.retire(Dest::Iq);
        match self.state.prep.take() {
            Some(prep) => {
                debug_assert_eq!(prep.target, target);
                // The IQB holds (or is receiving) the target stream; it now
                // becomes the sequential stream.
                self.state.stream_end = prep.end;
            }
            None => {
                // No preparation happened (e.g. zero-delay resolve in the
                // same call); restart cleanly at the target.
                self.stats.flushed_parcels += self.state.iqb.len() as u64;
                self.state.iqb.restart(target);
                self.retire(Dest::Iqb);
                self.state.stream_end = target;
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

        // One offer per port per cycle: the oldest waiting fill of each
        // class.
        for fill in self.state.waiting.iter().filter_map(VecDeque::front) {
            fill.req.offer(mem);
        }
    }

    fn on_accepted(&mut self, class: ReqClass) {
        self.state.settled = false;
        let waiting = &mut self.state.waiting[port(class)];
        let mut fill = waiting
            .pop_front()
            .expect("memory accepted a request never offered");
        fill.req.accept(class, &mut self.stats);
        self.state.accepted.push_back(fill);
    }

    fn on_beat(&mut self, beat: &Beat) {
        self.state.settled = false;
        debug_assert!(matches!(
            beat.source,
            BeatSource::IFetch | BeatSource::IPrefetch
        ));
        let p = self
            .state
            .accepted
            .front_mut()
            .expect("beat without a request");
        p.req.receive(beat);
        self.state.cache.fill(beat.addr, beat.bytes);

        // Queue the parcels at/after the expected address.
        let beat_end = beat.addr + beat.bytes;
        let mut a = p.expect.max(beat.addr);
        while a < beat_end && p.dest != Dest::CacheOnly {
            let q = match p.dest {
                Dest::Iq => {
                    if self.state.prep.is_none() && !self.state.iqb.is_empty() {
                        // This fill already spilled into the IQB: keep the
                        // stream contiguous there (pushing back into the
                        // IQ would leave a gap between the queues).
                        if self.state.iqb.room() > 0 {
                            &mut self.state.iqb
                        } else {
                            break;
                        }
                    } else if self.state.iq.room() > 0 {
                        &mut self.state.iq
                    } else if self.state.prep.is_none() && self.state.iqb.room() > 0 {
                        // Demand line larger than the IQ: spill the excess
                        // into the sequential IQB (the 16-32 configuration).
                        &mut self.state.iqb
                    } else {
                        break;
                    }
                }
                Dest::Iqb => {
                    if self.state.iqb.room() > 0 {
                        &mut self.state.iqb
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
            match (p.dest, self.state.prep.as_mut()) {
                (Dest::Iqb, Some(prep)) => prep.end = a,
                _ => self.state.stream_end = a,
            }
            p.dest = Dest::CacheOnly;
        }
        if beat.last {
            self.state.accepted.pop_front();
        }
    }

    fn advance(&mut self) {
        self.run_supply();
    }

    fn peek_index(&self) -> Option<usize> {
        self.state.iq.head_index()
    }

    fn consume(&mut self) {
        self.state.settled = false;
        let first = self
            .state
            .iq
            .pop_instruction()
            .expect("consume without available instruction");
        if parcel_is_branch(first) {
            self.state.unresolved_pbr = true;
        }
        self.stats.instructions_delivered += 1;
        self.state.redirect.delivered();
        self.maybe_trigger();
        self.try_start_prep();
    }

    fn resolve_branch(&mut self, taken: bool, remaining: u32, target: u32) {
        self.state.settled = false;
        self.state.unresolved_pbr = false;
        if !taken {
            return;
        }
        self.state.redirect.resolve(taken, remaining, target);
        // Target preparation starts (in `try_start_prep`) once the delay
        // slots have all passed into the IQ; a zero-delay resolve triggers
        // the redirect immediately.
        self.try_start_prep();
        self.maybe_trigger();
    }

    fn outstanding(&self) -> usize {
        let [demand, prefetch] = &self.state.waiting;
        self.state.accepted.len() + demand.len() + prefetch.len()
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
        "pipe"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::cycle;
    use pipe_isa::{Assembler, InstrFormat, Program};
    use pipe_mem::MemConfig;
    use Dest::{CacheOnly as C, Iq, Iqb};

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
        assert!(f.state.cache.valid_subblocks() > 0);
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
        assert!(f.outstanding() > 0, "line still streaming");
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
        assert!(f.state.unresolved_pbr, "pbr consumed, unresolved");
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

    /// A program of 64 four-byte instructions: 256 bytes, so every line
    /// the fill tests below name lies in the image.
    fn nops() -> Program {
        let src = format!("{}halt\n", "nop\n".repeat(63));
        Assembler::new(InstrFormat::Fixed32).assemble(&src).unwrap()
    }

    /// The fills' destinations: the accepted ones, the waiting demand
    /// fills and the waiting prefetches, each oldest first.
    fn dests(f: &PipeFetch) -> [Vec<Dest>; 3] {
        let [demand, prefetch] = &f.state.waiting;
        [&f.state.accepted, demand, prefetch].map(|q| q.iter().map(|p| p.dest).collect())
    }

    /// A 16-16 engine holding waiting cache-only prefetches (lines 0x80,
    /// 0x90, ...), as redirects leave them: `before` of them issued before
    /// a live demand fill of line 0x00 and `after` after it. A live IQB
    /// prefetch of line 0x10 comes last.
    fn with_stale_fills(p: &Program, before: u32, after: u32) -> PipeFetch {
        let mut f = pipe(p, 64, 16, 16, 16);
        let strand = |f: &mut PipeFetch, lines: std::ops::Range<u32>| {
            for i in lines {
                f.start_fill(ReqClass::IPrefetch, 0x80 + 16 * i, Iqb);
                f.retire(Iqb);
            }
        };
        strand(&mut f, 0..before);
        f.start_fill(ReqClass::IFetch, 0, Iq);
        strand(&mut f, before..before + after);
        f.start_fill(ReqClass::IPrefetch, 0x10, Iqb);
        f
    }

    #[test]
    fn preparation_retires_the_live_iqb_fill() {
        let p = nops();
        let mut f = with_stale_fills(&p, 3, 0);
        assert_eq!(dests(&f), [vec![], vec![Iq], vec![C, C, C, Iqb]]);
        let wasted = f.stats.wasted_requests;
        // The delay slots are in the IQ (none remain): preparation
        // starts, and the uncached target line comes as a demand fill.
        f.state.redirect.resolve(true, 0, 0x40);
        f.try_start_prep();
        assert_eq!(dests(&f), [vec![], vec![Iq, Iqb], vec![C; 4]]);
        assert_eq!(f.stats.wasted_requests, wasted + 1);
        let target = f.state.waiting[0][1].req;
        assert_eq!((target.class, target.addr), (ReqClass::IFetch, 0x40));
        // The redirect then retires the demand fill: the prepared
        // target stream keeps its fill.
        f.maybe_trigger();
        assert_eq!(dests(&f), [vec![], vec![C, Iqb], vec![C; 4]]);
        assert_eq!(f.stats.wasted_requests, wasted + 2);
        assert_eq!(f.state.stream_end, 0x50);
    }

    #[test]
    fn zero_delay_redirect_prepares_and_triggers_at_once() {
        let p = nops();
        let mut f = with_stale_fills(&p, 3, 0);
        let wasted = f.stats.wasted_requests;
        f.resolve_branch(true, 0, 0x40);
        assert_eq!(dests(&f), [vec![], vec![C, Iqb], vec![C; 4]]);
        assert_eq!(f.stats.wasted_requests, wasted + 2);
        assert_eq!(f.stats.redirects, 1);
    }

    #[test]
    fn redirect_without_preparation_retires_both_live_fills() {
        // The delay slots reached the IQ only as they issued, so no
        // preparation began before the redirect came due.
        let p = nops();
        let mut f = with_stale_fills(&p, 3, 0);
        let wasted = f.stats.wasted_requests;
        f.state.redirect.resolve(true, 0, 0x40);
        f.maybe_trigger();
        assert_eq!(dests(&f), [vec![], vec![C], vec![C; 4]]);
        assert_eq!(f.stats.wasted_requests, wasted + 2);
        assert_eq!(f.state.stream_end, 0x40);
        // With nothing live, a second retirement changes nothing.
        f.retire(Iq);
        f.retire(Iqb);
        assert_eq!(f.stats.wasted_requests, wasted + 2);
    }

    /// An 8-byte beat of a demand line fill.
    fn beat(addr: u32, last: bool) -> Beat {
        Beat {
            source: BeatSource::IFetch,
            addr,
            bytes: 8,
            last,
        }
    }

    #[test]
    fn the_last_beat_of_a_live_fill_drops_it() {
        // 16-32: a 32-byte demand line fills the 16-byte IQ and spills
        // its second half into the IQB; it stays live until its last beat.
        let p = nops();
        let mut f = pipe(&p, 64, 32, 16, 32);
        f.start_fill(ReqClass::IFetch, 0, Iq);
        f.start_fill(ReqClass::IPrefetch, 0x80, Iqb);
        f.retire(Iqb);
        f.on_accepted(ReqClass::IFetch);
        for addr in [0, 8, 16] {
            f.on_beat(&beat(addr, false));
            assert_eq!(
                dests(&f),
                [vec![Iq], vec![], vec![C]],
                "after the beat at {addr:#x}"
            );
        }
        assert_eq!((f.state.iq.len(), f.state.iqb.len()), (8, 4));
        f.on_beat(&beat(24, true));
        assert_eq!(dests(&f), [vec![], vec![], vec![C]]);
        assert!(
            !f.has_pending(Iq) && !f.has_pending(Iqb),
            "a waiting cache-only prefetch streams into no queue"
        );
        assert_eq!(f.state.iqb.len(), 8);
    }

    #[test]
    fn overflow_retires_the_demand_fill() {
        // 16-32: the demand line fills the IQ; then a taken branch whose
        // two delay slots are in the IQ takes the IQB for its target, so
        // the rest of the line has no queue to go to and fills the cache
        // only.
        let p = nops();
        let mut f = pipe(&p, 64, 32, 16, 32);
        f.start_fill(ReqClass::IFetch, 0, Iq);
        f.on_accepted(ReqClass::IFetch);
        f.on_beat(&beat(0, false));
        f.on_beat(&beat(8, false));
        assert_eq!(f.state.iq.room(), 0);
        f.resolve_branch(true, 2, 0x40);
        assert_eq!(
            dests(&f),
            [vec![Iq], vec![Iqb], vec![]],
            "the target line is on its way"
        );
        f.on_beat(&beat(16, false));
        assert_eq!(dests(&f), [vec![C], vec![Iqb], vec![]]);
        assert_eq!(f.state.stream_end, 16, "a later refill re-reads the rest");
        f.on_beat(&beat(24, true));
        assert_eq!(dests(&f), [vec![], vec![Iqb], vec![]]);
    }

    /// Drives `f` against a pipelined 1-cycle memory with an 8-byte bus
    /// until every fill has streamed in, and returns the class and
    /// address of each fill memory accepted, in acceptance order.
    fn acceptances(f: &mut PipeFetch) -> Vec<(ReqClass, u32)> {
        let mut m = MemorySystem::new(MemConfig {
            access_cycles: 1,
            in_bus_bytes: 8,
            pipelined: true,
            ..MemConfig::default()
        });
        let mut accepted = Vec::new();
        while f.outstanding() > 0 {
            f.offer_requests(&mut m);
            let out = m.tick();
            if let Some(class) = out.accepted {
                f.on_accepted(class);
                let fill = f.state.accepted.back().expect("the accepted fill");
                accepted.push((class, fill.req.addr));
            }
            if let Some(b) = &out.beats {
                f.on_beat(b);
            }
        }
        accepted
    }

    #[test]
    fn offers_reach_the_oldest_waiting_fill_of_each_class() {
        // Behind three stale prefetches, the demand fill is offered and
        // accepted first (instruction priority); the prefetch port then
        // takes the waiting prefetches oldest first, stale ones included.
        let p = nops();
        let mut f = with_stale_fills(&p, 3, 0);
        use ReqClass::{IFetch, IPrefetch};
        assert_eq!(
            acceptances(&mut f),
            [
                (IFetch, 0x00),
                (IPrefetch, 0x80),
                (IPrefetch, 0x90),
                (IPrefetch, 0xa0),
                (IPrefetch, 0x10),
            ]
        );
    }

    #[test]
    fn the_order_between_classes_times_nothing() {
        // The same fills, with the stale prefetches issued before the
        // demand fill, after it, or around it: memory takes the oldest
        // waiting fill of each class, so every interleaving gives one
        // timing key and one acceptance sequence.
        fn key(f: &PipeFetch) -> TimingKey {
            let mut key = TimingKey::default();
            f.describe_timing(&mut key);
            key
        }
        let p = nops();
        let mut first = with_stale_fills(&p, 3, 0);
        let (first_key, first_order) = (key(&first), acceptances(&mut first));
        for before in 0..3 {
            let mut f = with_stale_fills(&p, before, 3 - before);
            assert_eq!(key(&f), first_key, "{before} stale before the demand fill");
            assert_eq!(acceptances(&mut f), first_order, "{before} before");
            assert_eq!(key(&f), key(&first), "{before} before, once drained");
        }
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
