//! The conventional cache with Hill's always-prefetch strategy (paper §4.1).
//!
//! Model, following the paper's description:
//!
//! * A PC is presented to the cache at the beginning of each clock cycle; a
//!   tag and array lookup both complete within the cycle, so a hit supplies
//!   the decoder that same cycle.
//! * On each instruction reference the *next sequential instruction* is
//!   prefetched, even across a line boundary.
//! * Memory requests are made for **one instruction at a time**, and a new
//!   request cannot begin until the previous one finishes.
//! * Demand fetches use the [`ReqClass::IFetch`] arbitration class;
//!   prefetches use [`ReqClass::IPrefetch`] (lowest priority).

use std::cell::Cell;
use std::collections::BTreeSet;

use pipe_isa::decode::instr_len;
use pipe_isa::{Image, Program, PARCEL_BYTES};
use pipe_mem::{Beat, BeatSource, ConfigError, MemorySystem, ReqClass, TimingKey, Untimed};

use crate::cache::{CacheConfig, InstructionCache, SUBBLOCK_BYTES};
use crate::engine::{accept_in_order, FetchEngine, Redirect, Request};
use crate::stats::FetchStats;

/// The prefetch strategies Hill compared (the paper adopts
/// [`Always`](ConvPrefetch::Always) as the consistently best one and calls
/// the resulting design the *conventional cache*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ConvPrefetch {
    /// Prefetch the next sequential instruction on every reference — the
    /// paper's conventional cache.
    #[default]
    Always,
    /// Never prefetch: fetch only on demand misses.
    OnMissOnly,
    /// Tagged prefetch: prefetch the next sequential instruction only on
    /// the *first* reference to a block after it is fetched (Gindele's
    /// scheme, evaluated by Hill).
    Tagged,
}

impl std::fmt::Display for ConvPrefetch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConvPrefetch::Always => f.write_str("always-prefetch"),
            ConvPrefetch::OnMissOnly => f.write_str("on-miss-only"),
            ConvPrefetch::Tagged => f.write_str("tagged-prefetch"),
        }
    }
}

/// Full configuration of a [`ConventionalFetch`]: cache geometry plus the
/// prefetch strategy. Mirrors [`PipeFetchConfig`](crate::PipeFetchConfig)
/// so every engine is described by exactly one config type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConventionalConfig {
    /// Instruction cache geometry.
    pub cache: CacheConfig,
    /// Hill prefetch strategy.
    pub prefetch: ConvPrefetch,
}

impl ConventionalConfig {
    /// The paper's conventional cache: the given geometry with
    /// always-prefetch.
    pub fn new(cache: CacheConfig) -> ConventionalConfig {
        ConventionalConfig {
            cache,
            prefetch: ConvPrefetch::Always,
        }
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for invalid cache geometry.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.cache.validate()
    }
}

/// Memoized per-PC fetch state. The offer, probe, and `peek_index` paths all
/// re-derive "is the instruction at PC fully cached" (and the
/// always-prefetch path, "would a prefetch for the next instruction
/// launch") several times per simulated cycle from inputs that only
/// change on a beat, a consume or a redirect — so the answers
/// are computed once per PC and invalidated at exactly those events.
#[derive(Debug, Clone, Copy)]
struct AvailMemo {
    pc: u32,
    bytes: u32,
    cached: bool,
    /// Whether the always-prefetch probe past this instruction would
    /// launch a request; computed lazily on first use.
    next_launches: Option<bool>,
}

/// Hill's always-prefetch conventional instruction cache.
#[derive(Debug)]
pub struct ConventionalFetch {
    image: Image,
    prefetch: ConvPrefetch,
    state: ConvState,
    stats: FetchStats,
}

/// The conventional engine's timing state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ConvState {
    cache: InstructionCache,
    /// Tagged mode: sub-block addresses fetched but not yet referenced.
    fresh: BTreeSet<u32>,
    /// Tagged mode: a first-reference occurred; prefetch the next block.
    tagged_trigger: bool,
    pc: u32,
    redirect: Redirect,
    /// The one outstanding request.
    pending: Option<Request>,
    /// Count the cache probe for the current PC only once.
    probe_counted: bool,
    /// An instruction was consumed since the last offer phase: a fetch for
    /// the (new) PC launches as an always-prefetch *on reference*, per
    /// Hill's model, rather than as a demand miss.
    just_consumed: bool,
    /// Fetch latch: parcel addresses of the current instruction already
    /// delivered by beats. Needed in the mixed format, where an
    /// instruction may straddle two lines that conflict in a small cache
    /// (the halves would otherwise evict each other forever).
    latch: [Option<u32>; 2],
    /// See [`AvailMemo`]: a function of the PC, the cache and the latch,
    /// so untimed. A `Cell` because the read-only engine entry point
    /// `peek_index` shares the memo.
    avail: Untimed<Cell<Option<AvailMemo>>>,
}

impl ConventionalFetch {
    /// Creates a conventional fetch engine over `program` with a
    /// configuration that [`FetchConfig::build`](crate::FetchConfig::build)
    /// has validated.
    pub(crate) fn new(program: &Program, config: ConventionalConfig) -> ConventionalFetch {
        let ConventionalConfig { cache, prefetch } = config;
        ConventionalFetch {
            image: program.image(),
            prefetch,
            state: ConvState {
                cache: InstructionCache::new(cache),
                fresh: BTreeSet::new(),
                tagged_trigger: false,
                pc: program.entry(),
                redirect: Redirect::default(),
                pending: None,
                probe_counted: false,
                just_consumed: false,
                latch: [None, None],
                avail: Untimed(Cell::new(None)),
            },
            stats: FetchStats::default(),
        }
    }

    /// Size in bytes of the instruction at `addr`, from the image.
    fn instr_bytes_at(&self, addr: u32) -> Option<u32> {
        let first = self.image.parcel_at(addr)?;
        Some(instr_len(first) as u32 * PARCEL_BYTES)
    }

    /// The aligned sub-block range covering `[addr, addr + bytes)`.
    fn covering(&self, addr: u32, bytes: u32) -> (u32, u32) {
        let lo = addr & !(SUBBLOCK_BYTES - 1);
        let hi = (addr + bytes + SUBBLOCK_BYTES - 1) & !(SUBBLOCK_BYTES - 1);
        (lo, hi - lo)
    }

    /// Returns `true` if the complete instruction at `pc` is available:
    /// every parcel either cached or held in the fetch latch. The covering
    /// range may cross a line boundary (4-byte instruction at a
    /// mixed-format odd parcel), in which case both lines are checked.
    fn instr_cached(&self, addr: u32, bytes: u32) -> bool {
        let mut a = addr;
        while a < addr + bytes {
            if !self.state.latch.contains(&Some(a)) && !self.state.cache.contains(a, PARCEL_BYTES) {
                return false;
            }
            a += PARCEL_BYTES;
        }
        true
    }

    /// `(instruction bytes, fully cached)` for the instruction at the
    /// current PC, or `None` when the PC is outside the image. Memoized;
    /// see [`AvailMemo`].
    fn availability(&self) -> Option<(u32, bool)> {
        if let Some(m) = self.state.avail.0.get() {
            if m.pc == self.state.pc {
                return Some((m.bytes, m.cached));
            }
        }
        let bytes = self.instr_bytes_at(self.state.pc)?;
        let cached = self.instr_cached(self.state.pc, bytes);
        self.state.avail.0.set(Some(AvailMemo {
            pc: self.state.pc,
            bytes,
            cached,
            next_launches: None,
        }));
        Some((bytes, cached))
    }

    /// Whether the always-prefetch probe for the instruction after the
    /// current one (of `bytes` bytes) would launch a request. Memoized;
    /// only meaningful while the current instruction is cached.
    fn next_prefetch_launches(&self, bytes: u32) -> bool {
        if let Some(m) = self.state.avail.0.get() {
            if m.pc == self.state.pc {
                if let Some(launches) = m.next_launches {
                    return launches;
                }
            }
        }
        let next = self.state.pc + bytes;
        let launches = self.image.parcel_at(next).is_some()
            && match self.instr_cached(next, PARCEL_BYTES) {
                true => {
                    let nbytes = self
                        .instr_bytes_at(next)
                        .expect("parcel exists, so size is known");
                    !self.instr_cached(next, nbytes)
                }
                false => true,
            };
        if let Some(mut m) = self.state.avail.0.get() {
            if m.pc == self.state.pc {
                m.next_launches = Some(launches);
                self.state.avail.0.set(Some(m));
            }
        }
        launches
    }

    fn maybe_trigger(&mut self) {
        if let Some(target) = self.state.redirect.take_due() {
            self.state.pc = target;
            self.state.probe_counted = false;
            self.state.latch = [None, None];
            self.state.avail.0.set(None);
            self.stats.redirects += 1;
            // An in-flight sequential prefetch is now known wasted (it
            // still completes and fills the cache).
            if let Some(p) = &self.state.pending {
                if p.class != ReqClass::IFetch {
                    self.stats.wasted_requests += 1;
                }
            }
        }
    }

    /// Starts the one outstanding request, for the sub-blocks covering
    /// `[addr, addr + bytes)`, and offers it.
    fn launch(&mut self, mem: &mut MemorySystem, class: ReqClass, addr: u32, bytes: u32) {
        let (lo, len) = self.covering(addr, bytes);
        let req = Request::new(class, lo, len);
        req.offer(mem);
        self.state.pending = Some(req);
    }
}

impl FetchEngine for ConventionalFetch {
    fn offer_requests(&mut self, mem: &mut MemorySystem) {
        let just_consumed = std::mem::take(&mut self.state.just_consumed);

        // Re-offer an unaccepted pending request, upgrading a prefetch to a
        // demand fetch once the decoder is actually stalled on its range.
        let stalled_at = (!just_consumed)
            .then(|| {
                self.availability()
                    .map(|_| self.state.pc & !(SUBBLOCK_BYTES - 1))
            })
            .flatten();
        if let Some(p) = &mut self.state.pending {
            if !p.accepted() {
                if let Some(lo) = stalled_at {
                    if lo >= p.addr && lo < p.addr + p.bytes {
                        p.class = ReqClass::IFetch;
                    }
                }
                p.offer(mem);
            }
            return; // one outstanding request at a time
        }

        // Fetch for the instruction at PC, if missing. Under the
        // always-prefetch strategy, when the PC has just advanced onto
        // this instruction the fetch is the prefetch launched by the
        // previous reference (IPrefetch class); once the decoder is
        // stalled on it — or under the other strategies — it is a demand
        // fetch.
        if let Some((bytes, cached)) = self.availability() {
            if !cached {
                let class = if just_consumed && self.prefetch == ConvPrefetch::Always {
                    ReqClass::IPrefetch
                } else {
                    ReqClass::IFetch
                };
                self.launch(mem, class, self.state.pc, bytes);
                return;
            }

            // Prefetch the next sequential instruction past PC, per the
            // configured strategy. Under always-prefetch the launch
            // decision is memoized (the steady-state answer is "already
            // covered" every cycle).
            let allow = match self.prefetch {
                ConvPrefetch::Always => self.next_prefetch_launches(bytes),
                ConvPrefetch::OnMissOnly => false,
                ConvPrefetch::Tagged => std::mem::take(&mut self.state.tagged_trigger),
            };
            let next = self.state.pc + bytes;
            if allow && self.image.parcel_at(next).is_some() {
                // We know the next instruction's size once its first parcel
                // is fetched; until then prefetch its first sub-block.
                let want = match self.instr_cached(next, PARCEL_BYTES) {
                    true => {
                        let nbytes = self
                            .instr_bytes_at(next)
                            .expect("parcel exists, so size is known");
                        (!self.instr_cached(next, nbytes)).then_some((next, nbytes))
                    }
                    false => Some((next, PARCEL_BYTES)),
                };
                if let Some((addr, bytes)) = want {
                    self.launch(mem, ReqClass::IPrefetch, addr, bytes);
                }
            }
        }
    }

    fn on_accepted(&mut self, class: ReqClass) {
        accept_in_order(
            self.state.pending.as_mut_slice(),
            |p| p,
            class,
            &mut self.stats,
        );
    }

    fn on_beat(&mut self, beat: &Beat) {
        debug_assert!(matches!(
            beat.source,
            BeatSource::IFetch | BeatSource::IPrefetch
        ));
        let p = self.state.pending.as_mut().expect("beat without a request");
        p.receive(beat);
        self.state.avail.0.set(None); // the fill (and latch) change availability
        self.state.cache.fill(beat.addr, beat.bytes);
        if self.prefetch == ConvPrefetch::Tagged {
            let mut a = beat.addr & !(SUBBLOCK_BYTES - 1);
            while a < beat.addr + beat.bytes {
                self.state.fresh.insert(a);
                a += SUBBLOCK_BYTES;
            }
        }
        // Latch any parcels of the current instruction carried by this
        // beat, so a line-straddling instruction cannot self-evict.
        let mut a = beat.addr;
        while a < beat.addr + beat.bytes {
            if a == self.state.pc || a == self.state.pc + PARCEL_BYTES {
                let slot = usize::from(a != self.state.pc);
                self.state.latch[slot] = Some(a);
            }
            a += PARCEL_BYTES;
        }
        if beat.last {
            self.state.pending = None;
        }
    }

    fn advance(&mut self) {
        // Count one probe per new PC value (per reference).
        if !self.state.probe_counted {
            if let Some((_, cached)) = self.availability() {
                if cached {
                    self.stats.cache_hits += 1;
                } else {
                    self.stats.cache_misses += 1;
                }
                self.state.probe_counted = true;
            }
        }
    }

    fn peek_index(&self) -> Option<usize> {
        // The instruction must be fully cached and every parcel inside the
        // image.
        let (bytes, cached) = self.availability()?;
        if !cached || self.state.pc + bytes > self.image.end() {
            return None;
        }
        Some(self.image.index_of(self.state.pc))
    }

    fn consume(&mut self) {
        let (bytes, cached) = self
            .availability()
            .expect("consume without available instruction");
        debug_assert!(cached);
        if self.prefetch == ConvPrefetch::Tagged {
            let sub_block = self.state.pc & !(SUBBLOCK_BYTES - 1);
            if self.state.fresh.remove(&sub_block) {
                self.state.tagged_trigger = true;
            }
        }
        self.state.pc += bytes;
        self.state.probe_counted = false;
        self.state.just_consumed = true;
        self.state.latch = [None, None];
        self.state.avail.0.set(None); // the latch clear can change availability
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
        "conventional"
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
            .assemble("lim r1, 2\nlbr b0, top\ntop: subi r1, r1, 1\npbr.nez b0, r1, 0\nhalt\n")
            .unwrap()
    }

    fn mem(access: u32) -> MemorySystem {
        MemorySystem::new(MemConfig {
            access_cycles: access,
            ..MemConfig::default()
        })
    }

    #[test]
    fn cold_miss_then_streaming() {
        let p = program();
        let mut f = ConventionalFetch::new(&p, ConventionalConfig::new(CacheConfig::new(64, 16)));
        let mut m = mem(1);
        // Cycle 0: miss, request accepted. Cycle 1: beat arrives, issue.
        assert!(!cycle(&mut f, &mut m));
        assert!(cycle(&mut f, &mut m));
        assert_eq!(f.stats().demand_requests, 1);
        assert_eq!(f.stats().instructions_delivered, 1);
    }

    #[test]
    fn prefetch_covers_next_instruction() {
        let p = program();
        let mut f = ConventionalFetch::new(&p, ConventionalConfig::new(CacheConfig::new(64, 16)));
        let mut m = mem(1);
        for _ in 0..12 {
            cycle(&mut f, &mut m);
            if f.stats().instructions_delivered >= 3 {
                break;
            }
        }
        assert!(f.stats().prefetch_requests >= 1, "{:?}", f.stats());
    }

    #[test]
    fn warm_cache_delivers_every_cycle() {
        let p = program();
        let mut f = ConventionalFetch::new(&p, ConventionalConfig::new(CacheConfig::new(64, 16)));
        // Pre-warm the entire image.
        f.state.cache.fill(0, p.code_bytes());
        let mut m = mem(6);
        let mut consumed = 0;
        for _ in 0..5 {
            if cycle(&mut f, &mut m) {
                consumed += 1;
            }
        }
        assert_eq!(consumed, 5, "hit supplies decode every cycle");
    }

    #[test]
    fn redirect_to_cached_target_no_bubble() {
        let p = program();
        let top = p.symbols()["top"];
        let mut f = ConventionalFetch::new(&p, ConventionalConfig::new(CacheConfig::new(64, 16)));
        f.state.cache.fill(0, p.code_bytes());
        let mut m = mem(1);
        // consume lim, lbr, subi, pbr
        for _ in 0..4 {
            assert!(cycle(&mut f, &mut m));
        }
        f.resolve_branch(true, 0, top);
        assert!(cycle(&mut f, &mut m), "target available immediately");
        assert_eq!(f.stats().redirects, 1);
    }

    #[test]
    fn one_outstanding_request_at_a_time() {
        let p = program();
        let mut f = ConventionalFetch::new(&p, ConventionalConfig::new(CacheConfig::new(64, 16)));
        let mut m = mem(6);
        // During the long demand miss, no second request may be offered.
        for _ in 0..4 {
            cycle(&mut f, &mut m);
            assert!(f.stats().demand_requests + f.stats().prefetch_requests <= 1);
        }
    }

    #[test]
    fn on_miss_only_never_prefetches() {
        let p = program();
        let mut f = ConventionalFetch::new(
            &p,
            ConventionalConfig {
                cache: CacheConfig::new(64, 16),
                prefetch: ConvPrefetch::OnMissOnly,
            },
        );
        let mut m = mem(1);
        for _ in 0..30 {
            cycle(&mut f, &mut m);
        }
        assert_eq!(f.stats().prefetch_requests, 0, "{:?}", f.stats());
        assert!(f.stats().demand_requests > 0);
    }

    #[test]
    fn tagged_prefetches_on_first_reference_only() {
        let p = program();
        let mut f = ConventionalFetch::new(
            &p,
            ConventionalConfig {
                cache: CacheConfig::new(64, 16),
                prefetch: ConvPrefetch::Tagged,
            },
        );
        let mut m = mem(1);
        let mut issued = 0;
        for _ in 0..40 {
            if cycle(&mut f, &mut m) {
                issued += 1;
            }
            if issued >= 5 {
                break;
            }
        }
        let first_pass = f.stats().prefetch_requests + f.stats().demand_requests;
        assert!(first_pass > 0);
        // Re-reference the same (now untagged) instructions: no new
        // prefetches fire.
        f.resolve_branch(true, 0, 0);
        let before = f.stats().prefetch_requests;
        let mut issued2 = 0;
        for _ in 0..40 {
            if cycle(&mut f, &mut m) {
                issued2 += 1;
            }
            if issued2 >= 4 {
                break;
            }
        }
        assert_eq!(
            f.stats().prefetch_requests,
            before,
            "re-referencing untagged blocks must not prefetch"
        );
    }
}
