//! The cycle-stepped memory system: arbitration, access timing, and
//! input-bus streaming.
//!
//! ## Timing contract
//!
//! * A client *offers* at most one request per [`ReqClass`] per cycle with
//!   [`MemorySystem::offer`], then calls [`MemorySystem::tick`]. Offers not
//!   accepted that cycle are dropped — re-offer until the tag appears in
//!   [`TickOutput::accepted`].
//! * A request accepted at cycle *t* delivers its first beat at cycle
//!   *t + access_cycles*, then one beat per cycle of `in_bus_bytes` until
//!   done. Within a tick, delivery happens before acceptance, so a
//!   non-pipelined memory can accept a new request on the same cycle its
//!   previous response finishes.
//! * A non-pipelined memory holds one request at a time (a store occupies
//!   it for `access_cycles`); a pipelined memory accepts one new request
//!   every cycle and returns read responses in acceptance order.
//! * FPU results share the input bus, ranking below demand loads/stores
//!   and above prefetches (paper §5), and do not occupy the memory array.
//! * The system models timing only. It holds no data values: the client
//!   keeps the data image and the FPU's operands and results, and beats
//!   carry no values.

use std::collections::VecDeque;

use crate::config::{MemConfig, PriorityPolicy};
use crate::extcache::ExternalCache;
use crate::fpu::Fpu;
use crate::request::{Beat, BeatSource, MemRequest, ReqClass};
use crate::stats::MemStats;

/// Default base address of the memory-mapped FPU window (matches
/// `pipe_isa::FPU_BASE`).
pub const FPU_BASE: u32 = 0xFFFF_F000;

/// What [`MemorySystem::tick`] produced this cycle.
///
/// Arbitration accepts at most one request and the input bus delivers at
/// most one beat per cycle, so both outputs are inline `Option`s — the
/// hot loop moves two small values per tick instead of allocating
/// per-cycle `Vec`s. (`Option` is `IntoIterator`, so `for tag in
/// out.accepted` still iterates zero-or-one times.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickOutput {
    /// Tag of the request accepted this cycle, if any.
    pub accepted: Option<u64>,
    /// Input-bus beat delivered this cycle, if any.
    pub beats: Option<Beat>,
}

/// An accepted read awaiting its first beat. `addr` is kept for
/// instruction reads only: a data load needs its address just once, at
/// acceptance.
#[derive(Debug, Clone)]
struct Inflight {
    source: BeatSource,
    tag: u64,
    addr: u32,
    bytes: u32,
    first_beat_at: u64,
}

#[derive(Debug, Clone)]
struct Streaming {
    source: BeatSource,
    tag: u64,
    next_addr: u32,
    remaining: u32,
}

/// The external cache, buses, arbitration and FPU, stepped one cycle at a
/// time. See the [module docs](self) for the timing contract.
#[derive(Debug)]
pub struct MemorySystem {
    cfg: MemConfig,
    cycle: u64,
    fpu: Fpu,
    ext_cache: Option<ExternalCache>,
    ports: [Option<MemRequest>; 4],
    inflight: VecDeque<Inflight>,
    streaming: Option<Streaming>,
    store_busy_until: u64,
    next_tag: u64,
    stats: MemStats,
}

impl MemorySystem {
    /// Creates a memory system with an empty data image.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`MemConfig::validate`].
    pub fn new(cfg: MemConfig) -> MemorySystem {
        if let Err(e) = cfg.validate() {
            panic!("invalid MemConfig: {e}");
        }
        let fpu = Fpu::new(FPU_BASE, cfg.fpu_latency);
        let ext_cache = cfg.external_cache.map(ExternalCache::new);
        MemorySystem {
            cfg,
            cycle: 0,
            fpu,
            ext_cache,
            ports: [None, None, None, None],
            inflight: VecDeque::new(),
            streaming: None,
            store_busy_until: 0,
            next_tag: 1,
            stats: MemStats::default(),
        }
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Current cycle number (cycles completed so far).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The tag [`new_tag`](Self::new_tag) will hand out next.
    pub fn next_tag(&self) -> u64 {
        self.next_tag
    }

    /// Allocates a fresh request tag.
    pub fn new_tag(&mut self) -> u64 {
        let t = self.next_tag;
        self.next_tag += 1;
        t
    }

    /// Read access to the FPU timing state.
    pub fn fpu(&self) -> &Fpu {
        &self.fpu
    }

    /// Read access to the finite external cache, when modeled.
    pub fn external_cache(&self) -> Option<&ExternalCache> {
        self.ext_cache.as_ref()
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Returns `true` when no request is in flight, streaming, or occupying
    /// the memory array, and the FPU has no pending results — i.e. the
    /// memory side is fully drained.
    pub fn is_idle(&self) -> bool {
        self.inflight.is_empty()
            && self.streaming.is_none()
            && self.cycle >= self.store_busy_until
            && self.fpu.pending() == 0
    }

    /// Offers a request for arbitration this cycle, replacing any earlier
    /// offer of the same class. Offers expire at the end of the tick.
    pub fn offer(&mut self, req: MemRequest) {
        self.ports[req.class.index()] = Some(req);
    }

    fn acceptance_order(&self) -> [ReqClass; 4] {
        match self.cfg.priority {
            PriorityPolicy::InstructionFirst => [
                ReqClass::IFetch,
                ReqClass::DataLoad,
                ReqClass::DataStore,
                ReqClass::IPrefetch,
            ],
            PriorityPolicy::DataFirst => [
                ReqClass::DataLoad,
                ReqClass::DataStore,
                ReqClass::IFetch,
                ReqClass::IPrefetch,
            ],
        }
    }

    /// Delivery rank: lower is served first. FPU results sit between
    /// demand traffic and prefetches.
    fn delivery_rank(&self, source: BeatSource) -> u32 {
        match (self.cfg.priority, source) {
            (PriorityPolicy::InstructionFirst, BeatSource::IFetch) => 0,
            (PriorityPolicy::InstructionFirst, BeatSource::DataLoad) => 1,
            (PriorityPolicy::DataFirst, BeatSource::DataLoad) => 0,
            (PriorityPolicy::DataFirst, BeatSource::IFetch) => 1,
            (_, BeatSource::FpuResult) => 2,
            (_, BeatSource::IPrefetch) => 3,
        }
    }

    fn source_for(class: ReqClass) -> BeatSource {
        match class {
            ReqClass::DataLoad => BeatSource::DataLoad,
            ReqClass::IFetch => BeatSource::IFetch,
            ReqClass::IPrefetch => BeatSource::IPrefetch,
            ReqClass::DataStore => unreachable!("stores produce no beats"),
        }
    }

    /// Appends the system's timing state to `key`, normalised so that two
    /// states that differ only by a whole number of cycles and tags
    /// describe identically: cycles are relative to the current cycle and
    /// tags relative to the tag counter. Statistics are left out.
    ///
    /// Returns `false`, appending nothing useful, when a finite external
    /// cache is modelled: request addresses then affect timing, and the
    /// state cannot be described without them.
    ///
    /// The processor's cycle loop compares these keys to find repeating
    /// loop iterations; [`shift_timing`](Self::shift_timing) then applies
    /// a repeat.
    pub fn describe_timing(&self, key: &mut Vec<u64>) -> bool {
        if self.ext_cache.is_some() {
            return false;
        }
        debug_assert!(self.ports.iter().all(Option::is_none), "offers pending");
        let now = self.cycle;
        let tag = |t: u64| if t == 0 { 0 } else { self.next_tag - t };
        key.push(self.store_busy_until.saturating_sub(now));
        key.push(self.fpu.pending() as u64);
        key.extend(self.fpu.ready_cycles().map(|at| at.wrapping_sub(now)));
        key.push(self.inflight.len() as u64);
        for f in &self.inflight {
            key.extend([
                f.source as u64,
                tag(f.tag),
                u64::from(f.addr),
                u64::from(f.bytes),
                f.first_beat_at.wrapping_sub(now),
            ]);
        }
        match &self.streaming {
            Some(s) => key.extend([
                1 + s.source as u64,
                tag(s.tag),
                u64::from(s.next_addr),
                u64::from(s.remaining),
            ]),
            None => key.push(0),
        }
        true
    }

    /// Moves the system `cycles` cycles and `tags` tags forward, as if it
    /// had run once more through a loop iteration that left it in the same
    /// [described](Self::describe_timing) state: every cycle and tag field
    /// shifts, and `stats` (that iteration's statistics delta) is added.
    /// An external cache holds no cycle or tag, so an idle system with one
    /// shifts too.
    pub fn shift_timing(&mut self, cycles: u64, tags: u64, stats: &MemStats) {
        debug_assert!(self.ext_cache.is_none() || self.is_idle());
        let shift_tag = |t: &mut u64| {
            if *t != 0 {
                *t += tags;
            }
        };
        self.cycle += cycles;
        self.next_tag += tags;
        self.store_busy_until += cycles;
        for at in self.fpu.ready_cycles_mut() {
            *at += cycles;
        }
        self.fpu.add_ops_started(stats.fpu_ops);
        for f in &mut self.inflight {
            shift_tag(&mut f.tag);
            f.first_beat_at += cycles;
        }
        if let Some(s) = &mut self.streaming {
            shift_tag(&mut s.tag);
        }
        self.stats.add(stats);
        debug_assert_eq!(self.stats.cycles, self.cycle);
    }

    /// Advances one cycle. See the module docs for the timing contract.
    pub fn tick(&mut self) -> TickOutput {
        let now = self.cycle;
        let mut out = TickOutput::default();

        // --- Delivery (input bus) ---
        if self.streaming.is_none() {
            // Choose between the oldest eligible memory response and a
            // ready FPU result.
            let front_eligible = self
                .inflight
                .front()
                .is_some_and(|f| f.first_beat_at <= now);
            let fpu_ready = self.fpu.has_ready(now);
            let pick_fpu = if fpu_ready && front_eligible {
                let front_src = self.inflight[0].source;
                self.delivery_rank(BeatSource::FpuResult) < self.delivery_rank(front_src)
            } else {
                fpu_ready
            };
            if pick_fpu {
                self.fpu.take_ready(now);
                self.streaming = Some(Streaming {
                    source: BeatSource::FpuResult,
                    tag: 0,
                    next_addr: 0,
                    remaining: 4,
                });
            } else if front_eligible {
                let f = self.inflight.pop_front().expect("front exists");
                self.streaming = Some(Streaming {
                    source: f.source,
                    tag: f.tag,
                    next_addr: f.addr,
                    remaining: f.bytes,
                });
            }
        }
        if let Some(s) = &mut self.streaming {
            let bytes = s.remaining.min(self.cfg.in_bus_bytes);
            let last = bytes == s.remaining;
            let beat = Beat {
                tag: s.tag,
                source: s.source,
                addr: s.next_addr,
                bytes,
                last,
            };
            if matches!(s.source, BeatSource::IFetch | BeatSource::IPrefetch) {
                s.next_addr = s.next_addr.wrapping_add(bytes);
            }
            s.remaining -= bytes;
            if s.remaining == 0 {
                self.streaming = None;
            }
            self.stats.in_bus_busy_cycles += 1;
            self.stats.in_bus_bytes += u64::from(bytes);
            out.beats = Some(beat);
        }

        // --- Acceptance (output bus) ---
        // With nothing offered the whole section (and the port reset — all
        // ports are already `None`) is a no-op; skip it on this hot path.
        let offered = self.ports.iter().flatten().count();
        if offered > 0 {
            if offered > 1 {
                self.stats.contended_cycles += 1;
            }
            let memory_streaming = self
                .streaming
                .as_ref()
                .is_some_and(|s| s.source != BeatSource::FpuResult);
            let can_accept = if self.cfg.pipelined {
                true
            } else {
                self.inflight.is_empty() && !memory_streaming && now >= self.store_busy_until
            };
            if can_accept {
                for class in self.acceptance_order() {
                    if let Some(req) = self.ports[class.index()].take() {
                        self.stats.accepted[class.index()] += 1;
                        self.stats.out_bus_busy_cycles += 1;
                        out.accepted = Some(req.tag);
                        // Finite-external-cache extension: a miss delays the
                        // access while the line comes from main memory. FPU
                        // traffic bypasses the external cache.
                        let mut penalty = 0u64;
                        if !self.fpu.owns(req.addr) {
                            if let Some(ec) = &mut self.ext_cache {
                                let misses = ec.access(req.addr, req.bytes);
                                penalty = u64::from(misses) * u64::from(ec.config().miss_penalty);
                            }
                        }
                        match class {
                            ReqClass::DataStore => {
                                if self.fpu.owns(req.addr) {
                                    self.fpu.store(req.addr, now);
                                }
                                if !self.cfg.pipelined {
                                    self.store_busy_until =
                                        now + u64::from(self.cfg.access_cycles) + penalty;
                                }
                            }
                            _ => {
                                let source = Self::source_for(class);
                                self.inflight.push_back(Inflight {
                                    source,
                                    tag: req.tag,
                                    addr: if class.is_instruction() { req.addr } else { 0 },
                                    bytes: req.bytes,
                                    first_beat_at: now
                                        + u64::from(self.cfg.access_cycles)
                                        + penalty,
                                });
                            }
                        }
                        break;
                    }
                }
            } else {
                self.stats.blocked_cycles += 1;
            }

            // Offers expire.
            self.ports = [None, None, None, None];
        }

        self.stats.fpu_ops = self.fpu.ops_started();
        self.cycle += 1;
        self.stats.cycles = self.cycle;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(access: u32, pipelined: bool, in_bus: u32) -> MemConfig {
        MemConfig {
            access_cycles: access,
            pipelined,
            in_bus_bytes: in_bus,
            ..MemConfig::default()
        }
    }

    /// Drives `mem` while re-offering `req` until accepted; returns the
    /// acceptance cycle.
    fn drive_until_accepted(mem: &mut MemorySystem, req: MemRequest) -> u64 {
        for _ in 0..1000 {
            let at = mem.cycle();
            mem.offer(req);
            let out = mem.tick();
            if out.accepted == Some(req.tag) {
                return at;
            }
        }
        panic!("request never accepted");
    }

    /// Ticks until the final beat for `tag` arrives; returns (cycle, beats).
    fn drain_tag(mem: &mut MemorySystem, tag: u64) -> (u64, Vec<Beat>) {
        let mut beats = Vec::new();
        for _ in 0..1000 {
            let at = mem.cycle();
            let out = mem.tick();
            if let Some(b) = out.beats {
                if b.tag == tag {
                    let last = b.last;
                    beats.push(b);
                    if last {
                        return (at, beats);
                    }
                }
            }
        }
        panic!("response never completed");
    }

    #[test]
    fn load_latency_matches_access_time() {
        for access in [1, 2, 3, 6] {
            let mut mem = MemorySystem::new(cfg(access, false, 4));
            let tag = mem.new_tag();
            let t0 = drive_until_accepted(
                &mut mem,
                MemRequest::load(ReqClass::DataLoad, 0x100, 4, tag),
            );
            let (t1, beats) = drain_tag(&mut mem, tag);
            assert_eq!(t1 - t0, u64::from(access), "access={access}");
            assert_eq!(beats.len(), 1);
        }
    }

    #[test]
    fn line_streams_over_narrow_bus() {
        let mut mem = MemorySystem::new(cfg(6, false, 4));
        let tag = mem.new_tag();
        let t0 = drive_until_accepted(&mut mem, MemRequest::load(ReqClass::IFetch, 0x40, 16, tag));
        let (t_last, beats) = drain_tag(&mut mem, tag);
        assert_eq!(beats.len(), 4);
        assert_eq!(beats[0].addr, 0x40);
        assert_eq!(beats[3].addr, 0x4C);
        assert!(beats[3].last);
        assert!(!beats[0].last);
        // First beat at t0+6, one per cycle after.
        assert_eq!(t_last - t0, 6 + 3);
    }

    #[test]
    fn wide_bus_halves_beats() {
        let mut mem = MemorySystem::new(cfg(1, false, 8));
        let tag = mem.new_tag();
        drive_until_accepted(&mut mem, MemRequest::load(ReqClass::IFetch, 0x40, 16, tag));
        let (_, beats) = drain_tag(&mut mem, tag);
        assert_eq!(beats.len(), 2);
        assert_eq!(beats[0].bytes, 8);
    }

    #[test]
    fn non_pipelined_serializes_requests() {
        let mut mem = MemorySystem::new(cfg(6, false, 4));
        let t1 = mem.new_tag();
        let t2 = mem.new_tag();
        // Offer both every cycle; loads beat prefetches.
        let mut accept_cycles = Vec::new();
        for _ in 0..40 {
            let at = mem.cycle();
            mem.offer(MemRequest::load(ReqClass::DataLoad, 0x0, 4, t1));
            mem.offer(MemRequest::load(ReqClass::IPrefetch, 0x40, 4, t2));
            let out = mem.tick();
            if let Some(tag) = out.accepted {
                accept_cycles.push((tag, at));
            }
            if accept_cycles.len() == 2 {
                break;
            }
        }
        assert_eq!(accept_cycles.len(), 2);
        assert_eq!(accept_cycles[0].0, t1, "load accepted first");
        // Second acceptance must wait for the first response to finish:
        // first beat at t+6 (same-tick delivery-then-accept allows reuse).
        assert_eq!(accept_cycles[1].1 - accept_cycles[0].1, 6);
    }

    #[test]
    fn pipelined_accepts_every_cycle() {
        let mut mem = MemorySystem::new(cfg(6, true, 4));
        let t1 = mem.new_tag();
        let t2 = mem.new_tag();
        mem.offer(MemRequest::load(ReqClass::DataLoad, 0x0, 4, t1));
        let out = mem.tick();
        assert_eq!(out.accepted, Some(t1));
        mem.offer(MemRequest::load(ReqClass::DataLoad, 0x4, 4, t2));
        let out = mem.tick();
        assert_eq!(out.accepted, Some(t2));
        // Both return, in order, 6 cycles after their acceptance.
        let (_, b1) = drain_tag(&mut mem, t1);
        assert_eq!(b1.len(), 1);
        let (_, b2) = drain_tag(&mut mem, t2);
        assert_eq!(b2.len(), 1);
    }

    #[test]
    fn instruction_priority_beats_data() {
        let mut mem = MemorySystem::new(cfg(1, false, 4));
        let ti = mem.new_tag();
        let td = mem.new_tag();
        mem.offer(MemRequest::load(ReqClass::DataLoad, 0x0, 4, td));
        mem.offer(MemRequest::load(ReqClass::IFetch, 0x40, 4, ti));
        let out = mem.tick();
        assert_eq!(out.accepted, Some(ti));
        assert_eq!(mem.stats().contended_cycles, 1);
    }

    #[test]
    fn data_priority_policy() {
        let mut c = cfg(1, false, 4);
        c.priority = PriorityPolicy::DataFirst;
        let mut mem = MemorySystem::new(c);
        let ti = mem.new_tag();
        let td = mem.new_tag();
        mem.offer(MemRequest::load(ReqClass::IFetch, 0x40, 4, ti));
        mem.offer(MemRequest::load(ReqClass::DataLoad, 0x0, 4, td));
        let out = mem.tick();
        assert_eq!(out.accepted, Some(td));
    }

    #[test]
    fn prefetch_is_lowest_priority() {
        let mut mem = MemorySystem::new(cfg(1, false, 4));
        let tp = mem.new_tag();
        let ts = mem.new_tag();
        mem.offer(MemRequest::load(ReqClass::IPrefetch, 0x40, 4, tp));
        mem.offer(MemRequest::store(0x0, ts));
        let out = mem.tick();
        assert_eq!(out.accepted, Some(ts));
    }

    #[test]
    fn store_occupies_non_pipelined_memory() {
        let mut mem = MemorySystem::new(cfg(6, false, 4));
        let ts = mem.new_tag();
        let tl = mem.new_tag();
        let t0 = drive_until_accepted(&mut mem, MemRequest::store(0x200, ts));
        let t1 = drive_until_accepted(&mut mem, MemRequest::load(ReqClass::DataLoad, 0x200, 4, tl));
        assert_eq!(t1 - t0, 6);
    }

    #[test]
    fn fpu_stores_trigger_operation_and_result_returns() {
        let mut mem = MemorySystem::new(cfg(1, false, 4));
        let a = mem.new_tag();
        let b = mem.new_tag();
        drive_until_accepted(&mut mem, MemRequest::store(FPU_BASE, a));
        let t_b = drive_until_accepted(&mut mem, MemRequest::store(FPU_BASE + 4, b));
        assert_eq!(mem.stats().fpu_ops, 1);
        // Result beat (tag 0, FpuResult) after fpu_latency.
        let mut result_cycle = None;
        for _ in 0..20 {
            let at = mem.cycle();
            let out = mem.tick();
            if let Some(beat) = out.beats.as_ref() {
                if beat.source == BeatSource::FpuResult {
                    result_cycle = Some(at);
                    break;
                }
            }
        }
        let rc = result_cycle.expect("fpu result returned");
        assert_eq!(rc - t_b, 4, "fpu latency");
    }

    #[test]
    fn fpu_result_outranks_prefetch_on_input_bus() {
        // Start a multiply, then keep a prefetch in flight; when both are
        // ready for the bus the FPU result must go first.
        let mut mem = MemorySystem::new(cfg(1, true, 4));
        let a = mem.new_tag();
        let b = mem.new_tag();
        drive_until_accepted(&mut mem, MemRequest::store(FPU_BASE, a));
        drive_until_accepted(&mut mem, MemRequest::store(FPU_BASE + 4, b));
        // Prefetch accepted now; ready at +1, FPU ready at +4. Stall the
        // bus by requesting a long prefetch right when FPU becomes ready.
        let tp = mem.new_tag();
        mem.tick();
        mem.tick();
        mem.offer(MemRequest::load(ReqClass::IPrefetch, 0x40, 4, tp));
        let out = mem.tick(); // accepted; fpu ready next cycle, prefetch too
        assert_eq!(out.accepted, Some(tp));
        let out = mem.tick();
        // Both became deliverable this cycle; FPU wins.
        assert_eq!(out.beats.unwrap().source, BeatSource::FpuResult);
        let out = mem.tick();
        assert_eq!(out.beats.unwrap().source, BeatSource::IPrefetch);
    }

    #[test]
    fn is_idle_reflects_all_state() {
        let mut mem = MemorySystem::new(cfg(2, false, 4));
        assert!(mem.is_idle());
        let tag = mem.new_tag();
        mem.offer(MemRequest::load(ReqClass::DataLoad, 0x0, 4, tag));
        mem.tick();
        assert!(!mem.is_idle());
        drain_tag(&mut mem, tag);
        assert!(mem.is_idle());
    }

    #[test]
    fn offers_expire_each_cycle() {
        let mut mem = MemorySystem::new(cfg(6, false, 4));
        let t1 = mem.new_tag();
        let t2 = mem.new_tag();
        drive_until_accepted(&mut mem, MemRequest::load(ReqClass::DataLoad, 0x0, 4, t1));
        // Offer t2 once while busy — not accepted, and it must not be
        // accepted later from a stale port.
        mem.offer(MemRequest::load(ReqClass::DataLoad, 0x4, 4, t2));
        let out = mem.tick();
        assert!(out.accepted.is_none());
        assert_eq!(mem.stats().blocked_cycles, 1);
        for _ in 0..20 {
            let out = mem.tick();
            assert!(out.accepted.is_none(), "stale offer was accepted");
        }
    }

    #[test]
    fn external_cache_miss_penalty_applies() {
        use crate::extcache::ExternalCacheConfig;
        let mut c = cfg(1, false, 4);
        c.external_cache = Some(ExternalCacheConfig {
            size_bytes: 1024,
            line_bytes: 64,
            miss_penalty: 10,
        });
        let mut mem = MemorySystem::new(c);
        // First access: cold miss, +10 cycles.
        let t1 = mem.new_tag();
        let a1 = drive_until_accepted(&mut mem, MemRequest::load(ReqClass::DataLoad, 0x100, 4, t1));
        let (d1, _) = drain_tag(&mut mem, t1);
        assert_eq!(d1 - a1, 11, "access 1 + penalty 10");
        // Same line again: hit, no penalty.
        let t2 = mem.new_tag();
        let a2 = drive_until_accepted(&mut mem, MemRequest::load(ReqClass::DataLoad, 0x104, 4, t2));
        let (d2, _) = drain_tag(&mut mem, t2);
        assert_eq!(d2 - a2, 1);
        let ec = mem.external_cache().unwrap();
        assert_eq!(ec.misses(), 1);
        assert_eq!(ec.hits(), 1);
    }

    #[test]
    fn fpu_traffic_bypasses_external_cache() {
        use crate::extcache::ExternalCacheConfig;
        let mut c = cfg(1, false, 4);
        c.external_cache = Some(ExternalCacheConfig {
            size_bytes: 1024,
            line_bytes: 64,
            miss_penalty: 50,
        });
        let mut mem = MemorySystem::new(c);
        let a = mem.new_tag();
        drive_until_accepted(&mut mem, MemRequest::store(FPU_BASE, a));
        assert_eq!(mem.external_cache().unwrap().misses(), 0);
    }

    #[test]
    #[should_panic(expected = "invalid MemConfig")]
    fn invalid_config_panics() {
        let c = MemConfig {
            access_cycles: 0,
            ..MemConfig::default()
        };
        let _ = MemorySystem::new(c);
    }
}
