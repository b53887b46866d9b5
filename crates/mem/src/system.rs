//! The cycle-stepped memory system: arbitration, access timing, and
//! input-bus streaming.
//!
//! ## Timing contract
//!
//! * A client *offers* at most one request per [`ReqClass`] per cycle with
//!   [`MemorySystem::offer`], then calls [`MemorySystem::tick`]. Offers not
//!   accepted that cycle are dropped — re-offer until the class appears in
//!   [`TickOutput::accepted`]. At most one request is accepted per cycle.
//! * A request accepted at cycle *t* delivers its first beat at cycle
//!   *t + access_cycles* at the earliest, then one beat per cycle of
//!   `in_bus_bytes` until done. Within a tick, delivery happens before
//!   acceptance, so a non-pipelined memory can accept a new request on the
//!   same cycle its previous response finishes.
//! * Reads are answered in acceptance order, each response's beats back
//!   to back: a beat belongs to the oldest accepted read of its source
//!   that has not seen its last beat. Requests and beats carry no tags.
//! * A non-pipelined memory holds one request at a time (a store occupies
//!   it for `access_cycles`); a pipelined memory accepts one new request
//!   every cycle.
//! * FPU results share the input bus, ranking below demand loads/stores
//!   and above prefetches (paper §5), return in operation order, and do
//!   not occupy the memory array. Stores produce no beats.
//! * The system models timing only. It holds no data values: the client
//!   keeps the data image and the FPU's operands and results, and beats
//!   carry no values.
//! * Its timing state holds countdowns and times relative to the request
//!   before, never absolute cycles, so the
//!   [key](MemorySystem::describe_timing) is that state as it stands.

use crate::config::{MemConfig, PriorityPolicy};
use crate::extcache::ExternalCache;
use crate::fpu::{is_fpu_address, Fpu};
use crate::request::{Beat, BeatSource, MemRequest, ReqClass};
use crate::stats::MemStats;
use crate::timing::{Pipeline, TimingKey};

/// What [`MemorySystem::tick`] produced this cycle.
///
/// Arbitration accepts at most one request and the input bus delivers at
/// most one beat per cycle, so both outputs are inline `Option`s — the
/// hot loop moves two small values per tick instead of allocating
/// per-cycle `Vec`s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickOutput {
    /// Class of the request accepted this cycle, if any: the one its
    /// client offered in that class.
    pub accepted: Option<ReqClass>,
    /// Input-bus beat delivered this cycle, if any.
    pub beats: Option<Beat>,
}

/// An accepted read awaiting its first beat. `addr` is kept for
/// instruction reads only: a data load needs its address just once, at
/// acceptance.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Read {
    source: BeatSource,
    addr: u32,
    bytes: u32,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Streaming {
    source: BeatSource,
    next_addr: u32,
    remaining: u32,
}

/// The memory system's timing state (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Timing {
    fpu: Fpu,
    /// Accepted reads awaiting their first beat, each ready after the
    /// access time (plus any external-cache miss penalty).
    inflight: Pipeline<Read>,
    streaming: Option<Streaming>,
    /// Cycles a non-pipelined memory array stays busy with a store.
    store_busy: u32,
}

impl Timing {
    /// Moves the timing state one cycle on.
    #[inline]
    fn tick(&mut self) {
        self.store_busy = self.store_busy.saturating_sub(1);
        self.inflight.tick();
        self.fpu.tick();
    }
}

/// The external cache, buses, arbitration and FPU, stepped one cycle at a
/// time. See the [module docs](self) for the timing contract.
#[derive(Debug)]
pub struct MemorySystem {
    cfg: MemConfig,
    ext_cache: Option<ExternalCache>,
    ports: [Option<MemRequest>; 4],
    timing: Timing,
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
        MemorySystem {
            cfg,
            ext_cache: cfg.external_cache.map(ExternalCache::new),
            ports: [None, None, None, None],
            timing: Timing {
                fpu: Fpu::default(),
                inflight: Pipeline::default(),
                streaming: None,
                store_busy: 0,
            },
            stats: MemStats::default(),
        }
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Current cycle number (cycles completed so far).
    pub fn cycle(&self) -> u64 {
        self.stats.cycles
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
        let t = &self.timing;
        t.inflight.is_empty() && t.streaming.is_none() && t.store_busy == 0 && t.fpu.pending() == 0
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

    /// Writes the system's timing state into `key`; statistics stay out.
    /// Must be called between cycles.
    ///
    /// Returns `false`, writing nothing, when a finite external cache is
    /// modelled: its contents then affect timing, and the state cannot be
    /// described without them.
    pub fn describe_timing(&self, key: &mut TimingKey) -> bool {
        debug_assert!(self.ports.iter().all(Option::is_none), "offers pending");
        if self.ext_cache.is_some() {
            return false;
        }
        key.add(&self.timing);
        true
    }

    /// Adds the statistics of cycles applied without ticking: `delta`
    /// came from cycles that left the [described](Self::describe_timing)
    /// state unchanged, so applying them changes only the statistics.
    pub fn add_stats(&mut self, delta: &MemStats) {
        self.stats.add(delta);
    }

    /// Advances one cycle. See the module docs for the timing contract.
    pub fn tick(&mut self) -> TickOutput {
        let mut out = TickOutput::default();

        // --- Delivery (input bus) ---
        if self.timing.streaming.is_none() {
            // Choose between the oldest eligible memory response and a
            // ready FPU result.
            let front = self.timing.inflight.front_ready().map(|f| f.source);
            let fpu_ready = self.timing.fpu.has_ready();
            let pick_fpu = match front {
                Some(source) if fpu_ready => {
                    self.delivery_rank(BeatSource::FpuResult) < self.delivery_rank(source)
                }
                _ => fpu_ready,
            };
            let t = &mut self.timing;
            if pick_fpu {
                t.fpu.take_ready();
                t.streaming = Some(Streaming {
                    source: BeatSource::FpuResult,
                    next_addr: 0,
                    remaining: 4,
                });
            } else if front.is_some() {
                let f = t.inflight.pop().expect("front exists");
                t.streaming = Some(Streaming {
                    source: f.source,
                    next_addr: f.addr,
                    remaining: f.bytes,
                });
            }
        }
        if let Some(s) = &mut self.timing.streaming {
            let bytes = s.remaining.min(self.cfg.in_bus_bytes);
            let last = bytes == s.remaining;
            let beat = Beat {
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
                self.timing.streaming = None;
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
            let t = &self.timing;
            let can_accept = self.cfg.pipelined
                || (t.inflight.is_empty()
                    && t.streaming
                        .as_ref()
                        .is_none_or(|s| s.source == BeatSource::FpuResult)
                    && t.store_busy == 0);
            if can_accept {
                for class in self.acceptance_order() {
                    if let Some(req) = self.ports[class.index()].take() {
                        self.accept(class, req);
                        out.accepted = Some(class);
                        break;
                    }
                }
            } else {
                self.stats.blocked_cycles += 1;
            }

            // Offers expire.
            self.ports = [None, None, None, None];
        }

        self.timing.tick();
        self.stats.cycles += 1;
        out
    }

    /// Accepts `req`, offered in `class`.
    fn accept(&mut self, class: ReqClass, req: MemRequest) {
        self.stats.accepted[class.index()] += 1;
        self.stats.out_bus_busy_cycles += 1;
        let t = &mut self.timing;
        // Finite-external-cache extension: a miss delays the access while
        // the line comes from main memory. FPU traffic bypasses the
        // external cache.
        let mut penalty = 0;
        if !is_fpu_address(req.addr) {
            if let Some(ec) = &mut self.ext_cache {
                penalty = ec.access(req.addr, req.bytes) * ec.config().miss_penalty;
            }
        }
        let wait = self.cfg.access_cycles + penalty;
        match class {
            ReqClass::DataStore => {
                if is_fpu_address(req.addr) && t.fpu.store(req.addr) {
                    self.stats.fpu_ops += 1;
                }
                if !self.cfg.pipelined {
                    t.store_busy = wait;
                }
            }
            _ => t.inflight.push(
                Read {
                    source: Self::source_for(class),
                    addr: if class.is_instruction() { req.addr } else { 0 },
                    bytes: req.bytes,
                },
                wait,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fpu::{FPU_BASE, FPU_LATENCY};

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
            if out.accepted == Some(req.class) {
                return at;
            }
        }
        panic!("request never accepted");
    }

    /// Ticks until the final beat of the oldest response from `source`
    /// arrives; returns (cycle, beats).
    fn drain(mem: &mut MemorySystem, source: BeatSource) -> (u64, Vec<Beat>) {
        let mut beats = Vec::new();
        for _ in 0..1000 {
            let at = mem.cycle();
            let out = mem.tick();
            if let Some(b) = out.beats.filter(|b| b.source == source) {
                beats.push(b);
                if b.last {
                    return (at, beats);
                }
            }
        }
        panic!("response never completed");
    }

    #[test]
    fn load_latency_matches_access_time() {
        for access in [1, 2, 3, 6] {
            let mut mem = MemorySystem::new(cfg(access, false, 4));
            let t0 = drive_until_accepted(&mut mem, MemRequest::load(ReqClass::DataLoad, 0x100, 4));
            let (t1, beats) = drain(&mut mem, BeatSource::DataLoad);
            assert_eq!(t1 - t0, u64::from(access), "access={access}");
            assert_eq!(beats.len(), 1);
        }
    }

    #[test]
    fn line_streams_over_narrow_bus() {
        let mut mem = MemorySystem::new(cfg(6, false, 4));
        let t0 = drive_until_accepted(&mut mem, MemRequest::load(ReqClass::IFetch, 0x40, 16));
        let (t_last, beats) = drain(&mut mem, BeatSource::IFetch);
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
        drive_until_accepted(&mut mem, MemRequest::load(ReqClass::IFetch, 0x40, 16));
        let (_, beats) = drain(&mut mem, BeatSource::IFetch);
        assert_eq!(beats.len(), 2);
        assert_eq!(beats[0].bytes, 8);
    }

    #[test]
    fn non_pipelined_serializes_requests() {
        let mut mem = MemorySystem::new(cfg(6, false, 4));
        // Offer the load until accepted and the prefetch every cycle;
        // loads beat prefetches.
        let mut accept_cycles = Vec::new();
        for _ in 0..40 {
            let at = mem.cycle();
            if accept_cycles.is_empty() {
                mem.offer(MemRequest::load(ReqClass::DataLoad, 0x0, 4));
            }
            mem.offer(MemRequest::load(ReqClass::IPrefetch, 0x40, 4));
            let out = mem.tick();
            if let Some(class) = out.accepted {
                accept_cycles.push((class, at));
            }
            if accept_cycles.len() == 2 {
                break;
            }
        }
        assert_eq!(accept_cycles.len(), 2);
        assert_eq!(
            accept_cycles[0].0,
            ReqClass::DataLoad,
            "load accepted first"
        );
        // Second acceptance must wait for the first response to finish:
        // first beat at t+6 (same-tick delivery-then-accept allows reuse).
        assert_eq!(accept_cycles[1].1 - accept_cycles[0].1, 6);
    }

    #[test]
    fn pipelined_accepts_every_cycle() {
        let mut mem = MemorySystem::new(cfg(6, true, 4));
        mem.offer(MemRequest::load(ReqClass::DataLoad, 0x0, 4));
        let out = mem.tick();
        assert_eq!(out.accepted, Some(ReqClass::DataLoad));
        mem.offer(MemRequest::load(ReqClass::DataLoad, 0x4, 4));
        let out = mem.tick();
        assert_eq!(out.accepted, Some(ReqClass::DataLoad));
        // Both return, in order, 6 cycles after their acceptance.
        let (t1, b1) = drain(&mut mem, BeatSource::DataLoad);
        assert_eq!((t1, b1.len()), (6, 1));
        let (t2, b2) = drain(&mut mem, BeatSource::DataLoad);
        assert_eq!((t2, b2.len()), (7, 1));
    }

    #[test]
    fn instruction_priority_beats_data() {
        let mut mem = MemorySystem::new(cfg(1, false, 4));
        mem.offer(MemRequest::load(ReqClass::DataLoad, 0x0, 4));
        mem.offer(MemRequest::load(ReqClass::IFetch, 0x40, 4));
        let out = mem.tick();
        assert_eq!(out.accepted, Some(ReqClass::IFetch));
        assert_eq!(mem.stats().contended_cycles, 1);
    }

    #[test]
    fn data_priority_policy() {
        let mut c = cfg(1, false, 4);
        c.priority = PriorityPolicy::DataFirst;
        let mut mem = MemorySystem::new(c);
        mem.offer(MemRequest::load(ReqClass::IFetch, 0x40, 4));
        mem.offer(MemRequest::load(ReqClass::DataLoad, 0x0, 4));
        let out = mem.tick();
        assert_eq!(out.accepted, Some(ReqClass::DataLoad));
    }

    #[test]
    fn prefetch_is_lowest_priority() {
        let mut mem = MemorySystem::new(cfg(1, false, 4));
        mem.offer(MemRequest::load(ReqClass::IPrefetch, 0x40, 4));
        mem.offer(MemRequest::store(0x0));
        let out = mem.tick();
        assert_eq!(out.accepted, Some(ReqClass::DataStore));
    }

    #[test]
    fn store_occupies_non_pipelined_memory() {
        let mut mem = MemorySystem::new(cfg(6, false, 4));
        let t0 = drive_until_accepted(&mut mem, MemRequest::store(0x200));
        let t1 = drive_until_accepted(&mut mem, MemRequest::load(ReqClass::DataLoad, 0x200, 4));
        assert_eq!(t1 - t0, 6);
    }

    #[test]
    fn fpu_stores_trigger_operation_and_result_returns() {
        let mut mem = MemorySystem::new(cfg(1, false, 4));
        drive_until_accepted(&mut mem, MemRequest::store(FPU_BASE));
        let t_b = drive_until_accepted(&mut mem, MemRequest::store(FPU_BASE + 4));
        assert_eq!(mem.stats().fpu_ops, 1);
        // Result beat (FpuResult) after FPU_LATENCY.
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
        assert_eq!(rc - t_b, u64::from(FPU_LATENCY), "fpu latency");
    }

    #[test]
    fn fpu_result_outranks_prefetch_on_input_bus() {
        // Start a multiply, then keep a prefetch in flight; when both are
        // ready for the bus the FPU result must go first.
        let mut mem = MemorySystem::new(cfg(1, true, 4));
        drive_until_accepted(&mut mem, MemRequest::store(FPU_BASE));
        drive_until_accepted(&mut mem, MemRequest::store(FPU_BASE + 4));
        // Prefetch accepted now; ready at +1, FPU ready at +4. Stall the
        // bus by requesting a long prefetch right when FPU becomes ready.
        mem.tick();
        mem.tick();
        mem.offer(MemRequest::load(ReqClass::IPrefetch, 0x40, 4));
        let out = mem.tick(); // accepted; fpu ready next cycle, prefetch too
        assert_eq!(out.accepted, Some(ReqClass::IPrefetch));
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
        mem.offer(MemRequest::load(ReqClass::DataLoad, 0x0, 4));
        mem.tick();
        assert!(!mem.is_idle());
        drain(&mut mem, BeatSource::DataLoad);
        assert!(mem.is_idle());
        drive_until_accepted(&mut mem, MemRequest::store(0x0));
        assert!(!mem.is_idle(), "a store occupies the array");
        mem.tick();
        assert!(mem.is_idle());
    }

    #[test]
    fn offers_expire_each_cycle() {
        let mut mem = MemorySystem::new(cfg(6, false, 4));
        drive_until_accepted(&mut mem, MemRequest::load(ReqClass::DataLoad, 0x0, 4));
        // Offer a second load once while busy — not accepted, and it must
        // not be accepted later from a stale port.
        mem.offer(MemRequest::load(ReqClass::DataLoad, 0x4, 4));
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
        let a1 = drive_until_accepted(&mut mem, MemRequest::load(ReqClass::DataLoad, 0x100, 4));
        let (d1, _) = drain(&mut mem, BeatSource::DataLoad);
        assert_eq!(d1 - a1, 11, "access 1 + penalty 10");
        // Same line again: hit, no penalty.
        let a2 = drive_until_accepted(&mut mem, MemRequest::load(ReqClass::DataLoad, 0x104, 4));
        let (d2, _) = drain(&mut mem, BeatSource::DataLoad);
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
        drive_until_accepted(&mut mem, MemRequest::store(FPU_BASE));
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
