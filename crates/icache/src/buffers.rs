//! A Rau & Rossman-style prefetch-buffer fetch engine.
//!
//! Section 2.1 of the paper opens with Rau & Rossman's study of "Prefetch
//! Buffers in conjunction with an Instruction Buffer": the decoder takes
//! instructions directly out of a bank of sequential prefetch buffers,
//! which the fetch logic keeps as full as the buffer count and memory
//! allow. Their findings, which this engine lets us reproduce:
//!
//! * "a reduction of up to 50 % in average I-Fetch delay can be achieved";
//! * "within certain bounds, better performance can be achieved by using
//!   more buffers", but
//! * "increasing the number of Prefetch Buffers increases memory traffic".
//!
//! Model: `buffers` one-instruction (4-byte) prefetch slots ahead of the
//! decoder, an optional instruction cache probed before going off-chip,
//! and — unlike the conventional engine — up to `buffers` *outstanding*
//! memory requests at once (the point of having several buffers).

use std::collections::VecDeque;

use pipe_isa::{Image, Program, PARCEL_BYTES};
use pipe_mem::error::require_at_least;
use pipe_mem::{Beat, BeatSource, ConfigError, MemorySystem, ReqClass, TimingKey};

use crate::cache::{CacheConfig, InstructionCache};
use crate::engine::{FetchEngine, Redirect, Request};
use crate::queue::ParcelQueue;
use crate::stats::FetchStats;

/// Geometry of a [`BufferFetch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferConfig {
    /// Number of 4-byte prefetch buffers (lookahead depth and maximum
    /// outstanding requests).
    pub buffers: u32,
    /// Optional instruction cache probed before fetching off-chip (Rau &
    /// Rossman's "Instruction Buffer").
    pub cache: Option<CacheConfig>,
}

impl BufferConfig {
    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for zero buffers or an invalid cache
    /// geometry.
    pub fn validate(&self) -> Result<(), ConfigError> {
        require_at_least("buffers", u64::from(self.buffers), 1)?;
        if let Some(c) = &self.cache {
            c.validate()?;
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Pending {
    /// Offered as a demand fetch while the decoder is starved and the fill
    /// is live, as a prefetch otherwise.
    req: Request,
    /// `false` once a redirect made the fill wrong-path (cache-only).
    live: bool,
}

/// The prefetch-buffer engine. See the [module docs](self).
#[derive(Debug)]
pub struct BufferFetch {
    image: Image,
    state: BufferState,
    stats: FetchStats,
}

/// The prefetch-buffer engine's timing state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct BufferState {
    cache: Option<InstructionCache>,
    /// Prefetched instructions awaiting the decoder.
    fq: ParcelQueue,
    stream_end: u32,
    /// Off-chip fills in acceptance order, the one waiting (if any) last.
    pendings: VecDeque<Pending>,
    redirect: Redirect,
}

impl BufferFetch {
    /// Creates a prefetch-buffer engine over `program` with a
    /// configuration that [`FetchConfig::build`](crate::FetchConfig::build)
    /// has validated.
    pub(crate) fn new(program: &Program, cfg: BufferConfig) -> BufferFetch {
        let image = program.image();
        BufferFetch {
            state: BufferState {
                cache: cfg.cache.map(InstructionCache::new),
                fq: ParcelQueue::new(&image, cfg.buffers * 4, program.entry()),
                stream_end: program.entry(),
                pendings: VecDeque::new(),
                redirect: Redirect::default(),
            },
            image,
            stats: FetchStats::default(),
        }
    }

    fn maybe_trigger(&mut self) {
        let Some(target) = self.state.redirect.take_due() else {
            return;
        };
        self.stats.redirects += 1;
        self.stats.flushed_parcels += self.state.fq.len() as u64;
        self.state.fq.restart(target);
        for p in &mut self.state.pendings {
            if p.live {
                p.live = false;
                self.stats.wasted_requests += 1;
            }
        }
        self.state.stream_end = target;
    }

    /// Keeps the buffers full: cache copies are instant; off-chip fills
    /// are limited by the buffer count (outstanding requests). Supply is
    /// strictly in stream order: the cache path may not run ahead of an
    /// off-chip fill still in flight.
    fn supply(&mut self) {
        loop {
            let live_pendings = self.state.pendings.iter().filter(|p| p.live).count();
            let outstanding_bytes: u32 = self
                .state
                .pendings
                .iter()
                .filter(|p| p.live)
                .map(|p| p.req.bytes)
                .sum();
            if self.image.parcel_at(self.state.stream_end).is_none() {
                return;
            }
            let room = (self.state.fq.room() as u32) * PARCEL_BYTES;
            if room < outstanding_bytes + 4 {
                return; // every free slot already has a fill in flight
            }
            let need = self.state.stream_end;
            // Probe the optional cache: a hit supplies the buffer at once
            // — but only when no earlier bytes are still in flight, since
            // the queue must stay contiguous.
            if live_pendings == 0 {
                if let Some(cache) = &mut self.state.cache {
                    if cache.contains(need, 4) {
                        self.stats.cache_hits += 1;
                        self.state.fq.fill_from(need, need + 4);
                        self.state.stream_end = need + 4;
                        continue;
                    }
                    self.stats.cache_misses += 1;
                }
            }
            // Off-chip: one instruction (4 bytes) per buffer slot.
            if self.state.pendings.iter().any(|p| !p.req.accepted()) {
                return; // one *unaccepted* offer at a time per port
            }
            self.state.pendings.push_back(Pending {
                req: Request::new(ReqClass::IPrefetch, need, 4),
                live: true,
            });
            self.state.stream_end = need + 4;
            return;
        }
    }
}

impl FetchEngine for BufferFetch {
    fn offer_requests(&mut self, mem: &mut MemorySystem) {
        self.maybe_trigger();
        self.supply();
        // Demand class when the decoder is starved, prefetch otherwise.
        let starved = self.state.fq.needs_refill();
        if let Some(p) = self.state.pendings.iter_mut().find(|p| !p.req.accepted()) {
            p.req.class = if starved && p.live {
                ReqClass::IFetch
            } else {
                ReqClass::IPrefetch
            };
            p.req.offer(mem);
        }
    }

    fn on_accepted(&mut self, class: ReqClass) {
        // The newest fill is the only one that can wait (see `supply`).
        let p = self.state.pendings.back_mut();
        let p = p.expect("memory accepted a request never offered");
        p.req.accept(class, &mut self.stats);
    }

    fn on_beat(&mut self, beat: &Beat) {
        debug_assert!(matches!(
            beat.source,
            BeatSource::IFetch | BeatSource::IPrefetch
        ));
        let p = self
            .state
            .pendings
            .front_mut()
            .expect("beat without a request");
        p.req.receive(beat);
        let p = *p;
        if let Some(c) = &mut self.state.cache {
            c.fill(beat.addr, beat.bytes);
        }
        if p.live {
            let mut a = beat.addr;
            while a < beat.addr + beat.bytes {
                // Only queue parcels that continue the stream exactly
                // (end_addr equals front_addr when the queue is empty).
                if self.state.fq.end_addr() == a {
                    if self.state.fq.room() == 0 {
                        // Should be unreachable: supply() never schedules
                        // more live bytes than the queue has room for.
                        debug_assert!(false, "buffer overflow at {a:#x}");
                        // Recover by re-fetching the remainder later.
                        self.state.stream_end = self.state.stream_end.min(a);
                        self.state.pendings[0].live = false;
                        break;
                    }
                    self.state.fq.push(a);
                } else if self.state.fq.is_empty() {
                    debug_assert!(
                        false,
                        "live beat {a:#x} does not continue the stream (head {:#x})",
                        self.state.fq.front_addr()
                    );
                }
                a += PARCEL_BYTES;
            }
        }
        if beat.last {
            self.state.pendings.pop_front();
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
        self.state.pendings.len()
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
        "prefetch-buffers"
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
            .assemble("nop\nnop\nnop\nnop\nnop\nnop\nnop\nhalt\n")
            .unwrap()
    }

    /// [`program`] placed at byte address `base`.
    fn program_at(base: u32) -> Program {
        let p = program();
        let parcels = p.parcels().to_vec();
        Program::from_raw(parcels, base, base, p.format(), p.symbols().clone(), vec![])
    }

    fn mem(access: u32, pipelined: bool) -> MemorySystem {
        MemorySystem::new(MemConfig {
            access_cycles: access,
            pipelined,
            in_bus_bytes: 4,
            ..MemConfig::default()
        })
    }

    fn run_all(base: u32, buffers: u32, access: u32, pipelined: bool) -> (u32, u64) {
        let p = program_at(base);
        let mut f = BufferFetch::new(
            &p,
            BufferConfig {
                buffers,
                cache: None,
            },
        );
        let mut m = mem(access, pipelined);
        let mut consumed = 0;
        let mut cycles = 0;
        while consumed < 8 && cycles < 500 {
            if cycle(&mut f, &mut m) {
                consumed += 1;
            }
            cycles += 1;
        }
        assert_eq!(consumed, 8, "program completes");
        (cycles, f.stats().bytes_requested)
    }

    #[test]
    fn more_buffers_help_with_pipelined_memory() {
        // Rau & Rossman: more buffers → better performance (multiple
        // outstanding requests hide latency once memory is pipelined).
        let (one, _) = run_all(0, 1, 4, true);
        let (four, _) = run_all(0, 4, 4, true);
        assert!(four < one, "4 buffers {four} !< 1 buffer {one}");
    }

    #[test]
    fn starts_at_a_nonzero_base() {
        // The fetch queue starts at the program entry: one that started
        // at address 0 dropped the first beat of a program placed higher
        // and starved forever.
        for base in [4, 12] {
            run_all(base, 2, 1, false);
        }
    }

    #[test]
    fn a_cache_probe_may_straddle_lines() {
        // At a base of 2 mod 4 the Fixed32 instruction at 0xe straddles
        // two cache lines; probing it used to compute a sub-block mask
        // across the line boundary (a debug-build panic). The revisit
        // probes every instruction.
        let p = program_at(2);
        let cache = Some(CacheConfig::new(64, 16));
        let mut f = BufferFetch::new(&p, BufferConfig { buffers: 2, cache });
        let mut m = mem(1, false);
        let mut consumed = 0;
        for _ in 0..200 {
            consumed += usize::from(cycle(&mut f, &mut m));
        }
        assert_eq!(consumed, 8);
        f.resolve_branch(true, 0, 2);
        for _ in 0..20 {
            cycle(&mut f, &mut m);
        }
        assert_eq!(f.stats().instructions_delivered, 16);
        assert!(f.stats().cache_hits >= 7, "{:?}", f.stats());
    }

    #[test]
    fn validation() {
        assert!(BufferConfig {
            buffers: 0,
            cache: None
        }
        .validate()
        .is_err());
        assert!(BufferConfig {
            buffers: 4,
            cache: Some(CacheConfig::new(64, 16))
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn cache_hits_supply_instantly() {
        let p = program();
        let mut f = BufferFetch::new(
            &p,
            BufferConfig {
                buffers: 2,
                cache: Some(CacheConfig::new(64, 16)),
            },
        );
        let mut m = mem(6, false);
        // First pass: the instructions come off-chip and fill the cache.
        let mut consumed = 0;
        for _ in 0..300 {
            if cycle(&mut f, &mut m) {
                consumed += 1;
            }
            if consumed == 6 {
                break;
            }
        }
        assert_eq!(consumed, 6);
        // Branch back to the start: the revisit is supplied from the cache.
        f.resolve_branch(true, 0, 0);
        let hits = f.stats().cache_hits;
        let mut revisited = 0;
        for _ in 0..100 {
            if cycle(&mut f, &mut m) {
                revisited += 1;
            }
            if revisited == 4 {
                break;
            }
        }
        assert_eq!(revisited, 4, "re-run from cache");
        assert!(
            f.stats().cache_hits > hits,
            "cache supplied the revisit: {:?}",
            f.stats()
        );
    }
}
