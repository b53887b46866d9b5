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
use pipe_mem::{Beat, BeatSource, ConfigError, MemorySystem, ReqClass};

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

#[derive(Debug, Clone, Copy)]
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
    cache: Option<InstructionCache>,
    /// Prefetched instructions awaiting the decoder.
    fq: ParcelQueue,
    stream_end: u32,
    pendings: VecDeque<Pending>,
    redirect: Redirect,
    stats: FetchStats,
}

impl BufferFetch {
    /// Creates a prefetch-buffer engine over `program` with a
    /// configuration that [`FetchConfig::build`](crate::FetchConfig::build)
    /// has validated.
    pub(crate) fn new(program: &Program, cfg: BufferConfig) -> BufferFetch {
        let image = program.image();
        BufferFetch {
            cache: cfg.cache.map(InstructionCache::new),
            fq: ParcelQueue::new(&image, cfg.buffers * 4),
            image,
            stream_end: program.entry(),
            pendings: VecDeque::new(),
            redirect: Redirect::default(),
            stats: FetchStats::default(),
        }
    }

    fn maybe_trigger(&mut self) {
        let Some(target) = self.redirect.take_due() else {
            return;
        };
        self.stats.redirects += 1;
        self.stats.flushed_parcels += self.fq.len() as u64;
        self.fq.restart(target);
        for p in &mut self.pendings {
            if p.live {
                p.live = false;
                self.stats.wasted_requests += 1;
            }
        }
        self.stream_end = target;
    }

    /// Keeps the buffers full: cache copies are instant; off-chip fills
    /// are limited by the buffer count (outstanding requests). Supply is
    /// strictly in stream order: the cache path may not run ahead of an
    /// off-chip fill still in flight.
    fn supply(&mut self) {
        loop {
            let live_pendings = self.pendings.iter().filter(|p| p.live).count();
            let outstanding_bytes: u32 = self
                .pendings
                .iter()
                .filter(|p| p.live)
                .map(|p| p.req.bytes)
                .sum();
            if self.image.parcel_at(self.stream_end).is_none() {
                return;
            }
            let room = (self.fq.room() as u32) * PARCEL_BYTES;
            if room < outstanding_bytes + 4 {
                return; // every free slot already has a fill in flight
            }
            let need = self.stream_end;
            // Probe the optional cache: a hit supplies the buffer at once
            // — but only when no earlier bytes are still in flight, since
            // the queue must stay contiguous.
            if live_pendings == 0 {
                if let Some(cache) = &mut self.cache {
                    if cache.contains(need, 4) {
                        self.stats.cache_hits += 1;
                        self.fq.fill_from(need, need + 4);
                        self.stream_end = need + 4;
                        continue;
                    }
                    self.stats.cache_misses += 1;
                }
            }
            // Off-chip: one instruction (4 bytes) per buffer slot.
            if self.pendings.iter().any(|p| !p.req.accepted) {
                return; // one *unaccepted* offer at a time per port
            }
            self.pendings.push_back(Pending {
                req: Request::new(ReqClass::IPrefetch, need, 4),
                live: true,
            });
            self.stream_end = need + 4;
            return;
        }
    }
}

impl FetchEngine for BufferFetch {
    fn offer_requests(&mut self, mem: &mut MemorySystem) {
        self.maybe_trigger();
        self.supply();
        // Demand class when the decoder is starved, prefetch otherwise.
        let starved = self.fq.needs_refill();
        if let Some(p) = self.pendings.iter_mut().find(|p| !p.req.accepted) {
            p.req.class = if starved && p.live {
                ReqClass::IFetch
            } else {
                ReqClass::IPrefetch
            };
            p.req.offer(mem);
        }
    }

    fn on_accepted(&mut self, tag: u64) {
        for p in &mut self.pendings {
            if p.req.accept(tag, &mut self.stats) {
                return;
            }
        }
    }

    fn on_beat(&mut self, beat: &Beat) {
        debug_assert!(matches!(
            beat.source,
            BeatSource::IFetch | BeatSource::IPrefetch
        ));
        let Some(idx) = self.pendings.iter().position(|p| p.req.tag == beat.tag) else {
            return;
        };
        if let Some(c) = &mut self.cache {
            c.fill(beat.addr, beat.bytes);
        }
        let p = self.pendings[idx];
        if p.live {
            let mut a = beat.addr;
            while a < beat.addr + beat.bytes {
                // Only queue parcels that continue the stream exactly
                // (end_addr equals front_addr when the queue is empty).
                if self.fq.end_addr() == a {
                    if self.fq.room() == 0 {
                        // Should be unreachable: supply() never schedules
                        // more live bytes than the queue has room for.
                        debug_assert!(false, "buffer overflow at {a:#x}");
                        // Recover by re-fetching the remainder later.
                        self.stream_end = self.stream_end.min(a);
                        self.pendings[idx].live = false;
                        break;
                    }
                    self.fq.push(a);
                } else if self.fq.is_empty() {
                    debug_assert!(
                        false,
                        "live beat {a:#x} does not continue the stream (head {:#x})",
                        self.fq.front_addr()
                    );
                }
                a += PARCEL_BYTES;
            }
        }
        if beat.last {
            self.pendings.remove(idx);
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
        !self.pendings.is_empty()
    }

    fn describe_timing(&self, key: &mut Vec<u64>, next_tag: u64) {
        // The fetch queue is a window onto the image: its head address and
        // length describe it.
        if let Some(cache) = &self.cache {
            cache.describe(key);
        }
        key.extend([
            u64::from(self.fq.front_addr()),
            self.fq.len() as u64,
            u64::from(self.stream_end),
            self.pendings.len() as u64,
        ]);
        for p in &self.pendings {
            p.req.describe(key, next_tag);
            key.push(u64::from(p.live));
        }
        self.redirect.describe(key);
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
        "prefetch-buffers"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipe_isa::{Assembler, InstrFormat};
    use pipe_mem::MemConfig;

    fn program() -> Program {
        Assembler::new(InstrFormat::Fixed32)
            .assemble("nop\nnop\nnop\nnop\nnop\nnop\nnop\nhalt\n")
            .unwrap()
    }

    fn mem(access: u32, pipelined: bool) -> MemorySystem {
        MemorySystem::new(MemConfig {
            access_cycles: access,
            pipelined,
            in_bus_bytes: 4,
            ..MemConfig::default()
        })
    }

    fn cycle(f: &mut BufferFetch, m: &mut MemorySystem) -> bool {
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

    fn run_all(buffers: u32, access: u32, pipelined: bool) -> (u32, u64) {
        let p = program();
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
        let (one, _) = run_all(1, 4, true);
        let (four, _) = run_all(4, 4, true);
        assert!(four < one, "4 buffers {four} !< 1 buffer {one}");
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
