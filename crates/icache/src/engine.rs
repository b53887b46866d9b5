//! The interface between the processor core and an instruction-fetch
//! engine.

use pipe_mem::{Beat, MemRequest, MemorySystem, ReqClass};

use crate::stats::FetchStats;

/// An instruction-fetch front-end driven once per cycle by the processor.
///
/// ## Per-cycle protocol
///
/// The processor owns the [`MemorySystem`] and calls, in order:
///
/// 1. [`offer_requests`](FetchEngine::offer_requests) — the engine offers
///    its demand fetch and/or prefetch for this cycle's arbitration.
/// 2. `mem.tick()` (done by the processor).
/// 3. [`on_accepted`](FetchEngine::on_accepted) for each accepted tag
///    (engines ignore tags that are not theirs), then
///    [`on_beat`](FetchEngine::on_beat) for each instruction-class beat.
/// 4. [`advance`](FetchEngine::advance) — internal moves: queue transfers,
///    cache-hit fills, redirect triggering.
/// 5. Decode: [`peek`](FetchEngine::peek) /
///    [`consume`](FetchEngine::consume), plus
///    [`resolve_branch`](FetchEngine::resolve_branch) when a
///    prepare-to-branch leaves execution.
///
/// Engines deliver instructions in *stream order*: sequential flow,
/// altered only by `resolve_branch(taken = true, ..)`, which schedules a
/// redirect after the branch's remaining delay-slot instructions.
pub trait FetchEngine {
    /// Offers this cycle's memory requests (if any) for arbitration.
    fn offer_requests(&mut self, mem: &mut MemorySystem);

    /// Notifies the engine that the request with `tag` was accepted.
    /// Unknown tags must be ignored.
    fn on_accepted(&mut self, tag: u64);

    /// Routes an instruction-class input-bus beat to the engine. Beats for
    /// stale (redirected-past) requests still fill the cache but are not
    /// queued.
    fn on_beat(&mut self, beat: &Beat);

    /// Performs the engine's internal cycle work after memory activity:
    /// IQB→IQ transfer, cache-hit fills, pending-redirect triggering.
    fn advance(&mut self);

    /// Returns the complete instruction at the head of the stream, if
    /// available this cycle: `(first_parcel, immediate_parcel)`.
    fn peek(&self) -> Option<(u16, Option<u16>)>;

    /// Image parcel index of the instruction [`peek`](FetchEngine::peek)
    /// would return: `Some(i)` exactly when `peek` returns `Some`, and
    /// then the parcels `peek` yields are `image[i]` (and `image[i + 1]`
    /// for the optional second parcel), so a predecoded lookup at `i` is
    /// equivalent to decoding them. The processor issues from this index
    /// alone; debug builds check it against `peek`.
    fn peek_index(&self) -> Option<usize>;

    /// Consumes the instruction returned by [`peek`](FetchEngine::peek).
    ///
    /// # Panics
    ///
    /// Implementations may panic if called when `peek` returns `None`.
    fn consume(&mut self);

    /// Reports the outcome of a prepare-to-branch that has just resolved in
    /// execution. `remaining` is the number of delay-slot instructions not
    /// yet consumed; after consuming that many more instructions the stream
    /// continues at `target` (byte address) when `taken`, or sequentially
    /// when not.
    ///
    /// A taken resolution lets the PIPE engine begin filling the IQB from
    /// the target immediately, while the delay slots drain — the paper's
    /// key mechanism for gap-free taken branches.
    fn resolve_branch(&mut self, taken: bool, remaining: u32, target: u32);

    /// Returns `true` while the engine has requests in flight (used to
    /// drain the simulation cleanly at halt, and by the frozen stop).
    fn has_outstanding(&self) -> bool;

    /// Appends the engine's timing state to `key`, for the processor's
    /// loop-iteration skip and frozen stop: two states that describe
    /// identically must behave identically from then on, given the same
    /// memory events and decode activity. Tags are written relative to
    /// `next_tag` (the memory system's tag counter), a pending redirect as
    /// its countdown, and statistics not at all.
    ///
    /// Must be called between cycles.
    fn describe_timing(&self, key: &mut Vec<u64>, next_tag: u64);

    /// Applies one more repeat of a loop iteration that left the engine
    /// in the same [described](FetchEngine::describe_timing) state: `tags`
    /// more memory tags were handed out, and `stats` — the iteration's
    /// statistics delta, which includes the instructions it delivered —
    /// is added. The frozen stop calls it too, with no tags and the
    /// statistics of the cycles it charges.
    fn shift_timing(&mut self, tags: u64, stats: &FetchStats);

    /// The engine's statistics.
    fn stats(&self) -> &FetchStats;

    /// A short human-readable name ("conventional", "pipe", ...).
    fn name(&self) -> &'static str;
}

/// The prepare-to-branch redirect every engine follows: a taken
/// resolution switches the stream to its target once the branch's
/// remaining delay-slot instructions have been delivered. It counts those
/// deliveries down, so it reads the same however many instructions came
/// before.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Redirect(Option<(u32, u32)>);

impl Redirect {
    /// Schedules the switch to `target` after `remaining` more
    /// deliveries when `taken`; a not-taken resolution changes nothing.
    pub(crate) fn resolve(&mut self, taken: bool, remaining: u32, target: u32) {
        if taken {
            self.0 = Some((remaining, target));
        }
    }

    /// Counts one delivered instruction against the delay slots.
    pub(crate) fn delivered(&mut self) {
        if let Some((remaining, _)) = &mut self.0 {
            *remaining -= 1;
        }
    }

    /// Takes the target once no delay-slot instruction remains.
    pub(crate) fn take_due(&mut self) -> Option<u32> {
        match self.0 {
            Some((0, target)) => {
                self.0 = None;
                Some(target)
            }
            _ => None,
        }
    }

    /// `(delay-slot instructions still to come, target)` while a redirect
    /// is pending.
    pub(crate) fn pending(&self) -> Option<(u32, u32)> {
        self.0
    }

    /// Appends the countdown to a timing key.
    pub(crate) fn describe(&self, key: &mut Vec<u64>) {
        match self.0 {
            Some((remaining, target)) => {
                key.extend([1, u64::from(remaining), u64::from(target)]);
            }
            None => key.push(0),
        }
    }
}

/// One off-chip instruction request: its memory tag, assigned on the
/// first offer (0 until then), whether memory has accepted it, and what it
/// asks for. Engines wrap it with where its beats go.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Request {
    pub(crate) tag: u64,
    pub(crate) accepted: bool,
    pub(crate) class: ReqClass,
    pub(crate) addr: u32,
    pub(crate) bytes: u32,
}

impl Request {
    /// A request not yet offered.
    pub(crate) fn new(class: ReqClass, addr: u32, bytes: u32) -> Request {
        Request {
            tag: 0,
            accepted: false,
            class,
            addr,
            bytes,
        }
    }

    /// Offers the request for this cycle's arbitration, taking a tag on
    /// the first offer.
    pub(crate) fn offer(&mut self, mem: &mut MemorySystem) {
        if self.tag == 0 {
            self.tag = mem.new_tag();
        }
        mem.offer(MemRequest::load(
            self.class, self.addr, self.bytes, self.tag,
        ));
    }

    /// Marks the request accepted if `tag` is its own and it was still
    /// waiting, counting it into `stats` by class; returns whether it was.
    pub(crate) fn accept(&mut self, tag: u64, stats: &mut FetchStats) -> bool {
        if self.tag != tag || self.accepted {
            return false;
        }
        self.accepted = true;
        match self.class {
            ReqClass::IFetch => stats.demand_requests += 1,
            _ => stats.prefetch_requests += 1,
        }
        stats.bytes_requested += u64::from(self.bytes);
        true
    }

    /// Appends the request to a timing key, its tag relative to
    /// `next_tag` (0 while unassigned).
    pub(crate) fn describe(&self, key: &mut Vec<u64>, next_tag: u64) {
        key.extend([
            if self.tag == 0 {
                0
            } else {
                next_tag - self.tag
            },
            u64::from(self.accepted),
            self.class.index() as u64,
            u64::from(self.addr),
            u64::from(self.bytes),
        ]);
    }

    /// Moves an assigned tag `tags` tags on, as one more repeat of a loop
    /// iteration that handed out `tags` tags does.
    pub(crate) fn shift(&mut self, tags: u64) {
        if self.tag != 0 {
            self.tag += tags;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipe_mem::MemConfig;

    fn key(redirect: &Redirect) -> Vec<u64> {
        let mut key = Vec::new();
        redirect.describe(&mut key);
        key
    }

    #[test]
    fn zero_delay_taken_resolve_redirects_at_once() {
        let mut r = Redirect::default();
        r.resolve(true, 0, 0x40);
        assert_eq!(r.take_due(), Some(0x40));
        assert_eq!(r.pending(), None);
        assert_eq!(r.take_due(), None, "taken once");
    }

    #[test]
    fn remaining_slots_redirect_after_exactly_that_many_consumes() {
        for slots in 1..=4 {
            let mut r = Redirect::default();
            r.resolve(true, slots, 0x40);
            for left in (1..=slots).rev() {
                assert_eq!(r.pending(), Some((left, 0x40)));
                assert_eq!(r.take_due(), None, "{left} of {slots} slots left");
                r.delivered();
            }
            assert_eq!(r.take_due(), Some(0x40), "{slots} slots");
        }
    }

    #[test]
    fn not_taken_resolve_is_a_no_op() {
        let mut r = Redirect::default();
        r.resolve(false, 0, 0x40);
        assert_eq!(r, Redirect::default());
        // Nor does it cancel a pending redirect.
        r.resolve(true, 2, 0x80);
        r.resolve(false, 0, 0x40);
        assert_eq!(r.pending(), Some((2, 0x80)));
    }

    #[test]
    fn redirect_key_is_the_countdown_not_the_history() {
        // Two slots left, reached after different numbers of deliveries.
        let mut early = Redirect::default();
        early.resolve(true, 5, 0x40);
        for _ in 0..3 {
            early.delivered();
        }
        let mut late = Redirect::default();
        late.resolve(true, 2, 0x40);
        assert_eq!(key(&early), key(&late));
        assert_eq!(key(&late), [1, 2, 0x40]);
        assert_eq!(key(&Redirect::default()), [0]);
    }

    #[test]
    fn request_tag_is_described_relative_to_the_counter() {
        let mut mem = MemorySystem::new(MemConfig::default());
        let mut req = Request::new(ReqClass::IFetch, 0x10, 16);
        let described = |req: &Request, next_tag| {
            let mut key = Vec::new();
            req.describe(&mut key, next_tag);
            key[0]
        };
        assert_eq!(described(&req, mem.next_tag()), 0, "unassigned");
        mem.new_tag();
        req.offer(&mut mem);
        assert_eq!(req.tag, 2, "assigned on the first offer");
        assert_eq!(described(&req, mem.next_tag()), 1);
        req.offer(&mut mem);
        assert_eq!(req.tag, 2, "kept on a re-offer");
        for _ in 0..3 {
            mem.new_tag();
        }
        assert_eq!(described(&req, mem.next_tag()), 4);
    }

    #[test]
    fn request_shift_moves_only_assigned_tags() {
        let mut unassigned = Request::new(ReqClass::IPrefetch, 0x10, 16);
        unassigned.shift(5);
        assert_eq!(unassigned.tag, 0);
        let mut assigned = Request {
            tag: 3,
            ..unassigned
        };
        assigned.shift(5);
        assert_eq!(assigned.tag, 8);
    }

    #[test]
    fn request_acceptance_counts_once_by_class() {
        let mut stats = FetchStats::default();
        let mut demand = Request {
            tag: 3,
            ..Request::new(ReqClass::IFetch, 0x10, 16)
        };
        assert!(!demand.accept(4, &mut stats), "another request's tag");
        assert!(demand.accept(3, &mut stats));
        assert!(!demand.accept(3, &mut stats), "already accepted");
        let mut prefetch = Request {
            tag: 5,
            ..Request::new(ReqClass::IPrefetch, 0x20, 8)
        };
        assert!(prefetch.accept(5, &mut stats));
        assert_eq!(
            (
                stats.demand_requests,
                stats.prefetch_requests,
                stats.bytes_requested
            ),
            (1, 1, 24)
        );
    }
}
