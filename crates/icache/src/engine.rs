//! The interface between the processor core and an instruction-fetch
//! engine.

use pipe_mem::{Beat, MemRequest, MemorySystem, ReqClass, TimingKey};

use crate::stats::FetchStats;

/// An instruction-fetch front-end driven once per cycle by the processor.
///
/// ## Per-cycle protocol
///
/// The processor owns the [`MemorySystem`] and calls, in order:
///
/// 1. [`offer_requests`](FetchEngine::offer_requests) — the engine offers
///    at most one request per instruction class (demand fetch, prefetch)
///    for this cycle's arbitration.
/// 2. `mem.tick()` (done by the processor).
/// 3. [`on_accepted`](FetchEngine::on_accepted) when memory accepted an
///    instruction class, then [`on_beat`](FetchEngine::on_beat) for each
///    instruction-class beat.
/// 4. [`advance`](FetchEngine::advance) — internal moves: queue transfers,
///    cache-hit fills, redirect triggering.
/// 5. Decode: [`peek_index`](FetchEngine::peek_index) /
///    [`consume`](FetchEngine::consume), plus
///    [`resolve_branch`](FetchEngine::resolve_branch) when a
///    prepare-to-branch leaves execution.
///
/// Requests carry no tags. Memory answers them in acceptance order, so
/// an engine keeps its accepted requests ahead of the ones still waiting,
/// oldest first, and every beat belongs to the oldest accepted one. An
/// engine never drops an accepted request before its last beat.
///
/// Engines deliver instructions in *stream order*: sequential flow,
/// altered only by `resolve_branch(taken = true, ..)`, which schedules a
/// redirect after the branch's remaining delay-slot instructions. The
/// program image is the only copy of the instructions: an engine names
/// the instruction at the head of its stream by its image parcel index,
/// and the processor looks it up in its predecoded table.
pub trait FetchEngine {
    /// Offers this cycle's memory requests (if any) for arbitration.
    fn offer_requests(&mut self, mem: &mut MemorySystem);

    /// Notifies the engine that memory accepted the request it offered in
    /// `class` this cycle.
    fn on_accepted(&mut self, class: ReqClass);

    /// Routes an instruction-class input-bus beat to the engine's oldest
    /// accepted request. Beats for stale (redirected-past) requests still
    /// fill the cache but are not queued.
    ///
    /// # Panics
    ///
    /// Panics if no request is accepted; a debug build also checks that
    /// the beat continues its request.
    fn on_beat(&mut self, beat: &Beat);

    /// Performs the engine's internal cycle work after memory activity:
    /// IQB→IQ transfer, cache-hit fills, pending-redirect triggering.
    fn advance(&mut self);

    /// Image parcel index of the instruction at the head of the stream,
    /// if the whole instruction is available this cycle: `Some(i)` names
    /// the instruction whose first parcel is `image[i]`. The processor
    /// issues from this index alone.
    fn peek_index(&self) -> Option<usize>;

    /// Consumes the instruction [`peek_index`](FetchEngine::peek_index)
    /// names.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called when `peek_index` returns
    /// `None`.
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

    /// The engine's requests in flight: offered or accepted, and not yet
    /// fully received. The simulation drains at halt, and the frozen stop
    /// fires, only when none is.
    fn outstanding(&self) -> usize;

    /// Writes the engine's timing state into `key`, for the processor's
    /// loop-iteration skip and frozen stop: one struct with derived
    /// `Hash`, holding no statistics, configuration or absolute count.
    /// Two states that write the same key behave the same from then on,
    /// given the same memory events and decode activity.
    ///
    /// Must be called between cycles.
    fn describe_timing(&self, key: &mut TimingKey);

    /// Adds the statistics of cycles applied without ticking: `delta`,
    /// which includes the instructions delivered, came from cycles that
    /// left the [described](FetchEngine::describe_timing) state
    /// unchanged, so applying them changes only the statistics.
    fn add_stats(&mut self, delta: &FetchStats);

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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
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
}

/// One off-chip instruction request: what it asks for, and once memory
/// has accepted it, how many of its bytes have arrived. Engines wrap it
/// with where its beats go.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Request {
    /// Bytes received, from acceptance on; `None` while unaccepted.
    pub(crate) received: Option<u32>,
    pub(crate) class: ReqClass,
    pub(crate) addr: u32,
    pub(crate) bytes: u32,
}

impl Request {
    /// A request not yet offered.
    pub(crate) fn new(class: ReqClass, addr: u32, bytes: u32) -> Request {
        Request {
            received: None,
            class,
            addr,
            bytes,
        }
    }

    /// Whether memory has accepted the request.
    pub(crate) fn accepted(&self) -> bool {
        self.received.is_some()
    }

    /// Offers the request for this cycle's arbitration.
    pub(crate) fn offer(&self, mem: &mut MemorySystem) {
        mem.offer(MemRequest::load(self.class, self.addr, self.bytes));
    }

    /// Marks the request accepted, counting it into `stats` by class.
    pub(crate) fn accept(&mut self, stats: &mut FetchStats) {
        debug_assert!(!self.accepted(), "accepted twice");
        self.received = Some(0);
        match self.class {
            ReqClass::IFetch => stats.demand_requests += 1,
            _ => stats.prefetch_requests += 1,
        }
        stats.bytes_requested += u64::from(self.bytes);
    }

    /// Counts `beat` in; a debug build checks that it continues this
    /// request.
    ///
    /// # Panics
    ///
    /// Panics if memory has not accepted the request.
    pub(crate) fn receive(&mut self, beat: &Beat) {
        let received = self
            .received
            .as_mut()
            .expect("beat for an unaccepted request");
        debug_assert_eq!(beat.addr, self.addr + *received, "beat out of order");
        *received += beat.bytes;
        debug_assert_eq!(
            beat.last,
            *received == self.bytes,
            "beat overruns its request"
        );
    }
}

/// Marks the first waiting request of `class` in `list` accepted and moves
/// it behind the requests accepted before it, where its beats will find
/// it: `list` holds its accepted requests first, oldest first. Returns
/// its new index.
///
/// # Panics
///
/// Panics if no request of `class` is waiting: memory accepted a request
/// the engine never offered.
pub(crate) fn accept_in_order<T>(
    list: &mut [T],
    request: impl Fn(&mut T) -> &mut Request,
    class: ReqClass,
    stats: &mut FetchStats,
) -> usize {
    let first = list.iter_mut().position(|p| !request(p).accepted());
    let first = first.unwrap_or(list.len());
    let offered = first
        + list[first..]
            .iter_mut()
            .position(|p| request(p).class == class)
            .expect("memory accepted a request never offered");
    request(&mut list[offered]).accept(stats);
    if offered > first {
        list[first..=offered].rotate_right(1);
    }
    first
}

/// One cycle of `engine` against `mem`, driven the way the processor
/// drives it; returns whether an instruction was consumed.
#[cfg(test)]
pub(crate) fn cycle(engine: &mut dyn FetchEngine, mem: &mut MemorySystem) -> bool {
    engine.offer_requests(mem);
    let out = mem.tick();
    if let Some(class) = out.accepted {
        engine.on_accepted(class);
    }
    if let Some(beat) = &out.beats {
        use pipe_mem::BeatSource::{IFetch, IPrefetch};
        if matches!(beat.source, IFetch | IPrefetch) {
            engine.on_beat(beat);
        }
    }
    engine.advance();
    let delivers = engine.peek_index().is_some();
    if delivers {
        engine.consume();
    }
    delivers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(redirect: &Redirect) -> TimingKey {
        let mut key = TimingKey::default();
        key.add(redirect);
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
        late.delivered();
        assert_ne!(key(&early), key(&late));
        assert_ne!(key(&early), key(&Redirect::default()));
    }

    #[test]
    fn request_acceptance_counts_once_by_class() {
        let mut stats = FetchStats::default();
        let mut list = [
            Request::new(ReqClass::IPrefetch, 0x20, 8),
            Request::new(ReqClass::IFetch, 0x10, 16),
        ];
        let at = accept_in_order(&mut list, |r| r, ReqClass::IFetch, &mut stats);
        assert_eq!(at, 0, "the accepted request moves ahead of the waiting one");
        assert_eq!((list[0].addr, list[1].accepted()), (0x10, false));
        let at = accept_in_order(&mut list, |r| r, ReqClass::IPrefetch, &mut stats);
        assert_eq!((at, list[1].addr), (1, 0x20));
        assert_eq!(
            (
                stats.demand_requests,
                stats.prefetch_requests,
                stats.bytes_requested
            ),
            (1, 1, 24)
        );
    }

    #[test]
    fn a_request_receives_its_beats_in_order() {
        let mut req = Request::new(ReqClass::IFetch, 0x10, 8);
        req.accept(&mut FetchStats::default());
        let beat = |addr, last| Beat {
            source: pipe_mem::BeatSource::IFetch,
            addr,
            bytes: 4,
            last,
        };
        req.receive(&beat(0x10, false));
        req.receive(&beat(0x14, true));
        assert_eq!(req.received, Some(8));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "beat out of order")]
    fn a_beat_that_skips_ahead_fails() {
        let mut req = Request::new(ReqClass::IFetch, 0x10, 8);
        req.accept(&mut FetchStats::default());
        req.receive(&Beat {
            source: pipe_mem::BeatSource::IFetch,
            addr: 0x14,
            bytes: 4,
            last: false,
        });
    }
}
