//! The interface between the processor core and an instruction-fetch
//! engine.

use pipe_mem::{Beat, MemorySystem};

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
    /// Resets the engine to begin fetching at byte address `pc`.
    fn reset(&mut self, pc: u32);

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
    /// `next_tag` (the memory system's tag counter), counts such as
    /// instructions delivered relative to themselves, and statistics not
    /// at all.
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

/// Appends a pending redirect `(after, target)` to a timing key, with its
/// trigger count relative to the instructions `delivered` so far.
pub(crate) fn describe_redirect(key: &mut Vec<u64>, redirect: Option<(u64, u32)>, delivered: u64) {
    match redirect {
        Some((after, target)) => key.extend([1, after - delivered, u64::from(target)]),
        None => key.push(0),
    }
}

/// Moves a pending redirect's trigger count `delivered` instructions on.
pub(crate) fn shift_redirect(redirect: &mut Option<(u64, u32)>, delivered: u64) {
    if let Some((after, _)) = redirect {
        *after += delivered;
    }
}
