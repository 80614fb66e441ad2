//! The discrete-event engine.
//!
//! The engine owns a user-defined *world* (`W`) and a pending-event queue.
//! Events are values of one type implementing [`EventFire`] (the routing
//! harness uses an enum); firing an event hands it `&mut Engine` so
//! handlers can both mutate the world and schedule follow-up events, with
//! no per-event heap allocation or dynamic dispatch.
//!
//! # Queue
//!
//! Each pending event is kept once, in the binary heap of the [`Lane`] it
//! declares ([`EventFire::lane`]). Every heap is ordered by
//! `(time, key, seq)` and the engine fires the least of the three heads,
//! so the lanes split the queue without changing the order it fires in.
//! What a run loop needs to know about the pending events is read off
//! those heaps rather than kept beside them: whether any work is left
//! ([`Engine::pending_in`] of [`Lane::Work`]), and which event that is
//! not a walk comes next ([`Engine::next_non_walk_rank`]).
//!
//! # Determinism
//!
//! Events fire ordered by `(time, key, seq)`: virtual time first, then the
//! event's own [`EventFire::key`], then scheduling order. With the default
//! constant key, ties order purely by scheduling sequence. An event type
//! can supply a *content-derived* key (e.g. source device and per-source
//! counter), making tie order independent of scheduling interleave: a
//! queue drained and re-scheduled fires in the same order.
//!
//! # Inline window
//!
//! The lesser of the [`Lane::Work`] and [`Lane::Timer`] heads is the next
//! event that can change what a walk sees. A walk handler may run a
//! follow-up inline, without a queue round trip, when
//! [`Engine::can_run_inline`] says the follow-up sorts before that head
//! and lies within the running loop's *horizon* — the instant past
//! which the loop would stop — so the run fires nothing it would not
//! have fired, in an order no non-walk event can tell apart. Outside a
//! run loop ([`Engine::step`] on its own, [`Engine::run`]) there is no
//! horizon and nothing runs inline.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A stable, content-derived identity for one fired event.
///
/// `(time, key)` uniquely names an event as long as keys are globally
/// unique among events due at the same instant — which the routing
/// harness guarantees by deriving keys from the scheduling device and a
/// per-device counter. Crucially the id does *not* involve the engine's
/// scheduling sequence number, which a drain-and-requeue renumbers; the
/// same run therefore produces the same ids however its queue was moved
/// about, and a trace record can point at its causal parent across such
/// a move.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct EventId {
    /// Virtual time the event fired, in nanoseconds.
    pub time_ns: u64,
    /// The event's deterministic tie-break key ([`EventFire::key`]).
    pub key: u64,
}

impl EventId {
    /// The null id: time 0, key 0. The harness never schedules a real
    /// event with key 0, so this is safe as an "outside any event"
    /// sentinel (management sync, orchestrator actions).
    pub const ZERO: EventId = EventId { time_ns: 0, key: 0 };
}

/// A warm-start position snapshot: where the engine was when an
/// incremental step began ([`Engine::checkpoint`] /
/// [`Engine::cost_since`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineCheckpoint {
    /// Virtual time at the checkpoint.
    pub at: SimTime,
    /// Events executed before the checkpoint.
    pub events_executed: u64,
}

/// The heap a pending event waits in, declared by [`EventFire::lane`].
/// A lane changes where an event waits, never when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Work a run loop waits for: an event that can still change what the
    /// world settles to.
    Work,
    /// A timer: it fires in order, but no run loop waits for it.
    Timer,
    /// A walk event: its handler may run the follow-ups it would schedule
    /// inline instead, within the bounds [`Engine::can_run_inline`] sets.
    /// Only the other lanes bound that window, so a walk event must
    /// neither change what another walk event's handler sees in an
    /// order-sensitive way nor be one that anything else waits on.
    Walk,
}

/// Every lane, in index order.
const LANES: [Lane; 3] = [Lane::Work, Lane::Timer, Lane::Walk];

/// A schedulable event: fired once at its due time.
pub trait EventFire<W>: Sized {
    /// Consumes the event, mutating the engine/world.
    fn fire(self, engine: &mut Engine<W, Self>);

    /// Deterministic tie-break key among events due at the same time.
    ///
    /// Lower keys fire first; equal keys fall back to scheduling order.
    /// Return a content-derived key to make tie order independent of the
    /// order in which events were scheduled.
    fn key(&self) -> u64 {
        0
    }

    /// The id of the event that scheduled this one, if known.
    ///
    /// Causal links must travel *inside* the event (not in engine
    /// bookkeeping): a drain-and-requeue ([`Engine::drain_pending`])
    /// loses any engine-side metadata along the way. Events that carry
    /// their cause as a field survive it unchanged.
    fn cause(&self) -> Option<EventId> {
        None
    }

    /// The lane this event waits in while pending (module docs:
    /// **Queue**).
    fn lane(&self) -> Lane {
        Lane::Work
    }
}

#[derive(Clone)]
struct Scheduled<E> {
    time: SimTime,
    key: u64,
    seq: u64,
    event: E,
}

impl<E> Scheduled<E> {
    fn rank(&self) -> (SimTime, u64, u64) {
        (self.time, self.key, self.seq)
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.rank() == other.rank()
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rank().cmp(&other.rank())
    }
}

/// A deterministic discrete-event simulation engine over a world `W`.
///
/// # Examples
///
/// ```
/// use crystalnet_sim::{Engine, EventFire, SimDuration};
///
/// struct Add(u32);
/// impl EventFire<u32> for Add {
///     fn fire(self, e: &mut Engine<u32, Add>) {
///         e.world += self.0;
///     }
/// }
///
/// let mut engine = Engine::new(0u32);
/// engine.schedule_event_after(SimDuration::from_secs(1), Add(1));
/// engine.schedule_event_after(SimDuration::from_secs(2), Add(10));
/// engine.run();
/// assert_eq!(engine.world, 11);
/// assert_eq!(engine.now().as_secs_f64(), 2.0);
/// ```
pub struct Engine<W, E> {
    clock: SimTime,
    seq: u64,
    executed: u64,
    high_water: usize,
    /// `(id, cause)` of the event currently firing, if any. Set by
    /// [`Engine::step`] for the duration of the fire so handlers can stamp
    /// follow-up events with a causal parent.
    firing: Option<(EventId, Option<EventId>)>,
    /// The pending events, one heap per [`Lane`], indexed by the lane.
    lanes: [BinaryHeap<Reverse<Scheduled<E>>>; LANES.len()],
    /// The running loop's horizon; `None` outside a run loop.
    horizon: Option<SimTime>,
    /// The latest instant a follow-up ran inline at.
    inline_clock: SimTime,
    /// The simulated world mutated by events.
    pub world: W,
}

impl<W, E: EventFire<W>> Engine<W, E> {
    /// Creates an engine at `t = 0` owning `world`.
    pub fn new(world: W) -> Self {
        Engine {
            clock: SimTime::ZERO,
            seq: 0,
            executed: 0,
            high_water: 0,
            firing: None,
            lanes: Default::default(),
            horizon: None,
            inline_clock: SimTime::ZERO,
            world,
        }
    }

    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Number of events executed so far.
    #[must_use]
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending.
    #[must_use]
    pub fn events_pending(&self) -> usize {
        self.lanes.iter().map(BinaryHeap::len).sum()
    }

    /// Number of events pending in `lane`.
    #[must_use]
    pub fn pending_in(&self, lane: Lane) -> usize {
        self.lanes[lane as usize].len()
    }

    /// High-water mark of the pending-event queue depth. Execution-shape
    /// diagnostic, not a canonical fact of the run.
    #[must_use]
    pub fn queue_high_water(&self) -> usize {
        self.high_water
    }

    /// Snapshots the engine's position for warm-start accounting: an
    /// incremental step resumes the *same* engine from its converged
    /// state (clock, queue, world untouched) and later subtracts the
    /// checkpoint to report only the step's own cost.
    #[must_use]
    pub fn checkpoint(&self) -> EngineCheckpoint {
        EngineCheckpoint {
            at: self.clock,
            events_executed: self.executed,
        }
    }

    /// The virtual time elapsed and events executed since `mark` was
    /// taken with [`Engine::checkpoint`].
    #[must_use]
    pub fn cost_since(&self, mark: &EngineCheckpoint) -> (SimDuration, u64) {
        (
            self.clock.since(mark.at),
            self.executed - mark.events_executed,
        )
    }

    /// Schedules a typed event at absolute time `at`.
    ///
    /// Events scheduled in the past run at the current time (the clock
    /// never moves backwards); ties order by `(key, scheduling order)`.
    pub fn schedule_event_at(&mut self, at: SimTime, event: E) {
        let time = at.max(self.clock);
        let seq = self.seq;
        self.seq += 1;
        self.lanes[event.lane() as usize].push(Reverse(Scheduled {
            time,
            key: event.key(),
            seq,
            event,
        }));
        self.high_water = self.high_water.max(self.events_pending());
    }

    /// Schedules a typed event after `delay` from the current time.
    pub fn schedule_event_after(&mut self, delay: SimDuration, event: E) {
        self.schedule_event_at(self.clock + delay, event);
    }

    /// Runs a single event if one is pending. Returns whether an event ran.
    pub fn step(&mut self) -> bool {
        let Some(lane) = self.first_in(&LANES) else {
            return false;
        };
        let Reverse(s) = self.lanes[lane as usize].pop().expect("a head was peeked");
        debug_assert!(s.time >= self.clock, "event queue went backwards");
        self.clock = s.time;
        self.executed += 1;
        let id = EventId {
            time_ns: s.time.as_nanos(),
            key: s.key,
        };
        self.firing = Some((id, s.event.cause()));
        s.event.fire(self);
        self.firing = None;
        true
    }

    /// The one of `lanes` whose head fires first, if any is non-empty.
    fn first_in(&self, lanes: &[Lane]) -> Option<Lane> {
        lanes
            .iter()
            .filter_map(|&lane| {
                self.lanes[lane as usize]
                    .peek()
                    .map(|Reverse(s)| (s.rank(), lane))
            })
            .min_by_key(|&(rank, _)| rank)
            .map(|(_, lane)| lane)
    }

    /// `(time, key)` of the event that fires first among `lanes`.
    fn rank_in(&self, lanes: &[Lane]) -> Option<(SimTime, u64)> {
        let Reverse(s) = self.lanes[self.first_in(lanes)? as usize].peek()?;
        Some((s.time, s.key))
    }

    /// The stable id of the event currently firing, if `step` is on the
    /// call stack.
    #[must_use]
    pub fn current_event(&self) -> Option<EventId> {
        self.firing.map(|(id, _)| id)
    }

    /// The causal parent of the event currently firing, if any.
    #[must_use]
    pub fn current_cause(&self) -> Option<EventId> {
        self.firing.and_then(|(_, cause)| cause)
    }

    /// Runs until the event queue is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs events with `time <= deadline`; then advances the clock to
    /// `deadline` (even if idle earlier), leaving later events queued.
    /// `deadline` is the horizon of every step it takes.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.next_event_time() {
            if t > deadline {
                break;
            }
            self.step_within(deadline);
        }
        self.clock = self.clock.max(deadline);
    }

    /// [`Self::step`] inside a run loop that would fire nothing due after
    /// `horizon`: the one way a horizon is set (module docs: **Inline
    /// window**).
    pub fn step_within(&mut self, horizon: SimTime) -> bool {
        self.horizon = Some(horizon);
        let ran = self.step();
        self.horizon = None;
        ran
    }

    /// Whether the firing walk event may run a follow-up due at
    /// `(at, key)` inline, rather than schedule it: `at` lies within the
    /// running loop's horizon, and `(at, key)` sorts before every pending
    /// non-walk event.
    #[must_use]
    pub fn can_run_inline(&self, at: SimTime, key: u64) -> bool {
        self.horizon.is_some_and(|h| at <= h)
            && self
                .next_non_walk_rank()
                .is_none_or(|rank| (at, key) < rank)
    }

    /// Records that the firing event ran a follow-up due at `at` inline,
    /// for [`Self::catch_up_inline`].
    pub fn ran_inline(&mut self, at: SimTime) {
        self.inline_clock = self.inline_clock.max(at);
    }

    /// Advances the clock to the latest instant a follow-up ran inline
    /// at, if that is later — where the clock would stand had every
    /// follow-up been an event of its own. A run loop that can end
    /// before its horizon calls this when it ends.
    pub fn catch_up_inline(&mut self) {
        self.advance_clock_to(self.inline_clock);
    }

    /// `(time, key)` of the next pending non-walk event, if any.
    #[must_use]
    pub fn next_non_walk_rank(&self) -> Option<(SimTime, u64)> {
        self.rank_in(&[Lane::Work, Lane::Timer])
    }

    /// Time of the next pending event, if any.
    #[must_use]
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.rank_in(&LANES).map(|(t, _)| t)
    }

    /// Removes and returns every pending event in `(time, key, seq)`
    /// order, without firing them. The clock is unchanged. Re-scheduling
    /// them keeps their ids and their order, since both come from
    /// `(time, key)`: the routing harness drains and requeues to drop a
    /// removed device's events.
    pub fn drain_pending(&mut self) -> Vec<(SimTime, E)> {
        let mut all: Vec<Scheduled<E>> = self
            .lanes
            .iter_mut()
            .flat_map(BinaryHeap::drain)
            .map(|Reverse(s)| s)
            .collect();
        all.sort_unstable();
        all.into_iter().map(|s| (s.time, s.event)).collect()
    }

    /// Advances the clock to `t` (no-op if already later) without running
    /// anything. Callers must not skip past pending events; debug builds
    /// assert this.
    fn advance_clock_to(&mut self, t: SimTime) {
        debug_assert!(
            self.next_event_time().is_none_or(|n| n >= t),
            "advance_clock_to would skip pending events"
        );
        self.clock = self.clock.max(t);
    }
}

impl<W, E> Engine<W, E> {
    /// Replicates this engine's *position* — clock, scheduling sequence,
    /// executed count, queue high-water mark, and a deep copy of every
    /// pending event — over a freshly supplied world.
    ///
    /// This is the queue-snapshot half of an emulation fork: because the
    /// sequence counter and every queued event's `(time, key, seq)` rank
    /// are preserved exactly, the replica fires the identical event order
    /// the original would, so a fork that replays the same inputs stays
    /// bit-identical to its parent. The replica is not mid-fire
    /// (`firing` is cleared); forking from inside an event handler is not
    /// supported.
    #[must_use]
    pub fn replicate_with<W2>(&self, world: W2) -> Engine<W2, E>
    where
        E: Clone,
    {
        Engine {
            clock: self.clock,
            seq: self.seq,
            executed: self.executed,
            high_water: self.high_water,
            firing: None,
            lanes: self.lanes.clone(),
            horizon: None,
            inline_clock: self.inline_clock,
            world,
        }
    }
}

/// A clone is [`Engine::replicate_with`] over a clone of the world.
impl<W: Clone, E: Clone> Clone for Engine<W, E> {
    fn clone(&self) -> Self {
        self.replicate_with(self.world.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tests' event over a `Vec<u64>` world. Its key is the default
    /// constant, so ties fall back to scheduling order.
    enum Op {
        /// Push the value.
        Push(u64),
        /// Push the firing time, in nanoseconds.
        Now,
        /// Push, then go again a second later until five are in.
        Tick,
        /// Schedule a `Now` at time zero — in the past.
        Rewind,
    }

    impl EventFire<Vec<u64>> for Op {
        fn fire(self, e: &mut Engine<Vec<u64>, Op>) {
            match self {
                Op::Push(v) => e.world.push(v),
                Op::Now => e.world.push(e.now().as_nanos()),
                Op::Tick => {
                    e.world.push(1);
                    if e.world.len() < 5 {
                        e.schedule_event_after(SimDuration::from_secs(1), Op::Tick);
                    }
                }
                Op::Rewind => e.schedule_event_at(SimTime::ZERO, Op::Now),
            }
        }
    }

    fn engine() -> Engine<Vec<u64>, Op> {
        Engine::new(Vec::new())
    }

    #[test]
    fn events_run_in_time_order() {
        let mut e = engine();
        e.schedule_event_after(SimDuration::from_secs(3), Op::Push(3));
        e.schedule_event_after(SimDuration::from_secs(1), Op::Push(1));
        e.schedule_event_after(SimDuration::from_secs(2), Op::Push(2));
        e.run();
        assert_eq!(e.world, vec![1, 2, 3]);
        assert_eq!(e.events_executed(), 3);
    }

    #[test]
    fn ties_break_by_scheduling_order() {
        let mut e = engine();
        let t = SimTime::ZERO + SimDuration::from_secs(1);
        for i in 0..10 {
            e.schedule_event_at(t, Op::Push(i));
        }
        e.run();
        assert_eq!(e.world, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_schedule_follow_ups() {
        let mut e = engine();
        e.schedule_event_after(SimDuration::from_secs(1), Op::Tick);
        e.run();
        assert_eq!(e.world.len(), 5);
        assert_eq!(e.now(), SimTime::ZERO + SimDuration::from_secs(5));
    }

    #[test]
    fn past_events_run_now_not_backwards() {
        let mut e = engine();
        e.schedule_event_after(SimDuration::from_secs(5), Op::Rewind);
        e.run();
        assert_eq!(e.world, vec![SimDuration::from_secs(5).as_nanos()]);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut e = engine();
        e.schedule_event_after(SimDuration::from_secs(1), Op::Push(1));
        e.schedule_event_after(SimDuration::from_secs(10), Op::Push(100));
        e.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        assert_eq!(e.world, vec![1]);
        assert_eq!(e.now(), SimTime::ZERO + SimDuration::from_secs(5));
        assert_eq!(e.events_pending(), 1);
        e.run();
        assert_eq!(e.world, vec![1, 100]);
    }

    #[test]
    fn empty_engine_is_idle() {
        let mut e = engine();
        assert!(!e.step());
        assert_eq!(e.next_event_time(), None);
        assert_eq!(e.events_executed(), 0);
    }

    /// A typed event whose key reverses fire order relative to scheduling.
    struct Keyed(u64);
    impl EventFire<Vec<u64>> for Keyed {
        fn fire(self, e: &mut Engine<Vec<u64>, Keyed>) {
            e.world.push(self.0);
        }
        fn key(&self) -> u64 {
            self.0
        }
    }

    /// A typed event carrying an explicit cause link.
    struct Caused {
        key: u64,
        cause: Option<EventId>,
    }
    impl EventFire<Vec<(EventId, Option<EventId>)>> for Caused {
        fn fire(self, e: &mut Engine<Vec<(EventId, Option<EventId>)>, Caused>) {
            let id = e.current_event().expect("firing");
            assert_eq!(e.current_cause(), self.cause);
            e.world.push((id, e.current_cause()));
            if self.cause.is_none() {
                // Schedule a child stamped with this event's id.
                e.schedule_event_after(
                    SimDuration::from_secs(1),
                    Caused {
                        key: self.key + 100,
                        cause: Some(id),
                    },
                );
            }
        }
        fn key(&self) -> u64 {
            self.key
        }
        fn cause(&self) -> Option<EventId> {
            self.cause
        }
    }

    #[test]
    fn event_ids_are_stable_and_causes_thread_through() {
        let mut e: Engine<Vec<(EventId, Option<EventId>)>, Caused> = Engine::new(Vec::new());
        e.schedule_event_at(
            SimTime::ZERO + SimDuration::from_secs(1),
            Caused {
                key: 7,
                cause: None,
            },
        );
        e.run();
        assert_eq!(e.world.len(), 2);
        let root = EventId {
            time_ns: SimDuration::from_secs(1).as_nanos(),
            key: 7,
        };
        let child = EventId {
            time_ns: SimDuration::from_secs(2).as_nanos(),
            key: 107,
        };
        assert_eq!(e.world[0], (root, None));
        assert_eq!(e.world[1], (child, Some(root)));
        // Outside step() there is no current event.
        assert_eq!(e.current_event(), None);
        assert_eq!(e.current_cause(), None);
    }

    #[test]
    fn typed_events_tie_break_by_key_not_schedule_order() {
        let mut e: Engine<Vec<u64>, Keyed> = Engine::new(Vec::new());
        let t = SimTime::ZERO + SimDuration::from_secs(1);
        for k in [5u64, 1, 9, 3, 7] {
            e.schedule_event_at(t, Keyed(k));
        }
        e.run();
        assert_eq!(e.world, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn events_from_microseconds_to_seconds_out_fire_in_time_order() {
        // Spread events from now to seconds out, the nearer ones
        // scheduled latest first.
        let mut e = engine();
        for i in (0..200u64).rev() {
            e.schedule_event_at(SimTime::ZERO + SimDuration::from_micros(i * 997), Op::Now);
        }
        // Seconds out.
        for i in 0..20u64 {
            e.schedule_event_at(SimTime::ZERO + SimDuration::from_secs(i + 1), Op::Now);
        }
        e.run();
        assert_eq!(e.world.len(), 220);
        assert!(e.world.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(e.events_pending(), 0);
    }

    #[test]
    fn next_event_time_follows_an_earlier_schedule() {
        let mut e = engine();
        e.schedule_event_at(SimTime::ZERO + SimDuration::from_secs(30), Op::Now);
        assert_eq!(
            e.next_event_time(),
            Some(SimTime::ZERO + SimDuration::from_secs(30))
        );
        e.schedule_event_at(SimTime::ZERO + SimDuration::from_micros(100), Op::Now);
        assert_eq!(
            e.next_event_time(),
            Some(SimTime::ZERO + SimDuration::from_micros(100))
        );
        e.run();
        assert_eq!(e.next_event_time(), None);
    }

    /// An event in any lane; firing one asks whether a follow-up due at
    /// `ask` may run inline, records the answer, and runs it when it may.
    #[derive(Clone)]
    struct Inline {
        key: u64,
        lane: Lane,
        ask: Option<(u64, u64)>,
    }
    impl EventFire<Vec<bool>> for Inline {
        fn fire(self, e: &mut Engine<Vec<bool>, Inline>) {
            if let Some((at, key)) = self.ask {
                let ok = e.can_run_inline(SimTime(at), key);
                if ok {
                    e.ran_inline(SimTime(at));
                }
                e.world.push(ok);
            }
        }
        fn key(&self) -> u64 {
            self.key
        }
        fn lane(&self) -> Lane {
            self.lane
        }
    }

    fn inline(key: u64, walk: bool, ask: Option<(u64, u64)>) -> Inline {
        let lane = if walk { Lane::Walk } else { Lane::Work };
        Inline { key, lane, ask }
    }

    /// The next non-walk event's `(time, key)`, by scanning a replica's
    /// whole queue.
    fn scan_non_walk(e: &Engine<Vec<bool>, Inline>) -> Option<(SimTime, u64)> {
        let mut all = e.replicate_with(Vec::new()).drain_pending().into_iter();
        all.find(|(_, ev)| ev.lane != Lane::Walk)
            .map(|(t, ev)| (t, ev.key))
    }

    #[test]
    fn non_walk_rank_follows_schedules_steps_drains_and_replicas() {
        let mut e = Engine::new(Vec::new());
        assert_eq!(e.next_non_walk_rank(), None);
        e.schedule_event_at(SimTime(30), inline(4, false, None));
        e.schedule_event_at(SimTime(10), inline(9, true, None));
        e.schedule_event_at(SimTime(30), inline(2, false, None));
        e.schedule_event_at(SimTime(90_000_000), inline(1, false, None));
        assert_eq!(e.next_non_walk_rank(), Some((SimTime(30), 2)));
        // A walk event leaves the rank alone; a non-walk one pops it.
        assert!(e.step());
        assert_eq!(e.next_non_walk_rank(), Some((SimTime(30), 2)));
        assert!(e.step());
        assert_eq!(e.next_non_walk_rank(), Some((SimTime(30), 4)));
        // A replica carries the ranks; drain + requeue rebuilds them.
        let mut r = e.replicate_with(Vec::new());
        assert_eq!(r.next_non_walk_rank(), scan_non_walk(&e));
        let pending = r.drain_pending();
        assert_eq!(r.next_non_walk_rank(), None);
        for (t, ev) in pending.into_iter().filter(|(_, ev)| ev.key != 4) {
            r.schedule_event_at(t, ev);
        }
        assert_eq!(r.next_non_walk_rank(), Some((SimTime(90_000_000), 1)));
        assert_eq!(r.next_non_walk_rank(), scan_non_walk(&r));
        r.run();
        assert_eq!(r.next_non_walk_rank(), None);
    }

    #[test]
    fn inlining_needs_a_horizon_and_the_next_non_walk_event_after_it() {
        let mut e = Engine::new(Vec::new());
        e.schedule_event_at(SimTime(100), inline(5, false, None));
        // Before the non-walk event's rank; at it, on a later key; past
        // the horizon.
        e.schedule_event_at(SimTime(10), inline(1 << 40, true, Some((50, 1))));
        e.schedule_event_at(SimTime(20), inline(1 << 40, true, Some((100, 4))));
        e.schedule_event_at(SimTime(30), inline(1 << 40, true, Some((100, 6))));
        e.schedule_event_at(SimTime(200), inline(1 << 40, true, Some((300, 0))));
        e.run_until(SimTime(250));
        assert_eq!(e.world, vec![true, true, false, false]);

        // Outside a run loop there is no horizon.
        let mut e = Engine::new(Vec::new());
        e.schedule_event_at(SimTime(10), inline(1, true, Some((20, 1))));
        assert!(e.step());
        assert_eq!(e.world, vec![false]);

        // Inside one, the clock catches up to the last inlined instant
        // only when asked, and never past a pending event.
        let mut e = Engine::new(Vec::new());
        e.schedule_event_at(SimTime(10), inline(1, true, Some((70, 1))));
        assert!(e.step_within(SimTime(1_000)));
        assert_eq!((e.world.clone(), e.now()), (vec![true], SimTime(10)));
        e.catch_up_inline();
        assert_eq!(e.now(), SimTime(70));
    }
}
