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
//! The queue is a bucketed *calendar queue*: near-future events land in a
//! ring of fixed-width time buckets (unsorted `Vec`s, heapified only when
//! their bucket becomes current), far-future events overflow into a binary
//! heap. Scheduling into the ring is an O(1) `Vec::push` instead of an
//! O(log n) heap sift, which matters because the control-plane harness
//! schedules one delivery per BGP frame.
//!
//! # Determinism
//!
//! Events fire ordered by `(time, key, seq)`: virtual time first, then the
//! event's own [`EventFire::key`], then scheduling order. With the default
//! constant key, ties order purely by scheduling sequence. An event type
//! can supply a *content-derived* key (e.g. source device and per-source
//! counter), making tie order independent of scheduling interleave; this is
//! what lets the parallel executor replay the serial order bit-for-bit.

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
/// scheduling sequence number, which differs between serial and sharded
/// execution; the same run therefore produces the same ids whatever
/// `workers` drove it, and a trace record can point at its causal parent
/// across shard boundaries.
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
    /// bookkeeping): the parallel executor drains queues, ships events
    /// across shards in envelopes, and re-schedules survivors, losing any
    /// engine-side metadata along the way. Events that carry their cause
    /// as a field survive all of that unchanged.
    fn cause(&self) -> Option<EventId> {
        None
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

/// Width of one calendar bucket. 64 µs spans a handful of link latencies,
/// so the bulk of in-flight control-plane frames land in the ring.
const BUCKET_WIDTH_NANOS: u64 = 64_000;
/// Ring length (buckets). Horizon = width × len ≈ 65 ms; protocol timers
/// (boot, MRAI, hold) overflow to the heap, which is fine — they are rare
/// relative to frame deliveries.
const RING_LEN: usize = 1024;

/// Calendar queue: current-bucket heap + future ring + far-future heap.
#[derive(Clone)]
struct CalendarQueue<E> {
    /// Events in buckets `<= cur_bucket`, fully ordered.
    current: BinaryHeap<Reverse<Scheduled<E>>>,
    /// Unsorted buckets for `(cur_bucket, cur_bucket + RING_LEN]`, indexed
    /// by absolute bucket number mod `RING_LEN`.
    ring: Vec<Vec<Scheduled<E>>>,
    /// Number of events stored in the ring.
    ring_count: usize,
    /// Events in buckets beyond the ring horizon.
    overflow: BinaryHeap<Reverse<Scheduled<E>>>,
    /// Absolute index of the bucket currently feeding `current`.
    cur_bucket: u64,
}

#[inline]
fn bucket_of(time: SimTime) -> u64 {
    time.as_nanos() / BUCKET_WIDTH_NANOS
}

impl<E> CalendarQueue<E> {
    fn new() -> Self {
        CalendarQueue {
            current: BinaryHeap::new(),
            ring: (0..RING_LEN).map(|_| Vec::new()).collect(),
            ring_count: 0,
            overflow: BinaryHeap::new(),
            cur_bucket: 0,
        }
    }

    fn len(&self) -> usize {
        self.current.len() + self.ring_count + self.overflow.len()
    }

    fn push(&mut self, s: Scheduled<E>) {
        let b = bucket_of(s.time);
        if b <= self.cur_bucket {
            self.current.push(Reverse(s));
        } else if b <= self.cur_bucket + RING_LEN as u64 {
            self.ring[(b % RING_LEN as u64) as usize].push(s);
            self.ring_count += 1;
        } else {
            self.overflow.push(Reverse(s));
        }
    }

    /// Moves the contents of bucket `b` (ring slot and due overflow
    /// entries) into `current` and makes it the current bucket.
    fn advance_to(&mut self, b: u64) {
        debug_assert!(b > self.cur_bucket);
        self.cur_bucket = b;
        let slot = &mut self.ring[(b % RING_LEN as u64) as usize];
        self.ring_count -= slot.len();
        for s in slot.drain(..) {
            debug_assert_eq!(bucket_of(s.time), b);
            self.current.push(Reverse(s));
        }
        while let Some(Reverse(head)) = self.overflow.peek() {
            if bucket_of(head.time) > b {
                break;
            }
            let Reverse(s) = self.overflow.pop().expect("peeked entry exists");
            self.current.push(Reverse(s));
        }
    }

    /// Absolute bucket of the earliest pending event outside `current`.
    fn next_bucket(&self) -> Option<u64> {
        let mut best: Option<u64> = None;
        if self.ring_count > 0 {
            for delta in 1..=RING_LEN as u64 {
                let b = self.cur_bucket + delta;
                if !self.ring[(b % RING_LEN as u64) as usize].is_empty() {
                    best = Some(b);
                    break;
                }
            }
        }
        if let Some(Reverse(head)) = self.overflow.peek() {
            let ob = bucket_of(head.time);
            best = Some(best.map_or(ob, |rb| rb.min(ob)));
        }
        best
    }

    fn pop(&mut self) -> Option<Scheduled<E>> {
        if self.current.is_empty() {
            let b = self.next_bucket()?;
            self.advance_to(b);
        }
        self.current.pop().map(|Reverse(s)| s)
    }

    /// Time of the earliest pending event without popping it.
    fn peek_time(&self) -> Option<SimTime> {
        self.peek_rank().map(|(t, _)| t)
    }

    /// `(time, key)` of the earliest pending event (lexicographic min)
    /// without popping it.
    fn peek_rank(&self) -> Option<(SimTime, u64)> {
        if let Some(Reverse(head)) = self.current.peek() {
            // Ring/overflow events live in later buckets, hence later
            // times; the heap head minimizes (time, key, seq).
            return Some((head.time, head.key));
        }
        let b = self.next_bucket()?;
        let slot = &self.ring[(b % RING_LEN as u64) as usize];
        let mut best: Option<(SimTime, u64)> = slot
            .iter()
            .filter(|s| bucket_of(s.time) == b)
            .map(|s| (s.time, s.key))
            .min();
        if let Some(Reverse(head)) = self.overflow.peek() {
            if bucket_of(head.time) <= b {
                let rank = (head.time, head.key);
                best = Some(best.map_or(rank, |r| r.min(rank)));
            }
        }
        best
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
    queue: CalendarQueue<E>,
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
            queue: CalendarQueue::new(),
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
        self.queue.len()
    }

    /// High-water mark of the pending-event queue depth. Execution-shape
    /// diagnostic: differs between serial and sharded runs.
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
        self.queue.push(Scheduled {
            time,
            key: event.key(),
            seq,
            event,
        });
        // CalendarQueue::len is O(1), so high-water tracking is free.
        self.high_water = self.high_water.max(self.queue.len());
    }

    /// Schedules a typed event after `delay` from the current time.
    pub fn schedule_event_after(&mut self, delay: SimDuration, event: E) {
        self.schedule_event_at(self.clock + delay, event);
    }

    /// Runs a single event if one is pending. Returns whether an event ran.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some(s) => {
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
            None => false,
        }
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
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        self.clock = self.clock.max(deadline);
    }

    /// Runs until `predicate` returns true (checked after every event) or
    /// the queue drains. Returns whether the predicate was satisfied.
    pub fn run_while(&mut self, mut predicate: impl FnMut(&Engine<W, E>) -> bool) -> bool {
        loop {
            if predicate(self) {
                return true;
            }
            if !self.step() {
                return false;
            }
        }
    }

    /// Time of the next pending event, if any.
    #[must_use]
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// `(time, key)` of the next pending event, if any. The parallel
    /// coordinator uses the key to locate the globally minimal event when
    /// it has to single-step across shards.
    #[must_use]
    pub fn next_event_rank(&self) -> Option<(SimTime, u64)> {
        self.queue.peek_rank()
    }

    /// Removes and returns every pending event in `(time, key, seq)`
    /// order, without firing them. The clock is unchanged.
    ///
    /// The parallel executor uses this to fork a serial engine's queue
    /// across shards and to collect survivors when joining back.
    pub fn drain_pending(&mut self) -> Vec<(SimTime, E)> {
        let mut out = Vec::with_capacity(self.queue.len());
        while let Some(s) = self.queue.pop() {
            out.push((s.time, s.event));
        }
        out
    }

    /// Advances the clock to `t` (no-op if already later) without running
    /// anything. Callers must not skip past pending events; debug builds
    /// assert this.
    pub fn advance_clock_to(&mut self, t: SimTime) {
        debug_assert!(
            self.queue.peek_time().is_none_or(|n| n >= t),
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
            queue: self.queue.clone(),
            world,
        }
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
    fn run_while_reports_predicate_outcome() {
        let mut e = engine();
        for _ in 0..10 {
            e.schedule_event_after(SimDuration::from_secs(1), Op::Push(1));
        }
        assert!(e.run_while(|e| e.world.len() >= 4));
        assert_eq!(e.world.len(), 4);
        assert!(!e.run_while(|e| e.world.len() >= 100));
        assert_eq!(e.world.len(), 10);
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
    fn calendar_queue_handles_ring_wrap_and_overflow() {
        // Spread events far past the ring horizon (64 µs × 1024 ≈ 65 ms)
        // and interleave near/far scheduling from inside handlers.
        let mut e = engine();
        for i in (0..200u64).rev() {
            e.schedule_event_at(SimTime::ZERO + SimDuration::from_micros(i * 997), Op::Now);
        }
        // Far-future overflow events (seconds out).
        for i in 0..20u64 {
            e.schedule_event_at(SimTime::ZERO + SimDuration::from_secs(i + 1), Op::Now);
        }
        e.run();
        assert_eq!(e.world.len(), 220);
        assert!(e.world.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(e.events_pending(), 0);
    }

    #[test]
    fn next_event_time_sees_ring_and_overflow() {
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
}
