//! Conservative parallel execution over sharded engines, with per-pair
//! lookahead and asynchronous window advancement.
//!
//! The serial [`Engine`] steps one event at a time in `(time, key, seq)`
//! order. This module runs *several* engines — shards of one logical
//! simulation — on worker threads. The scheme is conservative
//! (Chandy–Misra-style) lookahead, but unlike the classic global-barrier
//! variant there is **no global window**: each shard advances to its own
//! *safe horizon* derived from a k×k [`LookaheadMatrix`], and the
//! coordinator grants a shard its next window as soon as *that shard's*
//! dependencies allow — not after a barrier collect of all k shards.
//!
//! # Lookahead matrix
//!
//! `L[i][j]` is a lower bound (in virtual nanoseconds) on how long any
//! effect takes to travel from shard `i` to shard `j` — for a network
//! partition, the minimum latency over links crossing from `i` to `j`,
//! and ∞ when no edge crosses. The matrix is closed under composition
//! (Floyd–Warshall): if the cheapest influence path from `j` to `i` runs
//! through `m`, the closure entry `dist[j][i]` reflects it. Every finite
//! entry is clamped to ≥ 1 ns so progress is guaranteed.
//!
//! # Per-shard horizon rule
//!
//! Let `lb_j` be a lower bound on the next virtual time shard `j` can
//! execute an event at — its reported queue head when idle, the head it
//! was granted at when busy, always folded with the earliest in-flight
//! envelope addressed to it. Shard `i` may run every event strictly
//! before
//!
//! ```text
//! horizon_i = min( lb_i + echo_i ,  min over j≠i ( lb_j + dist[j][i] ) )
//! ```
//!
//! The second term is the classic bound: nothing any peer does can reach
//! `i` earlier. The first term guards against *echo*: shard `i`'s own
//! cross-shard effects reflecting back through an otherwise-idle peer.
//! `echo_i = min over j≠i (dist[i][j] + dist[j][i])` is the fastest
//! round trip, so no consequence of `i`'s own work (which starts no
//! earlier than `lb_i`) can return before `lb_i + echo_i`. Without this
//! term a shard facing only empty peers would race past its own replies.
//!
//! Because shards bounded only by their actual neighbors run far ahead,
//! unrelated pods of a Clos fabric no longer serialize each other, and an
//! idle shard with no work below its peers' horizons receives *no*
//! messages at all — window traffic is proportional to useful work, not
//! to `k × rounds`.
//!
//! # Determinism contract
//!
//! The executor is *bit-identical* to serial execution provided the world
//! meets two obligations:
//!
//! 1. **Total event order.** Same-time events must be totally ordered by
//!    [`EventFire::key`] — keys must be globally unique per (time, event)
//!    (events deliberately replicated onto several shards share a key and
//!    count as one logical event). Cross-shard envelopes are merged
//!    pre-sorted by `(time, key)`, so the receiver replays them at
//!    exactly the serial position regardless of which grant delivered
//!    them.
//! 2. **Honest lookahead.** No event handler may cause an effect on
//!    shard `j` earlier than `now + L[i][j]` when running on shard `i`.
//!
//! Under those obligations the horizon rule guarantees every envelope is
//! delivered before its destination's clock reaches it: a grant to `i`
//! ends at `end_i ≤ horizon_i ≤ lb_j + dist[j][i]`, and any envelope a
//! peer later emits toward `i` is due no earlier than that. Induction
//! over grants then gives bit-identical replay: each shard executes
//! exactly the serial event sequence restricted to the actors it owns.
//!
//! The serial quiescence loop re-evaluates its stop predicate *between
//! every two events*, so grants are additionally clipped at the quiet
//! horizon (`last + quiet`) and at `deadline`; the clip uses the
//! coordinator's possibly-stale view of `last`, which is conservative
//! (stale `last` is only ever smaller, so no event the serial loop would
//! have left unfired can fire here). Stop predicates and the lock-step
//! fallback are evaluated only when every shard is idle and every
//! envelope delivered — i.e. against an *exact* global state. Past the
//! quiet horizon (e.g. a scripted link flap long after convergence) the
//! coordinator degrades to lock-step single-stepping of the globally
//! minimal event until activity resumes — rare, transient, and exact.
//!
//! Worker threads communicate over `crossbeam` channels: the coordinator
//! sends per-shard `Run` grants carrying pre-sorted inboxes, workers
//! reply with a status (queue head, quiescence counters, events executed,
//! idle wall-time) plus their outbox of cross-shard envelopes.

use crate::engine::{Engine, EventFire};
use crate::time::{SimDuration, SimTime};
use crossbeam::channel::{self, Sender};
use std::time::Instant;

/// Sentinel for "no influence path" lookahead entries.
pub const NO_PATH: u64 = u64::MAX;

/// Per-shard-pair lookahead bounds, closed under path composition.
///
/// Entry `(i, j)` bounds from below the virtual latency of any effect
/// shard `i` can cause on shard `j`. Construct with [`Self::from_nanos`]
/// (a raw direct-edge matrix, [`NO_PATH`] where no edge crosses) or
/// [`Self::uniform`] (the legacy single-scalar scheme).
#[derive(Debug, Clone)]
pub struct LookaheadMatrix {
    k: usize,
    /// All-pairs closure, row-major `dist[i * k + j]`, diagonal 0.
    dist: Vec<u64>,
    /// `echo[i]` = cheapest round trip `i → j → i` over distinct `j`.
    echo: Vec<u64>,
}

impl LookaheadMatrix {
    /// Builds the matrix from direct per-pair bounds in nanoseconds
    /// (`direct[i * k + j]`, [`NO_PATH`] meaning "no crossing edge").
    /// Off-diagonal finite entries are clamped to ≥ 1 ns, then closed
    /// with Floyd–Warshall so transitive influence paths are honored.
    ///
    /// # Panics
    ///
    /// Panics if `direct.len() != k * k`.
    #[must_use]
    pub fn from_nanos(k: usize, direct: Vec<u64>) -> Self {
        assert_eq!(direct.len(), k * k, "matrix must be k×k");
        let mut dist = direct;
        for i in 0..k {
            for j in 0..k {
                let e = &mut dist[i * k + j];
                if i == j {
                    *e = 0;
                } else if *e != NO_PATH {
                    *e = (*e).max(1);
                }
            }
        }
        // Floyd–Warshall with saturating composition.
        for m in 0..k {
            for i in 0..k {
                let im = dist[i * k + m];
                if im == NO_PATH {
                    continue;
                }
                for j in 0..k {
                    let mj = dist[m * k + j];
                    if mj == NO_PATH {
                        continue;
                    }
                    let via = im.saturating_add(mj);
                    let e = &mut dist[i * k + j];
                    if via < *e {
                        *e = via;
                    }
                }
            }
        }
        let echo = (0..k)
            .map(|i| {
                (0..k)
                    .filter(|&j| j != i)
                    .map(|j| dist[i * k + j].saturating_add(dist[j * k + i]))
                    .min()
                    .unwrap_or(NO_PATH)
            })
            .collect();
        Self { k, dist, echo }
    }

    /// The legacy uniform scheme: every distinct pair bounded by the one
    /// scalar `lookahead` (clamped to ≥ 1 ns).
    #[must_use]
    pub fn uniform(k: usize, lookahead: SimDuration) -> Self {
        let la = lookahead.as_nanos().max(1);
        let direct = (0..k * k)
            .map(|e| if e % (k + 1) == 0 { 0 } else { la })
            .collect();
        Self::from_nanos(k, direct)
    }

    /// Number of shards the matrix describes.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.k
    }

    /// Closed lower bound on influence latency `from → to` (ns).
    #[must_use]
    pub fn dist(&self, from: usize, to: usize) -> u64 {
        self.dist[from * self.k + to]
    }

    /// Cheapest round-trip latency leaving and re-entering `shard` (ns).
    #[must_use]
    pub fn echo(&self, shard: usize) -> u64 {
        self.echo[shard]
    }
}

/// World-side hooks the parallel executor needs from a shard.
///
/// A shard world is a replica of the full simulation state that *owns* a
/// subset of the actors; events for non-owned actors are routed to the
/// owning shard through the outbox instead of the local queue.
pub trait ParallelWorld: Send + Sized {
    /// The event type shards exchange.
    type Ev: EventFire<Self> + Send;

    /// Drains the cross-shard envelopes emitted since the last report:
    /// `(destination shard, due time, event)`.
    fn take_outbox(&mut self) -> Vec<(usize, SimTime, Self::Ev)>;

    /// Accounting hook invoked for each incoming envelope just before it
    /// is enqueued locally (e.g. bump a causal-pending counter).
    fn accept_remote(&mut self, ev: &Self::Ev);

    /// Whether `ev` can still trigger activity (counts against global
    /// quiescence). Pure self-rearming timers return `false`.
    fn is_causal(ev: &Self::Ev) -> bool;

    /// Number of locally queued events that can still trigger activity.
    fn causal_pending(&self) -> u64;

    /// Completion time of the last activity on this shard.
    fn last_activity(&self) -> SimTime;
}

/// Events-per-grant distribution in power-of-two buckets: bucket 0
/// counts empty grants, bucket `b > 0` counts grants that executed
/// `[2^(b-1), 2^b)` events, the last bucket absorbs the tail.
pub const WINDOW_HIST_BUCKETS: usize = 17;

/// Compact histogram of events executed per window grant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowHist {
    /// Grants recorded.
    pub count: u64,
    /// Total events across recorded grants.
    pub sum: u64,
    /// Largest single grant.
    pub max: u64,
    /// Power-of-two buckets; see [`WINDOW_HIST_BUCKETS`].
    pub buckets: [u64; WINDOW_HIST_BUCKETS],
}

impl WindowHist {
    /// Records one grant that executed `events` events. `sum`
    /// saturates rather than wraps on pathological totals.
    pub fn record(&mut self, events: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(events);
        self.max = self.max.max(events);
        let b = if events == 0 {
            0
        } else {
            ((64 - events.leading_zeros()) as usize).min(WINDOW_HIST_BUCKETS - 1)
        };
        self.buckets[b] += 1;
    }

    /// Folds another histogram into this one. Associative and
    /// commutative, so shard-local histograms merge in any order.
    pub fn absorb(&mut self, other: &Self) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        for (b, v) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += v;
        }
    }

    /// Mean events per grant (0.0 when nothing was recorded).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// The binding term of the horizon rule when a command was issued —
/// *why* the grant's window ended where it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Limiter {
    /// The shard's own echo bound `lb_i + echo_i` was the minimum.
    Echo,
    /// Peer `j`'s bound `lb_j + dist[j][i]` was the minimum — the
    /// shard is starved for lookahead from that peer.
    Peer(usize),
    /// The window was clipped at the quiet horizon `last + quiet`.
    QuietClip,
    /// The window was clipped at `deadline`.
    DeadlineClip,
    /// A lock-step single-event round past the quiet horizon.
    Lockstep,
    /// An envelope-delivery grant that fires nothing.
    Deliver,
}

/// One coordinator command with wall-clock bounds, captured only on
/// profiling runs. Timestamps are nanoseconds since coordinator start;
/// wall-clock, hence nondeterministic — route to diagnostics, never
/// the canonical report.
#[derive(Debug, Clone)]
pub struct GrantRecord {
    /// Destination shard.
    pub shard: usize,
    /// Why the window ended where it did.
    pub limiter: Limiter,
    /// When the coordinator sent the command.
    pub issue_ns: u64,
    /// When the coordinator folded the reply back in.
    pub done_ns: u64,
    /// Events the command executed.
    pub executed: u64,
}

/// Wall-clock profile of one parallel run (profiling runs only).
#[derive(Debug, Clone, Default)]
pub struct ParallelProfile {
    /// Every command issued, in completion order.
    pub grants: Vec<GrantRecord>,
    /// Coordinator wall-clock spent merging worker replies (outbox
    /// sort/merge plus status bookkeeping).
    pub merge_ns: u64,
    /// Cumulative wall-clock each worker spent executing commands, in
    /// shard order.
    pub busy_ns: Vec<u64>,
    /// Wall-clock from coordinator start to verdict.
    pub run_wall_ns: u64,
}

/// Result of a parallel run: the verdict plus the shard engines for the
/// caller to merge back into its serial representation.
pub struct ParallelOutcome<W: ParallelWorld> {
    /// The quiescence instant (max [`ParallelWorld::last_activity`]), or
    /// `None` on deadline overrun — mirroring the serial convergence loop.
    pub converged_at: Option<SimTime>,
    /// The furthest virtual time any shard reached.
    pub clock: SimTime,
    /// The shard engines, in input order, with undelivered envelopes
    /// already re-enqueued on their destination shard.
    pub shards: Vec<Engine<W, W::Ev>>,
    /// Window grants issued (per-shard, not barrier rounds). Execution-
    /// shape diagnostic: varies with the shard count.
    pub windows: u64,
    /// Lock-step single-event rounds past the quiet/deadline horizons.
    /// Execution-shape diagnostic.
    pub lockstep_rounds: u64,
    /// Times a shard's computed safe horizon strictly advanced.
    pub horizon_advances: u64,
    /// Wall-clock nanoseconds each worker spent blocked waiting for a
    /// grant, in shard order. Wall-clock, hence nondeterministic: route
    /// to diagnostics, never the canonical report.
    pub idle_ns: Vec<u64>,
    /// Events executed per window grant.
    pub window_hist: WindowHist,
    /// Grant timeline and coordinator timings; `Some` only when the
    /// run was started with profiling enabled.
    pub profile: Option<ParallelProfile>,
}

/// Coordinator → worker commands.
enum Cmd<E> {
    /// Enqueue `inbox` (pre-sorted by `(time, key)`), run all local
    /// events with `time < end`, report.
    Run {
        end: SimTime,
        inbox: Vec<(SimTime, E)>,
    },
    /// Fire exactly one event (lock-step mode past the quiet horizon).
    StepOne,
    /// Enqueue `inbox` and return the engine to the coordinator.
    Finish { inbox: Vec<(SimTime, E)> },
}

/// Worker → coordinator status, sent once at startup and after every
/// command.
struct Status<E> {
    shard: usize,
    next: Option<(SimTime, u64)>,
    causal: u64,
    last: SimTime,
    clock: SimTime,
    /// Events executed by the command this status answers.
    executed_delta: u64,
    /// Cumulative wall-clock nanoseconds spent blocked on the grant
    /// channel.
    idle_ns: u64,
    /// Cumulative wall-clock nanoseconds spent executing commands.
    busy_ns: u64,
    outbox: Vec<(usize, SimTime, E)>,
}

fn status_of<W: ParallelWorld>(
    shard: usize,
    eng: &Engine<W, W::Ev>,
    executed_delta: u64,
    idle_ns: u64,
    busy_ns: u64,
    outbox: Vec<(usize, SimTime, W::Ev)>,
) -> Status<W::Ev> {
    Status {
        shard,
        next: eng.next_event_rank(),
        causal: eng.world.causal_pending(),
        last: eng.world.last_activity(),
        clock: eng.now(),
        executed_delta,
        idle_ns,
        busy_ns,
        outbox,
    }
}

/// Enqueues a pre-sorted inbox of cross-shard envelopes.
///
/// The coordinator maintains in-flight envelopes sorted by `(time, key)`,
/// so the worker enqueues without re-sorting (the engine itself orders
/// same-time events by key).
fn enqueue<W: ParallelWorld>(eng: &mut Engine<W, W::Ev>, inbox: Vec<(SimTime, W::Ev)>) {
    debug_assert!(
        inbox
            .windows(2)
            .all(|w| (w[0].0, w[0].1.key()) <= (w[1].0, w[1].1.key())),
        "inbox must arrive pre-sorted by (time, key)"
    );
    for (t, ev) in inbox {
        debug_assert!(
            t >= eng.now(),
            "late envelope: lookahead matrix was dishonest"
        );
        eng.world.accept_remote(&ev);
        eng.schedule_event_at(t, ev);
    }
}

/// What a busy worker was last told to do (drives telemetry attribution
/// when its status comes back).
#[derive(Clone, Copy, PartialEq, Eq)]
enum BusyKind {
    /// A real window grant.
    Window,
    /// An envelope delivery that fires nothing (`end` = global min).
    Deliver,
    /// A lock-step single event.
    Step,
}

/// Coordinator bookkeeping, folded into a struct so the integrate step
/// (worker reply → coordinator state) updates it as one unit and the
/// profiling capture can ride along without widening every call site.
struct Coord<W: ParallelWorld> {
    k: usize,
    /// Latest report per shard.
    stats: Vec<Option<Status<W::Ev>>>,
    /// Set while a command is outstanding, with the virtual-time lower
    /// bound recorded at grant time (no event the worker fires, and no
    /// envelope it emits, can precede it).
    busy: Vec<Option<(BusyKind, SimTime)>>,
    /// Cross-shard envelopes awaiting delivery, per destination,
    /// sorted by `(time, key)`.
    inflight: Vec<Vec<(SimTime, W::Ev)>>,
    idle_ns: Vec<u64>,
    busy_ns: Vec<u64>,
    window_hist: WindowHist,
    /// Limiter + issue timestamp of the outstanding command; recorded
    /// only when profiling.
    pending: Vec<Option<(Limiter, u64)>>,
    grants: Vec<GrantRecord>,
    merge_ns: u64,
    profile: bool,
    started: Instant,
}

impl<W: ParallelWorld> Coord<W> {
    fn new(k: usize, profile: bool) -> Self {
        Self {
            k,
            stats: (0..k).map(|_| None).collect(),
            busy: vec![None; k],
            inflight: (0..k).map(|_| Vec::new()).collect(),
            idle_ns: vec![0; k],
            busy_ns: vec![0; k],
            window_hist: WindowHist::default(),
            pending: vec![None; k],
            grants: Vec::new(),
            merge_ns: 0,
            profile,
            started: Instant::now(),
        }
    }

    fn elapsed_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Marks `shard` busy on a just-sent command; captures the grant's
    /// limiter and issue time when profiling.
    fn issue(&mut self, shard: usize, kind: BusyKind, bound: SimTime, limiter: Limiter) {
        self.busy[shard] = Some((kind, bound));
        if self.profile {
            self.pending[shard] = Some((limiter, self.elapsed_ns()));
        }
    }

    /// Folds one worker report into coordinator state.
    fn integrate(&mut self, st: Status<W::Ev>) {
        let merge_started = if self.profile {
            Some(Instant::now())
        } else {
            None
        };
        let mut st = st;
        let shard = st.shard;
        let mut batches: Vec<Vec<(SimTime, W::Ev)>> = (0..self.k).map(|_| Vec::new()).collect();
        for (dest, t, ev) in st.outbox.drain(..) {
            batches[dest].push((t, ev));
        }
        for (dest, batch) in batches.into_iter().enumerate() {
            let mut batch: Vec<((SimTime, u64), W::Ev)> = batch
                .into_iter()
                .map(|(t, ev)| ((t, ev.key()), ev))
                .collect();
            batch.sort_by_key(|e| e.0);
            // Re-keyed merge keeps (time, key) order without Ord on Ev.
            let old = std::mem::take(&mut self.inflight[dest]);
            let mut merged = Vec::with_capacity(old.len() + batch.len());
            let mut a = old.into_iter().peekable();
            let mut b = batch.into_iter().peekable();
            while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
                let ra = (x.0, x.1.key());
                if ra <= y.0 {
                    merged.push(a.next().unwrap());
                } else {
                    let (rank, ev) = b.next().unwrap();
                    merged.push((rank.0, ev));
                }
            }
            merged.extend(a);
            merged.extend(b.map(|(rank, ev)| (rank.0, ev)));
            self.inflight[dest] = merged;
        }
        self.idle_ns[shard] = st.idle_ns;
        self.busy_ns[shard] = st.busy_ns;
        if let Some((BusyKind::Window, _)) = self.busy[shard] {
            self.window_hist.record(st.executed_delta);
        }
        if let Some((limiter, issue_ns)) = self.pending[shard].take() {
            self.grants.push(GrantRecord {
                shard,
                limiter,
                issue_ns,
                done_ns: self.elapsed_ns(),
                executed: st.executed_delta,
            });
        }
        self.busy[shard] = None;
        self.stats[shard] = Some(st);
        if let Some(t0) = merge_started {
            self.merge_ns += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Extracts the profile section (consumes the captured grants).
    fn take_profile(&mut self) -> Option<ParallelProfile> {
        if !self.profile {
            return None;
        }
        Some(ParallelProfile {
            grants: std::mem::take(&mut self.grants),
            merge_ns: self.merge_ns,
            busy_ns: self.busy_ns.clone(),
            run_wall_ns: self.elapsed_ns(),
        })
    }
}

/// Runs sharded engines until global quiescence: no causal events remain
/// and the next pending event (anywhere) lies more than `quiet` past the
/// last activity. Returns `converged_at = None` if quiescence is not
/// reached by `deadline`.
///
/// `matrix` carries the per-shard-pair lookahead bounds; see the module
/// docs for the horizon rule. Workers are granted windows independently
/// and asynchronously — there is no global barrier.
///
/// # Panics
///
/// Panics if `shards` is empty, `matrix.shard_count() != shards.len()`,
/// or a worker thread panics (e.g. an event handler panicked).
pub fn run_shards_until_quiet_matrix<W: ParallelWorld>(
    shards: Vec<Engine<W, W::Ev>>,
    matrix: &LookaheadMatrix,
    quiet: SimDuration,
    deadline: SimTime,
) -> ParallelOutcome<W> {
    run_shards_until_quiet_matrix_profiled(shards, matrix, quiet, deadline, false)
}

/// [`run_shards_until_quiet_matrix`] with an explicit profiling switch.
///
/// When `profile` is true the coordinator additionally captures the
/// full grant timeline ([`GrantRecord`] per command, with the horizon
/// term that bounded each window), per-worker busy time, and its own
/// merge time, returned as [`ParallelOutcome::profile`]. Profiling
/// touches only wall-clock bookkeeping — the virtual event execution
/// is bit-identical either way.
///
/// # Panics
///
/// Panics if `shards` is empty, `matrix.shard_count() != shards.len()`,
/// or a worker thread panics (e.g. an event handler panicked).
pub fn run_shards_until_quiet_matrix_profiled<W: ParallelWorld>(
    shards: Vec<Engine<W, W::Ev>>,
    matrix: &LookaheadMatrix,
    quiet: SimDuration,
    deadline: SimTime,
    profile: bool,
) -> ParallelOutcome<W> {
    let k = shards.len();
    assert!(k > 0, "at least one shard required");
    assert_eq!(matrix.shard_count(), k, "matrix must match shard count");

    std::thread::scope(|scope| {
        let (stx, srx) = channel::unbounded::<Status<W::Ev>>();
        let mut txs: Vec<Sender<Cmd<W::Ev>>> = Vec::with_capacity(k);
        let mut handles = Vec::with_capacity(k);
        for (i, mut eng) in shards.into_iter().enumerate() {
            let (tx, rx) = channel::unbounded::<Cmd<W::Ev>>();
            txs.push(tx);
            let stx = stx.clone();
            handles.push(scope.spawn(move || {
                // Initial status so the coordinator sees the starting
                // queue before the first grant.
                stx.send(status_of(i, &eng, 0, 0, 0, Vec::new())).ok();
                let mut idle_ns: u64 = 0;
                let mut busy_ns: u64 = 0;
                loop {
                    let blocked = Instant::now();
                    let cmd = rx.recv().expect("coordinator hung up");
                    idle_ns += blocked.elapsed().as_nanos() as u64;
                    match cmd {
                        Cmd::Run { end, inbox } => {
                            let started = Instant::now();
                            enqueue(&mut eng, inbox);
                            let before = eng.events_executed();
                            while let Some(t) = eng.next_event_time() {
                                if t >= end {
                                    break;
                                }
                                eng.step();
                            }
                            let delta = eng.events_executed() - before;
                            let outbox = eng.world.take_outbox();
                            busy_ns += started.elapsed().as_nanos() as u64;
                            stx.send(status_of(i, &eng, delta, idle_ns, busy_ns, outbox))
                                .ok();
                        }
                        Cmd::StepOne => {
                            let started = Instant::now();
                            eng.step();
                            let outbox = eng.world.take_outbox();
                            busy_ns += started.elapsed().as_nanos() as u64;
                            stx.send(status_of(i, &eng, 1, idle_ns, busy_ns, outbox))
                                .ok();
                        }
                        Cmd::Finish { inbox } => {
                            enqueue(&mut eng, inbox);
                            return eng;
                        }
                    }
                }
            }));
        }
        drop(stx);

        let mut co = Coord::<W>::new(k, profile);
        let mut windows: u64 = 0;
        let mut lockstep_rounds: u64 = 0;
        let mut horizon_advances: u64 = 0;
        let mut horizon_seen: Vec<u64> = vec![0; k];

        // The first status from every worker (its starting queue).
        for _ in 0..k {
            let st = srx.recv().expect("worker died");
            co.integrate(st);
        }

        let epsilon = SimDuration::from_nanos(1);
        let at = |ns: u64| SimTime::ZERO + SimDuration::from_nanos(ns);
        let converged_at;
        loop {
            // Drain any further reports that arrived meanwhile.
            while let Ok(st) = srx.try_recv() {
                co.integrate(st);
            }

            // Per-shard lower bounds on the next executable event time:
            // reported queue head when idle, the grant-time bound while
            // busy, folded with the earliest in-flight envelope.
            let mut lb_ns: Vec<u64> = vec![u64::MAX; k];
            let mut next: Option<(SimTime, u64)> = None;
            let mut causal: u64 = 0;
            let mut last = SimTime::ZERO;
            for (i, lb_slot) in lb_ns.iter_mut().enumerate().take(k) {
                let st = co.stats[i].as_ref().expect("status seen for every shard");
                let mut lb = match co.busy[i] {
                    Some((_, bound)) => bound.as_nanos(),
                    None => st.next.map_or(u64::MAX, |(t, _)| t.as_nanos()),
                };
                if co.busy[i].is_none() {
                    if let Some(rank) = st.next {
                        next = Some(next.map_or(rank, |n| n.min(rank)));
                    }
                }
                if let Some((t, ev)) = co.inflight[i].first() {
                    lb = lb.min(t.as_nanos());
                    let rank = (*t, ev.key());
                    next = Some(next.map_or(rank, |n| n.min(rank)));
                }
                for (_, ev) in &co.inflight[i] {
                    causal += u64::from(W::is_causal(ev));
                }
                *lb_slot = lb;
                causal += st.causal;
                last = last.max(st.last);
            }
            let all_idle = co.busy.iter().all(Option::is_none);

            // Stop predicates and the lock-step fallback need the exact
            // serial view: every shard idle, every envelope visible.
            if all_idle {
                match next {
                    // Nothing left anywhere: quiesced (mirrors the serial
                    // loop's empty-queue arm).
                    None => {
                        converged_at = Some(last);
                        break;
                    }
                    // Only acausal work remains and it lies beyond the
                    // quiet horizon.
                    Some((t, _)) if causal == 0 && t > last + quiet => {
                        converged_at = Some(last);
                        break;
                    }
                    // Past the quiet horizon (scripted far-future events)
                    // or past the deadline, the serial loop re-arms its
                    // predicate between every two events, so no window is
                    // safe: fire exactly the globally minimal event,
                    // lock-step. A key replicated across shards is one
                    // logical event — step every holder.
                    Some((t, key)) if t > deadline || t > last + quiet => {
                        if co.inflight.iter().any(|v| !v.is_empty()) {
                            // Deliver envelopes first: the minimal event
                            // may still be in flight. `end = t` fires
                            // nothing (t is the global minimum).
                            let mut sent = 0usize;
                            for (i, tx) in txs.iter().enumerate().take(k) {
                                if co.inflight[i].is_empty() {
                                    continue;
                                }
                                co.issue(i, BusyKind::Deliver, t, Limiter::Deliver);
                                let inbox = std::mem::take(&mut co.inflight[i]);
                                tx.send(Cmd::Run { end: t, inbox }).expect("worker died");
                                sent += 1;
                            }
                            for _ in 0..sent {
                                let st = srx.recv().expect("worker died");
                                co.integrate(st);
                            }
                            continue;
                        }
                        let holders: Vec<usize> = co
                            .stats
                            .iter()
                            .flatten()
                            .filter(|st| st.next == Some((t, key)))
                            .map(|st| st.shard)
                            .collect();
                        lockstep_rounds += 1;
                        for &i in &holders {
                            co.issue(i, BusyKind::Step, t, Limiter::Lockstep);
                            txs[i].send(Cmd::StepOne).expect("worker died");
                        }
                        for _ in 0..holders.len() {
                            let st = srx.recv().expect("worker died");
                            co.integrate(st);
                        }
                        if t > deadline {
                            // The serial loop fires the first over-deadline
                            // event, then gives up; so do we.
                            converged_at = None;
                            break;
                        }
                        continue;
                    }
                    Some(_) => {}
                }
            }

            // Window grants: every idle shard whose earliest work lies
            // below its own safe horizon gets its next window now —
            // independently of its peers. Shards with nothing actionable
            // get no message at all.
            let quiet_ns = (last + quiet + epsilon).as_nanos();
            let deadline_ns = (deadline + epsilon).as_nanos();
            let clip_ns = quiet_ns.min(deadline_ns);
            let mut granted = 0usize;
            for i in 0..k {
                if co.busy[i].is_some() {
                    continue;
                }
                let eff_next = lb_ns[i];
                if eff_next == u64::MAX {
                    continue;
                }
                let mut horizon = lb_ns[i].saturating_add(matrix.echo(i));
                let mut limiter = Limiter::Echo;
                for (j, &lb) in lb_ns.iter().enumerate() {
                    if j == i {
                        continue;
                    }
                    let d = matrix.dist(j, i);
                    if d == NO_PATH {
                        continue;
                    }
                    let bound = lb.saturating_add(d);
                    if bound < horizon {
                        horizon = bound;
                        limiter = Limiter::Peer(j);
                    }
                }
                if horizon > horizon_seen[i] {
                    horizon_seen[i] = horizon;
                    horizon_advances += 1;
                }
                let end_ns = horizon.min(clip_ns);
                if clip_ns < horizon {
                    limiter = if deadline_ns < quiet_ns {
                        Limiter::DeadlineClip
                    } else {
                        Limiter::QuietClip
                    };
                }
                if eff_next >= end_ns {
                    continue;
                }
                co.issue(i, BusyKind::Window, at(eff_next), limiter);
                windows += 1;
                granted += 1;
                let inbox = std::mem::take(&mut co.inflight[i]);
                txs[i]
                    .send(Cmd::Run {
                        end: at(end_ns),
                        inbox,
                    })
                    .expect("worker died");
            }
            if granted == 0 {
                // Nothing actionable until a busy worker reports. The
                // horizon rule guarantees the holder of the global
                // minimum is always grantable when everyone is idle, so
                // a stall here implies a busy peer exists.
                assert!(
                    !all_idle,
                    "coordinator stalled with all shards idle — horizon rule violated"
                );
                let st = srx.recv().expect("worker died");
                co.integrate(st);
            }
        }

        let clock = co
            .stats
            .iter()
            .flatten()
            .map(|st| st.clock)
            .max()
            .unwrap_or(SimTime::ZERO);
        for (i, tx) in txs.iter().enumerate() {
            tx.send(Cmd::Finish {
                inbox: std::mem::take(&mut co.inflight[i]),
            })
            .expect("worker died");
        }
        let shards = handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect();
        let profile = co.take_profile();
        ParallelOutcome {
            converged_at,
            clock,
            shards,
            windows,
            lockstep_rounds,
            horizon_advances,
            idle_ns: co.idle_ns,
            window_hist: co.window_hist,
            profile,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy world: shards relay a ping back and forth; each hop is causal
    /// work 10 µs after the previous one.
    struct Relay {
        id: usize,
        hops_seen: Vec<u64>,
        fire_times: Vec<SimTime>,
        outbox: Vec<(usize, SimTime, Ping)>,
        causal: u64,
        last: SimTime,
    }

    struct Ping {
        key: u64,
        hops_left: u64,
    }

    const HOP: SimDuration = SimDuration::from_micros(10);

    impl EventFire<Relay> for Ping {
        fn key(&self) -> u64 {
            self.key
        }
        fn fire(self, e: &mut Engine<Relay, Ping>) {
            e.world.causal -= 1;
            e.world.last = e.now();
            e.world.hops_seen.push(self.hops_left);
            e.world.fire_times.push(e.now());
            if self.hops_left > 0 {
                let dest = 1 - e.world.id;
                let next = Ping {
                    key: self.key + 1,
                    hops_left: self.hops_left - 1,
                };
                e.world.outbox.push((dest, e.now() + HOP, next));
            }
        }
    }

    impl ParallelWorld for Relay {
        type Ev = Ping;
        fn take_outbox(&mut self) -> Vec<(usize, SimTime, Ping)> {
            std::mem::take(&mut self.outbox)
        }
        fn accept_remote(&mut self, _ev: &Ping) {
            self.causal += 1;
        }
        fn is_causal(_ev: &Ping) -> bool {
            true
        }
        fn causal_pending(&self) -> u64 {
            self.causal
        }
        fn last_activity(&self) -> SimTime {
            self.last
        }
    }

    fn relay(id: usize) -> Engine<Relay, Ping> {
        Engine::new(Relay {
            id,
            hops_seen: Vec::new(),
            fire_times: Vec::new(),
            outbox: Vec::new(),
            causal: 0,
            last: SimTime::ZERO,
        })
    }

    #[test]
    fn ping_pong_converges_at_last_hop() {
        let mut a = relay(0);
        let b = relay(1);
        a.world.causal += 1;
        a.schedule_event_at(
            SimTime::ZERO + HOP,
            Ping {
                key: 1,
                hops_left: 100,
            },
        );
        let out = run_shards_until_quiet_matrix(
            vec![a, b],
            &LookaheadMatrix::uniform(2, HOP),
            SimDuration::from_millis(1),
            SimTime::ZERO + SimDuration::from_secs(10),
        );
        // Hop i fires at (i + 1) × 10 µs; the last at 101 × 10 µs.
        assert_eq!(out.converged_at, Some(SimTime::ZERO + HOP * 101));
        assert_eq!(out.clock, SimTime::ZERO + HOP * 101);
        let total: usize = out.shards.iter().map(|s| s.world.hops_seen.len()).sum();
        assert_eq!(total, 101);
        // Even hops land on shard 0, odd on shard 1, in descending order.
        assert!(out.shards[0].world.hops_seen.iter().all(|h| h % 2 == 0));
        assert!(out.shards[1].world.hops_seen.iter().all(|h| h % 2 == 1));
        for s in &out.shards {
            assert!(s.world.hops_seen.windows(2).all(|w| w[0] > w[1]));
            assert_eq!(s.world.causal_pending(), 0);
        }
        // Telemetry is populated and consistent.
        assert!(out.windows > 0);
        assert_eq!(out.window_hist.count, out.windows);
        assert_eq!(out.window_hist.sum, 101);
        assert_eq!(out.idle_ns.len(), 2);
    }

    #[test]
    fn deadline_overrun_reports_none() {
        let mut a = relay(0);
        let b = relay(1);
        a.world.causal += 1;
        a.schedule_event_at(
            SimTime::ZERO + HOP,
            Ping {
                key: 1,
                hops_left: 1_000,
            },
        );
        let out = run_shards_until_quiet_matrix(
            vec![a, b],
            &LookaheadMatrix::uniform(2, HOP),
            SimDuration::from_millis(1),
            SimTime::ZERO + HOP * 10,
        );
        assert_eq!(out.converged_at, None);
        // Like the serial loop, exactly one over-deadline event fired
        // (hops at 10..=100 µs within the deadline, plus the one at
        // 110 µs), and its follow-up envelope was requeued, not lost.
        let fired: usize = out.shards.iter().map(|s| s.world.hops_seen.len()).sum();
        assert_eq!(fired, 11);
        let queued: usize = out.shards.iter().map(Engine::events_pending).sum();
        assert_eq!(queued, 1);
    }

    #[test]
    fn far_future_causal_event_single_steps_exactly() {
        // A scripted event long past the quiet horizon: the coordinator
        // must drop to lock-step so the quiescence predicate is evaluated
        // between every two events, exactly like the serial loop.
        let mut a = relay(0);
        let b = relay(1);
        a.world.causal += 2;
        a.schedule_event_at(
            SimTime::ZERO + HOP,
            Ping {
                key: 1,
                hops_left: 2,
            },
        );
        let resume = SimTime::ZERO + SimDuration::from_secs(5);
        a.schedule_event_at(
            resume,
            Ping {
                key: 1000,
                hops_left: 2,
            },
        );
        let out = run_shards_until_quiet_matrix(
            vec![a, b],
            &LookaheadMatrix::uniform(2, HOP),
            SimDuration::from_millis(1),
            SimTime::ZERO + SimDuration::from_secs(10),
        );
        // First chain ends at 30 µs; the scripted ping resumes at 5 s and
        // its chain ends two hops later.
        assert_eq!(out.converged_at, Some(resume + HOP * 2));
        let total: usize = out.shards.iter().map(|s| s.world.hops_seen.len()).sum();
        assert_eq!(total, 6);
        assert!(out.lockstep_rounds > 0);
    }

    #[test]
    fn single_shard_runs_serially() {
        let mut a = relay(0);
        a.world.id = 1; // route "cross-shard" pings back to itself
        a.world.causal += 1;
        a.schedule_event_at(
            SimTime::ZERO + HOP,
            Ping {
                key: 1,
                hops_left: 5,
            },
        );
        let out = run_shards_until_quiet_matrix(
            vec![a],
            &LookaheadMatrix::uniform(1, HOP),
            SimDuration::from_millis(1),
            SimTime::ZERO + SimDuration::from_secs(1),
        );
        assert_eq!(out.converged_at, Some(SimTime::ZERO + HOP * 6));
        assert_eq!(out.shards[0].world.hops_seen, vec![5, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn empty_shards_quiesce_at_zero() {
        let out = run_shards_until_quiet_matrix::<Relay>(
            vec![relay(0), relay(1)],
            &LookaheadMatrix::uniform(2, HOP),
            SimDuration::from_millis(1),
            SimTime::ZERO + SimDuration::from_secs(1),
        );
        assert_eq!(out.converged_at, Some(SimTime::ZERO));
    }

    #[test]
    fn echo_bound_keeps_replies_exact() {
        // Shard 0 pings shard 1 (reply lands back at 30 µs) and also has
        // an unrelated local event at 35 µs. Without the echo term in the
        // horizon, shard 0 — facing an *empty* peer — would run to its
        // quiet clip, fire the 35 µs event, and receive its own reply
        // late (clamped to 35 µs). The echo bound must hold it back so
        // the reply fires at exactly 30 µs, before the 35 µs event.
        let mut a = relay(0);
        let b = relay(1);
        a.world.causal += 2;
        a.schedule_event_at(
            SimTime::ZERO + HOP,
            Ping {
                key: 1,
                hops_left: 2,
            },
        );
        a.schedule_event_at(
            SimTime::ZERO + HOP * 7 / 2, // 35 µs
            Ping {
                key: 900,
                hops_left: 0,
            },
        );
        let out = run_shards_until_quiet_matrix(
            vec![a, b],
            &LookaheadMatrix::uniform(2, HOP),
            SimDuration::from_millis(1),
            SimTime::ZERO + SimDuration::from_secs(1),
        );
        assert_eq!(out.converged_at, Some(SimTime::ZERO + HOP * 7 / 2));
        assert_eq!(
            out.shards[0].world.fire_times,
            vec![
                SimTime::ZERO + HOP,
                SimTime::ZERO + HOP * 3,
                SimTime::ZERO + HOP * 7 / 2,
            ]
        );
        assert_eq!(
            out.shards[1].world.fire_times,
            vec![SimTime::ZERO + HOP * 2]
        );
    }

    #[test]
    fn matrix_closure_and_echo() {
        // Line of three shards: 0 —10ns— 1 —100ns— 2, no direct 0↔2 edge.
        let inf = NO_PATH;
        let m = LookaheadMatrix::from_nanos(3, vec![0, 10, inf, 10, 0, 100, inf, 100, 0]);
        assert_eq!(m.dist(0, 1), 10);
        assert_eq!(m.dist(1, 2), 100);
        // The closure honors the transitive influence path 0 → 1 → 2.
        assert_eq!(m.dist(0, 2), 110);
        assert_eq!(m.dist(2, 0), 110);
        assert_eq!(m.echo(0), 20);
        assert_eq!(m.echo(1), 20);
        assert_eq!(m.echo(2), 200);
    }

    #[test]
    fn matrix_isolated_shard_has_no_path() {
        // Shard 2 shares no edge with anyone.
        let inf = NO_PATH;
        let m = LookaheadMatrix::from_nanos(3, vec![0, 5, inf, 5, 0, inf, inf, inf, 0]);
        assert_eq!(m.dist(0, 2), NO_PATH);
        assert_eq!(m.dist(2, 1), NO_PATH);
        assert_eq!(m.echo(2), NO_PATH);
        assert_eq!(m.echo(0), 10);
    }

    #[test]
    fn uniform_matrix_matches_scalar_scheme() {
        let m = LookaheadMatrix::uniform(3, SimDuration::from_micros(10));
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    assert_eq!(m.dist(i, j), 10_000);
                }
            }
            assert_eq!(m.echo(i), 20_000);
        }
        // Zero lookahead clamps to the 1 ns degenerate-but-correct floor.
        let m = LookaheadMatrix::uniform(2, SimDuration::ZERO);
        assert_eq!(m.dist(0, 1), 1);
    }

    #[test]
    fn zero_length_inputs_rejected() {
        let m = LookaheadMatrix::uniform(1, SimDuration::from_micros(1));
        assert_eq!(m.shard_count(), 1);
        assert_eq!(m.echo(0), NO_PATH);
    }

    #[test]
    fn window_hist_empty() {
        let h = WindowHist::default();
        assert_eq!(h.count, 0);
        assert_eq!(h.sum, 0);
        assert_eq!(h.max, 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.buckets.iter().all(|&b| b == 0));
    }

    #[test]
    fn window_hist_single_bucket() {
        // Bucket b > 0 covers [2^(b-1), 2^b): 2 and 3 both land in
        // bucket 2, empty grants in bucket 0, single events in bucket 1.
        let mut h = WindowHist::default();
        h.record(2);
        h.record(3);
        assert_eq!(h.buckets[2], 2);
        assert_eq!((h.count, h.sum, h.max), (2, 5, 3));
        h.record(0);
        h.record(1);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.mean(), 6.0 / 4.0);
    }

    #[test]
    fn window_hist_overflow_bucket() {
        // Anything ≥ 2^15 collapses into the final absorbing bucket.
        let mut h = WindowHist::default();
        h.record(1 << 15);
        h.record(1 << 40);
        h.record(u64::MAX);
        assert_eq!(h.buckets[WINDOW_HIST_BUCKETS - 1], 3);
        assert_eq!(h.max, u64::MAX);
        // The last representable non-overflow value stays out of it.
        h.record((1 << 15) - 1);
        assert_eq!(h.buckets[WINDOW_HIST_BUCKETS - 1], 3);
        assert_eq!(h.buckets[WINDOW_HIST_BUCKETS - 2], 1);
    }

    #[test]
    fn window_hist_merge_associative() {
        let hist_of = |events: &[u64]| {
            let mut h = WindowHist::default();
            for &e in events {
                h.record(e);
            }
            h
        };
        let a = hist_of(&[0, 1, 7]);
        let b = hist_of(&[2, 1 << 20]);
        let c = hist_of(&[3, 3, u64::MAX]);

        let mut ab_c = a.clone();
        ab_c.absorb(&b);
        ab_c.absorb(&c);
        let mut bc = b.clone();
        bc.absorb(&c);
        let mut a_bc = a.clone();
        a_bc.absorb(&bc);
        assert_eq!(ab_c, a_bc);
        // Merging shard-local histograms equals recording every grant
        // into one histogram.
        assert_eq!(ab_c, hist_of(&[0, 1, 7, 2, 1 << 20, 3, 3, u64::MAX]));
        // Identity element.
        let mut with_empty = ab_c.clone();
        with_empty.absorb(&WindowHist::default());
        assert_eq!(with_empty, ab_c);
    }

    #[test]
    fn profiled_run_captures_grant_timeline() {
        let mk = || {
            let mut a = relay(0);
            let b = relay(1);
            a.world.causal += 1;
            a.schedule_event_at(
                SimTime::ZERO + HOP,
                Ping {
                    key: 1,
                    hops_left: 100,
                },
            );
            vec![a, b]
        };
        let m = LookaheadMatrix::uniform(2, HOP);
        let quiet = SimDuration::from_millis(1);
        let deadline = SimTime::ZERO + SimDuration::from_secs(10);

        let off = run_shards_until_quiet_matrix_profiled(mk(), &m, quiet, deadline, false);
        assert!(off.profile.is_none());

        let out = run_shards_until_quiet_matrix_profiled(mk(), &m, quiet, deadline, true);
        // Profiling must not change virtual execution.
        assert_eq!(out.converged_at, off.converged_at);
        assert_eq!(out.clock, off.clock);
        let p = out.profile.expect("profiling on");
        assert!(!p.grants.is_empty());
        assert_eq!(p.busy_ns.len(), 2);
        for g in &p.grants {
            assert!(g.done_ns >= g.issue_ns, "grant closed before it opened");
            assert!(g.shard < 2);
        }
        // Every executed event is attributed to exactly one grant.
        let executed: u64 = p.grants.iter().map(|g| g.executed).sum();
        assert_eq!(executed, 101);
        assert!(p.run_wall_ns >= p.grants.iter().map(|g| g.done_ns).max().unwrap());
    }
}
