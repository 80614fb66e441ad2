//! Property-based tests for the simulation engine's core invariants.

use crystalnet_sim::{CpuServer, Engine, EventFire, Lane, SimDuration, SimRng, SimTime};
use proptest::prelude::*;
use proptest::test_runner::TestCaseResult;

/// Records the time it fires at.
struct Stamp;

impl EventFire<Vec<SimTime>> for Stamp {
    fn fire(self, e: &mut Engine<Vec<SimTime>, Stamp>) {
        let now = e.now();
        e.world.push(now);
    }
}

/// A self-perpetuating event whose spacing comes from the world's
/// seeded stream: fifty firings, each recording `now ^ jitter`.
struct Tick;

impl EventFire<(SimRng, Vec<u64>)> for Tick {
    fn fire(self, e: &mut Engine<(SimRng, Vec<u64>), Tick>) {
        let jitter = e.world.0.below(1_000_000);
        let now = e.now();
        e.world.1.push(now.as_nanos() ^ jitter);
        if e.world.1.len() < 50 {
            e.schedule_event_after(SimDuration::from_nanos(jitter + 1), Tick);
        }
    }
}

/// An event in any lane over a world that logs the ids it fires; firing
/// one may schedule a follow-up in the next lane, so handlers schedule
/// too.
#[derive(Clone)]
struct Mix {
    id: u64,
    key: u64,
    lane: Lane,
    child: Option<u64>,
}

impl Mix {
    /// The follow-up firing this event schedules: its delay in
    /// nanoseconds and the event. Parent ids stay below `1 << 32`, so a
    /// child's id is unique too.
    fn follow_up(&self) -> Option<(u64, Mix)> {
        let lane = match self.lane {
            Lane::Work => Lane::Timer,
            Lane::Timer => Lane::Walk,
            Lane::Walk => Lane::Work,
        };
        self.child.map(|delay| {
            let child = Mix {
                id: self.id | 1 << 32,
                key: self.key ^ 1,
                lane,
                child: None,
            };
            (delay, child)
        })
    }
}

impl EventFire<Vec<u64>> for Mix {
    fn fire(self, e: &mut Engine<Vec<u64>, Mix>) {
        e.world.push(self.id);
        if let Some((delay, child)) = self.follow_up() {
            e.schedule_event_after(SimDuration::from_nanos(delay), child);
        }
    }
    fn key(&self) -> u64 {
        self.key
    }
    fn lane(&self) -> Lane {
        self.lane
    }
}

/// The reference queue: a list scanned for the least `(time, key,
/// schedule order)`, driven op by op beside the engine.
#[derive(Default)]
struct Model {
    now: u64,
    order: u64,
    pending: Vec<(u64, u64, u64, Mix)>,
    fired: Vec<u64>,
}

impl Model {
    fn schedule(&mut self, at: u64, ev: Mix) {
        self.pending
            .push((at.max(self.now), ev.key, self.order, ev));
        self.order += 1;
    }

    fn step(&mut self) {
        let least = (0..self.pending.len()).min_by_key(|&i| {
            let (t, key, order, _) = &self.pending[i];
            (*t, *key, *order)
        });
        let Some(i) = least else {
            return;
        };
        let (t, _, _, ev) = self.pending.swap_remove(i);
        self.now = t;
        self.fired.push(ev.id);
        if let Some((delay, child)) = ev.follow_up() {
            self.schedule(t + delay, child);
        }
    }

    /// Drain-and-requeue without the events keyed `key`.
    fn requeue_without(&mut self, key: u64) {
        let mut all = std::mem::take(&mut self.pending);
        all.sort_by_key(|(t, k, order, _)| (*t, *k, *order));
        for (t, k, _, ev) in all {
            if k != key {
                self.schedule(t, ev);
            }
        }
    }
}

/// A replica's whole queue, drained in fire order.
fn scan(e: &Engine<Vec<u64>, Mix>) -> Vec<(SimTime, Mix)> {
    e.replicate_with(Vec::new()).drain_pending()
}

/// The next non-walk event's `(time, key)`, by brute force: the first
/// non-walk event of the scan.
fn scan_non_walk(e: &Engine<Vec<u64>, Mix>) -> Option<(SimTime, u64)> {
    scan(e)
        .into_iter()
        .find(|(_, ev)| ev.lane != Lane::Walk)
        .map(|(t, ev)| (t, ev.key))
}

/// Checks the engine against the scan and the reference model.
fn check(e: &Engine<Vec<u64>, Mix>, model: &Model) -> TestCaseResult {
    prop_assert_eq!(e.next_non_walk_rank(), scan_non_walk(e));
    let all = scan(e);
    for lane in [Lane::Work, Lane::Timer, Lane::Walk] {
        let n = all.iter().filter(|(_, ev)| ev.lane == lane).count();
        prop_assert_eq!(e.pending_in(lane), n);
    }
    prop_assert_eq!(&e.world, &model.fired);
    prop_assert_eq!(e.events_pending(), model.pending.len());
    Ok(())
}

proptest! {
    /// The engine's next non-walk rank — the bound on running walk steps
    /// inline — and its per-lane counts equal a scan of the pending
    /// events, and the ids it fires equal a reference model's, after
    /// every schedule, step (plain or under a horizon), drain-and-requeue
    /// (dropping one key, as a device removal does) and replica. Delays
    /// run from nanoseconds to over an hour.
    #[test]
    fn next_non_walk_rank_matches_a_scan_of_the_queue(
        ops in prop::collection::vec(
            (0u8..7, (0u64..1_024, 0u32..33), 0u64..16, 0u8..3, any::<bool>()),
            1..200,
        ),
    ) {
        let mut e: Engine<Vec<u64>, Mix> = Engine::new(Vec::new());
        let mut model = Model::default();
        for (n, (op, (base, shift), key, lane, spawn)) in ops.into_iter().enumerate() {
            let delay = base << shift;
            match op {
                0..=2 => {
                    let lane = [Lane::Work, Lane::Timer, Lane::Walk][usize::from(lane)];
                    let ev = Mix { id: n as u64, key, lane, child: spawn.then_some(delay / 2) };
                    model.schedule(model.now + delay, ev.clone());
                    e.schedule_event_after(SimDuration::from_nanos(delay), ev);
                }
                3 => {
                    e.step();
                    model.step();
                }
                4 => {
                    let horizon = e.now() + SimDuration::from_nanos(delay);
                    e.step_within(horizon);
                    model.step();
                }
                5 => {
                    for (t, ev) in e.drain_pending() {
                        if ev.key != key {
                            e.schedule_event_at(t, ev);
                        }
                    }
                    model.requeue_without(key);
                }
                _ => e = e.replicate_with(e.world.clone()),
            }
            check(&e, &model)?;
        }
        while e.step() {
            model.step();
            check(&e, &model)?;
        }
        prop_assert!(model.pending.is_empty());
        prop_assert_eq!(e.next_non_walk_rank(), None);
    }

    /// The engine executes any schedule in non-decreasing time order and
    /// runs every event exactly once.
    #[test]
    fn engine_executes_all_events_in_order(delays in prop::collection::vec(0u64..10_000, 1..200)) {
        let n = delays.len();
        let mut engine = Engine::new(Vec::<SimTime>::new());
        for d in delays {
            engine.schedule_event_after(SimDuration::from_micros(d), Stamp);
        }
        engine.run();
        prop_assert_eq!(engine.world.len(), n);
        prop_assert!(engine.world.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(engine.events_executed(), n as u64);
        prop_assert_eq!(engine.events_pending(), 0);
    }

    /// Identical seeds produce identical executions (full determinism).
    #[test]
    fn engine_is_deterministic(seed in any::<u64>()) {
        let run = |seed: u64| {
            let mut engine = Engine::new((SimRng::from_seed(seed), Vec::new()));
            engine.schedule_event_after(SimDuration::from_nanos(1), Tick);
            engine.run();
            engine.world.1
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// A CPU server never runs more jobs concurrently than it has cores,
    /// and conserves total busy time.
    #[test]
    fn cpu_server_respects_core_count(
        cores in 1u32..8,
        jobs in prop::collection::vec((0u64..1_000, 1u64..1_000), 1..100),
    ) {
        let mut cpu = CpuServer::new(cores, SimDuration::from_micros(100));
        let mut intervals = Vec::new();
        let mut total = SimDuration::ZERO;
        let mut now = SimTime::ZERO;
        for (gap, work) in jobs {
            now += SimDuration::from_nanos(gap);
            let work = SimDuration::from_nanos(work);
            let end = cpu.submit(now, work);
            prop_assert!(end >= now + work);
            intervals.push((end - work, end));
            total += work;
        }
        prop_assert_eq!(cpu.total_busy(), total);
        // Check concurrency at every interval start.
        for &(s, _) in &intervals {
            let overlapping = intervals
                .iter()
                .filter(|&&(a, b)| a <= s && s < b)
                .count() as u32;
            prop_assert!(overlapping <= cores);
        }
        // Utilization never exceeds 1.0 in any bucket.
        let series = cpu.utilization_series(cpu.drained_at());
        prop_assert!(series.iter().all(|u| (0.0..=1.0).contains(u)));
    }

    /// Percentiles are monotone in `p` and bounded by min/max.
    #[test]
    fn percentiles_are_monotone(samples in prop::collection::vec(0.0f64..1e9, 1..200)) {
        use crystalnet_sim::metrics::percentile_f64;
        let lo = percentile_f64(&samples, 10.0).unwrap();
        let mid = percentile_f64(&samples, 50.0).unwrap();
        let hi = percentile_f64(&samples, 90.0).unwrap();
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(min <= lo && lo <= mid && mid <= hi && hi <= max);
    }
}
