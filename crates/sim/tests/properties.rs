//! Property-based tests for the simulation engine's core invariants.

use crystalnet_sim::{CpuServer, Engine, EventFire, SimDuration, SimRng, SimTime};
use proptest::prelude::*;

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

/// A walk or non-walk event over a unit world; firing one may schedule a
/// follow-up of the other sort, so handlers schedule too.
#[derive(Clone)]
struct Mix {
    key: u64,
    walk: bool,
    child: Option<u64>,
}

impl EventFire<()> for Mix {
    fn fire(self, e: &mut Engine<(), Mix>) {
        if let Some(delay) = self.child {
            let child = Mix {
                key: self.key ^ 1,
                walk: !self.walk,
                child: None,
            };
            e.schedule_event_after(SimDuration::from_nanos(delay), child);
        }
    }
    fn key(&self) -> u64 {
        self.key
    }
    fn is_walk(&self) -> bool {
        self.walk
    }
}

/// The next non-walk event's `(time, key)`, by brute force: drain a
/// replica's whole queue in order and take the first non-walk event.
fn scan_non_walk(e: &Engine<(), Mix>) -> Option<(SimTime, u64)> {
    let mut all = e.replicate_with(()).drain_pending().into_iter();
    all.find(|(_, ev)| !ev.walk).map(|(t, ev)| (t, ev.key))
}

proptest! {
    /// The engine's next non-walk rank — the bound on running walk steps
    /// inline — equals a scan of the pending events after every schedule,
    /// step (plain or under a horizon), drain-and-requeue (dropping one
    /// key, as a device removal does) and replica.
    #[test]
    fn next_non_walk_rank_matches_a_scan_of_the_queue(
        ops in prop::collection::vec(
            (0u8..7, 0u64..200_000, 0u64..16, any::<bool>(), any::<bool>()),
            1..200,
        ),
    ) {
        let mut e: Engine<(), Mix> = Engine::new(());
        for (op, delay, key, walk, spawn) in ops {
            match op {
                // Near (ring) and far (overflow heap) schedules.
                0..=2 => {
                    let delay = if op == 2 { delay * 1_000 } else { delay };
                    let ev = Mix { key, walk, child: spawn.then_some(delay / 2) };
                    e.schedule_event_after(SimDuration::from_nanos(delay), ev);
                }
                3 => {
                    e.step();
                }
                4 => {
                    let horizon = e.now() + SimDuration::from_nanos(delay);
                    e.step_within(horizon);
                }
                5 => {
                    for (t, ev) in e.drain_pending() {
                        if ev.key != key {
                            e.schedule_event_at(t, ev);
                        }
                    }
                }
                _ => e = e.replicate_with(()),
            }
            prop_assert_eq!(e.next_non_walk_rank(), scan_non_walk(&e));
        }
        while e.step() {
            prop_assert_eq!(e.next_non_walk_rank(), scan_non_walk(&e));
        }
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
