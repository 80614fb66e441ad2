//! Multi-core CPU service model for simulated VMs.
//!
//! Each emulation VM in CrystalNet has a small number of cores (the paper
//! uses 4-core/8GB SKUs) shared by everything running on it: PhyNet
//! container setup, virtual-interface creation, device-firmware boot, BGP
//! update processing, and VXLAN encap/decap. Figure 9 plots the 95th
//! percentile of per-VM CPU utilization during Mockup; this module is the
//! source of those numbers.
//!
//! The model is an analytic M-server FIFO queue in virtual time: submitting
//! a work item picks the earliest-free core, runs the item to completion
//! there, and records the busy interval into a utilization histogram. The
//! caller schedules the completion event at the returned finish time, so no
//! extra simulation events are needed per work item.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Histogram of CPU busy-time per fixed-width time bucket.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UtilizationTracker {
    bucket: SimDuration,
    cores: u32,
    /// Busy nanoseconds accumulated per bucket (core-ns).
    busy_ns: Vec<u64>,
}

impl UtilizationTracker {
    /// Creates a tracker with the given bucket width for `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero or `cores` is zero.
    #[must_use]
    pub fn new(bucket: SimDuration, cores: u32) -> Self {
        assert!(bucket > SimDuration::ZERO, "bucket width must be non-zero");
        assert!(cores > 0, "core count must be non-zero");
        UtilizationTracker {
            bucket,
            cores,
            busy_ns: Vec::new(),
        }
    }

    /// Records one core being busy over `[start, end)`.
    pub fn record(&mut self, start: SimTime, end: SimTime) {
        if end <= start {
            return;
        }
        let (mut t, end) = (start.as_nanos(), end.as_nanos());
        let width = self.bucket.as_nanos();
        while t < end {
            let idx = (t / width) as usize;
            if self.busy_ns.len() <= idx {
                self.busy_ns.resize(idx + 1, 0);
            }
            let bucket_end = (idx as u64 + 1) * width;
            let span = end.min(bucket_end) - t;
            self.busy_ns[idx] += span;
            t += span;
        }
    }

    /// Utilization (0.0..=1.0) of each bucket, up to `until`.
    #[must_use]
    pub fn utilization_series(&self, until: SimTime) -> Vec<f64> {
        let width = self.bucket.as_nanos();
        let n = (until.as_nanos() / width) as usize + 1;
        let capacity = (width * u64::from(self.cores)) as f64;
        (0..n)
            .map(|i| {
                let busy = self.busy_ns.get(i).copied().unwrap_or(0) as f64;
                (busy / capacity).min(1.0)
            })
            .collect()
    }
}

/// An M-core FIFO CPU server in virtual time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CpuServer {
    /// Instant each core becomes free.
    free_at: Vec<SimTime>,
    tracker: UtilizationTracker,
    total_busy: SimDuration,
}

impl CpuServer {
    /// A server with `cores` cores and the given utilization bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero (via [`UtilizationTracker::new`]).
    #[must_use]
    pub fn new(cores: u32, bucket: SimDuration) -> Self {
        CpuServer {
            free_at: vec![SimTime::ZERO; cores as usize],
            tracker: UtilizationTracker::new(bucket, cores),
            total_busy: SimDuration::ZERO,
        }
    }

    /// Number of cores.
    #[must_use]
    pub fn cores(&self) -> u32 {
        self.free_at.len() as u32
    }

    /// Submits a work item arriving at `now` that needs `work` of CPU time.
    ///
    /// Returns the virtual time at which the work completes. Work is served
    /// FIFO on the earliest-available core; an idle core starts immediately.
    pub fn submit(&mut self, now: SimTime, work: SimDuration) -> SimTime {
        let core = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|(i, t)| (**t, *i))
            .map(|(i, _)| i)
            .expect("server has at least one core");
        let start = self.free_at[core].max(now);
        let end = start + work;
        self.free_at[core] = end;
        self.tracker.record(start, end);
        self.total_busy += work;
        end
    }

    /// The time the server finishes everything accepted so far.
    #[must_use]
    pub fn drained_at(&self) -> SimTime {
        self.free_at.iter().copied().max().unwrap_or(SimTime::ZERO)
    }

    /// Total CPU time consumed so far.
    #[must_use]
    pub fn total_busy(&self) -> SimDuration {
        self.total_busy
    }

    /// Per-bucket utilization up to `until`.
    #[must_use]
    pub fn utilization_series(&self, until: SimTime) -> Vec<f64> {
        self.tracker.utilization_series(until)
    }

    /// Resets all cores to idle and clears accounting (VM reboot).
    pub fn reset(&mut self, now: SimTime) {
        for t in &mut self.free_at {
            *t = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(n: u64) -> SimDuration {
        SimDuration::from_secs(n)
    }
    fn at(n: u64) -> SimTime {
        SimTime::ZERO + secs(n)
    }

    #[test]
    fn idle_core_starts_immediately() {
        let mut cpu = CpuServer::new(2, secs(1));
        assert_eq!(cpu.submit(at(0), secs(3)), at(3));
        assert_eq!(cpu.submit(at(0), secs(3)), at(3)); // second core
        assert_eq!(cpu.submit(at(0), secs(1)), at(4)); // queued behind core 0
    }

    #[test]
    fn work_queues_fifo_on_earliest_core() {
        let mut cpu = CpuServer::new(1, secs(1));
        assert_eq!(cpu.submit(at(0), secs(2)), at(2));
        assert_eq!(cpu.submit(at(0), secs(2)), at(4));
        // Arriving later than the queue drains: starts at arrival.
        assert_eq!(cpu.submit(at(10), secs(1)), at(11));
    }

    #[test]
    fn utilization_reflects_busy_time() {
        let mut cpu = CpuServer::new(2, secs(1));
        cpu.submit(at(0), secs(1)); // core 0 busy [0,1)
        cpu.submit(at(0), secs(2)); // core 1 busy [0,2)
        let series = cpu.utilization_series(at(2));
        assert_eq!(series.len(), 3);
        assert!((series[0] - 1.0).abs() < 1e-9);
        assert!((series[1] - 0.5).abs() < 1e-9);
        assert!(series[2].abs() < 1e-9);
    }

    #[test]
    fn utilization_splits_across_buckets() {
        let mut t = UtilizationTracker::new(secs(1), 1);
        t.record(at(0) + SimDuration::from_millis(500), at(2));
        let s = t.utilization_series(at(2));
        assert!((s[0] - 0.5).abs() < 1e-9);
        assert!((s[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn accounting_totals() {
        let mut cpu = CpuServer::new(4, secs(1));
        for _ in 0..10 {
            cpu.submit(at(0), secs(1));
        }
        assert_eq!(cpu.total_busy(), secs(10));
        assert_eq!(cpu.drained_at(), at(3)); // ceil(10 / 4) jobs deep
    }

    #[test]
    fn reset_frees_cores() {
        let mut cpu = CpuServer::new(1, secs(1));
        cpu.submit(at(0), secs(100));
        cpu.reset(at(5));
        assert_eq!(cpu.submit(at(5), secs(1)), at(6));
    }

    #[test]
    #[should_panic(expected = "core count")]
    fn zero_cores_rejected() {
        let _ = CpuServer::new(0, secs(1));
    }
}
