//! The four operator workloads and what they share.

pub mod inspect_sdc;
pub mod mockup_mdc;
pub mod rehearse_mdc;
pub mod watch_sdc;

use crate::inputs::Walk;
use crate::spans::Tracer;
use crystalnet::prelude::*;
use crystalnet::PlanOptions;

/// What the command line asked of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Seed of every generated input, and the emulation's run seed.
    pub seed: u64,
    /// How long to measure, as a multiple of the contract's
    /// `run_seconds`; sets the number of passes.
    pub length: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// The names `--workload` takes, in the order `run` executes them.
pub const NAMES: [&str; 4] = ["mockup_mdc", "rehearse_mdc", "watch_sdc", "inspect_sdc"];

/// Runs one workload by name; `None` for an unknown name.
#[must_use]
pub fn run(name: &str, params: Params) -> Option<Outcome> {
    Some(match name {
        "mockup_mdc" => mockup_mdc::run(params),
        "rehearse_mdc" => rehearse_mdc::run(params),
        "watch_sdc" => watch_sdc::run(params),
        "inspect_sdc" => inspect_sdc::run(params),
        _ => return None,
    })
}

/// Operations attempted, and those whose check failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Operations that returned an error or failed their check.
    pub failed: u64,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

/// What one workload run measured.
pub struct Outcome {
    /// Correctness checks.
    pub checks: Checks,
    /// CPU seconds of each repetition of the set-up.
    pub setup_s: Vec<f64>,
    /// CPU seconds of each timed pass: the end-to-end figure.
    pub pass_cpu_s: Vec<f64>,
    /// Wall seconds of each timed pass, for the report and the layer
    /// ratios.
    pub pass_wall_s: Vec<f64>,
    /// Counts that repeat bit for bit for a seed.
    pub exact: Vec<(&'static str, u64)>,
    /// Per-layer metrics (timings only in a traced run).
    pub layers: Vec<(&'static str, f64)>,
    /// Passes and pass size, for the result header.
    pub sizes: String,
    /// The run's spans.
    pub tracer: Tracer,
}

/// How many passes a run of `length` times the contract's `run_seconds`
/// makes, given the count frozen for that length. The count depends on
/// the request alone, never on how fast this run happens to be, so every
/// run of a seed does the same work.
#[must_use]
pub fn passes(length: f64, at_contract_length: usize) -> usize {
    ((length * at_contract_length as f64).round() as usize).max(1)
}

/// `clock_gettime(2)`'s ids of the CPU-time clocks of the whole process
/// and of the calling thread.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// C's `struct timespec` on 64-bit Linux: two longs.
#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
}

fn clock_seconds(clock_id: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes exactly one `struct timespec`
    // through the pointer. It points at `ts`, which is live, exclusively
    // borrowed and laid out as libc declares the struct on 64-bit Linux
    // (checked at compile time in `main.rs`); nothing else is touched.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Seconds this process has spent on a CPU, every thread counted. The
/// end-to-end clock: every workload is serial and does no I/O, so on a
/// quiet host this is the wall time, and on a shared one it leaves out
/// what the hypervisor stole — measured here at up to half of a run's
/// wall time, for minutes on end. Work a later change moves onto helper
/// threads is still charged. (`std` has no CPU clock, and `/proc`'s
/// accounts only move at scheduler ticks, too coarse for a millisecond
/// set-up.)
///
/// # Panics
///
/// Panics if the kernel refuses the clock, which Linux never does.
#[must_use]
pub fn cpu_seconds() -> f64 {
    clock_seconds(CLOCK_PROCESS_CPUTIME_ID)
}

/// Share of the process's CPU time so far that threads other than the
/// calling one spent. The workloads ask for one worker, so anything
/// above rounding means the emulator started threads of its own.
///
/// # Panics
///
/// Panics if the kernel refuses a clock, which Linux never does.
#[must_use]
pub fn helper_cpu_share() -> f64 {
    let thread = clock_seconds(CLOCK_THREAD_CPUTIME_ID);
    let process = cpu_seconds();
    ((process - thread) / process).max(0.0)
}

/// Runs a short set-up `reps` times; returns what the last repetition
/// built and the CPU seconds of each, so the reported median is not the
/// cold first one.
pub fn repeat_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut took = Vec::with_capacity(reps);
    let mut built = None;
    for _ in 0..reps {
        // The previous repetition's result goes first, so only one is
        // ever alive.
        drop(built.take());
        let t = cpu_seconds();
        built = Some(setup());
        took.push(cpu_seconds() - t);
    }
    (built.expect("at least one repetition"), took)
}

/// `Prepare` the way every workload does: the whole fabric emulated,
/// externals replaced by speakers announcing their own prefixes.
#[must_use]
pub fn prepare_whole(clos: &ClosTopology) -> Arc<PrepareOutput> {
    Arc::new(prepare(
        &clos.topo,
        &[],
        BoundaryMode::WholeNetwork,
        SpeakerSource::OriginatedOnly,
        &PlanOptions::default(),
    ))
}

/// Mockup options of an untraced run: serial, telemetry and tracing off.
#[must_use]
pub fn options(seed: u64) -> MockupOptionsBuilder {
    MockupOptions::builder()
        .seed(seed)
        .workers(1)
        .telemetry(false)
}

/// Digest of every emulated device's FIB, independent of how the
/// tables are laid out in memory: per-entry hashes summed, so iteration
/// order does not matter.
#[must_use]
pub fn fib_digest(emu: &Emulation) -> u64 {
    let mix = |mut z: u64| {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut digest = 0u64;
    for &dev in emu.sandboxes.keys() {
        let Some(os) = emu.sim.os(dev) else { continue };
        for (prefix, entry) in os.fib().iter() {
            let mut h = mix(u64::from(dev.0) << 40
                | u64::from(prefix.network().0) << 8
                | u64::from(prefix.len()));
            for hop in &entry.next_hops {
                h = mix(h ^ (u64::from(hop.iface) << 32 | u64::from(hop.via.0)));
            }
            digest = digest.wrapping_add(h);
        }
    }
    digest
}

/// Installed prefixes and estimated FIB bytes over every emulated
/// device — counts times struct sizes, so they repeat exactly.
#[must_use]
pub fn fib_totals(emu: &Emulation) -> (u64, u64) {
    use crystalnet_dataplane::{FibEntry, NextHop};
    use std::mem::size_of;
    let (mut prefixes, mut routes) = (0u64, 0u64);
    for &dev in emu.sandboxes.keys() {
        if let Some(os) = emu.sim.os(dev) {
            prefixes += os.fib().len() as u64;
            routes += os.fib().route_entry_count() as u64;
        }
    }
    let bytes = prefixes * size_of::<(Ipv4Prefix, FibEntry)>() as u64
        + routes * size_of::<NextHop>() as u64;
    (prefixes, bytes)
}

/// Per-layer facts every workload can read off its baseline emulation.
#[must_use]
pub fn baseline_layers(emu: &Emulation) -> Vec<(&'static str, f64)> {
    let devices = emu.sandboxes.len().max(1) as f64;
    let (prefixes, bytes) = fib_totals(emu);
    vec![
        (
            "dataplane.fib_prefixes_per_device",
            prefixes as f64 / devices,
        ),
        ("dataplane.fib_bytes_per_device", bytes as f64 / devices),
        ("vnet.vms", emu.vm_ids.len() as f64),
        ("vnet.links_provisioned", emu.vlinks.len() as f64),
        (
            "vnet.network_ready_virtual_s",
            emu.metrics.network_ready.as_secs_f64(),
        ),
    ]
}

/// Walks one packet and checks that its destination ToR delivered it.
pub fn walk_delivers(emu: &mut Emulation, walk: &Walk) -> bool {
    let sig = emu.inject_packet(walk.from, walk.src, walk.dst);
    let ok = matches!(
        emu.pull_packets(sig),
        Ok((path, ForwardDecision::Deliver)) if path.last() == Some(&walk.to)
    );
    emu.traces.clear(sig);
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_count_follows_the_request_only() {
        assert_eq!(passes(1.0, 3), 3);
        assert_eq!(passes(0.5, 3), 2);
        assert_eq!(passes(0.05, 3), 1);
        assert_eq!(passes(3.0, 20), 60);
    }

    #[test]
    fn process_clock_charges_helper_threads() {
        let spin = || {
            let t = clock_seconds(CLOCK_THREAD_CPUTIME_ID);
            while clock_seconds(CLOCK_THREAD_CPUTIME_ID) - t < 0.05 {
                std::hint::black_box(0u64);
            }
        };
        let (process, thread) = (cpu_seconds(), clock_seconds(CLOCK_THREAD_CPUTIME_ID));
        // A scoped thread is joined before the clocks are read again, the
        // way the parallel executor's workers are.
        std::thread::scope(|s| {
            s.spawn(spin);
        });
        let on_helper = cpu_seconds() - process;
        let on_this_thread = clock_seconds(CLOCK_THREAD_CPUTIME_ID) - thread;
        assert!(on_helper >= 0.05, "{on_helper}");
        assert!(on_this_thread < 0.04, "{on_this_thread}");
        assert!(helper_cpu_share() > 0.0);
    }

    #[test]
    fn checks_count_failures_and_keep_a_few_notes() {
        let mut c = Checks::default();
        c.check(true, || unreachable!());
        for i in 0..20 {
            c.check(false, || format!("bad {i}"));
        }
        assert_eq!((c.attempted, c.failed, c.notes.len()), (21, 20, 8));
    }
}
