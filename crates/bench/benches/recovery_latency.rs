//! Recovery-latency bench: how fast the emulation heals from injected
//! infrastructure faults (§8.3's failure-handling story).
//!
//! For each Clos fabric it injects one fault of each kind through the
//! typed fault plan, lets the health monitor detect / retry / quarantine,
//! and reads the resulting recovery latency out of the structured
//! journal. Virtual-time latencies are deterministic per seed; the
//! wall-clock column (median over `CRYSTALNET_REPS` runs) measures the
//! orchestrator's own overhead. Writes `target/BENCH_recovery.json`.

use crystalnet::prelude::*;
use crystalnet::PlanOptions;
use crystalnet_net::ClosTopology;
use std::time::Instant;

const SEED: u64 = 7;

fn fabrics() -> Vec<(&'static str, ClosTopology, u32)> {
    vec![
        ("s-dc", crystalnet_net::ClosParams::s_dc().build(), 16),
        (
            "s-dc-spread",
            crystalnet_net::ClosParams::s_dc().build(),
            32,
        ),
    ]
}

/// The fault menu: one representative of each plan kind plus the direct
/// synchronous injection API.
fn scenarios(emu: &Emulation) -> Vec<(&'static str, Option<FaultPlan>)> {
    let speaker = emu.prep.speaker_plan.scripts[0].0;
    let at = SimDuration::from_secs(15);
    vec![
        ("direct-vm-crash", None),
        (
            "vm-crash",
            Some(FaultPlan::default().then(at, FaultKind::VmCrash { vm: 0 })),
        ),
        (
            "vm-slow-restart",
            Some(FaultPlan::default().then(
                at,
                FaultKind::VmSlowRestart {
                    vm: 0,
                    failed_attempts: 2,
                },
            )),
        ),
        (
            "quarantine",
            Some(FaultPlan::default().then(
                at,
                FaultKind::VmSlowRestart {
                    vm: 0,
                    failed_attempts: 4,
                },
            )),
        ),
        (
            "speaker-crash",
            Some(FaultPlan::default().then(at, FaultKind::SpeakerCrash { device: speaker })),
        ),
    ]
}

fn build(topo: &ClosTopology, target_vms: u32) -> Emulation {
    let prep = prepare(
        &topo.topo,
        &[],
        BoundaryMode::WholeNetwork,
        SpeakerSource::OriginatedOnly,
        &PlanOptions {
            target_vms: Some(target_vms),
            ..PlanOptions::default()
        },
    );
    mockup(Arc::new(prep), MockupOptions::builder().seed(SEED).build())
}

struct Sample {
    latency: SimDuration,
    devices: usize,
    wall: f64,
    counters: String,
}

fn run_once(topo: &ClosTopology, target_vms: u32, plan: Option<&FaultPlan>) -> Sample {
    let mut emu = build(topo, target_vms);
    let start = Instant::now();
    match plan {
        None => {
            let vm_idx = (0..emu.prep.vm_plan.vms.len())
                .max_by_key(|&i| emu.prep.vm_plan.vms[i].devices.len())
                .expect("plan has VMs");
            emu.fail_and_recover_vm(vm_idx).expect("live VM");
            emu.settle().expect("re-converges");
        }
        Some(p) => {
            emu.run_fault_plan(p).expect("plan executes");
        }
    }
    let wall = start.elapsed().as_secs_f64();
    // Read the *latest* recovery in virtual time, not emission order:
    // overlapping faults interleave in the raw journal.
    let (_, latency, devices) = *emu
        .journal
        .sorted()
        .recoveries()
        .last()
        .expect("every scenario completes a recovery");
    Sample {
        latency,
        devices,
        wall,
        counters: emu.pull_report().counters_json(),
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

fn main() {
    let samples = crystalnet_bench::config::reps_or(3).max(1) as usize;
    println!("recovery_latency: {samples} sample(s)/scenario, seed {SEED}");

    let mut rows = Vec::new();
    for (label, topo, target_vms) in fabrics() {
        let probe = build(&topo, target_vms);
        let devices = topo.topo.device_count();
        let vms = probe.prep.vm_plan.vms.len();
        for (scenario, plan) in scenarios(&probe) {
            let mut walls = Vec::with_capacity(samples);
            let mut first: Option<Sample> = None;
            for _ in 0..samples {
                let s = run_once(&topo, target_vms, plan.as_ref());
                if let Some(f) = &first {
                    // Virtual-time recovery is deterministic: identical
                    // latency on every repetition or the bench is wrong.
                    assert_eq!(f.latency, s.latency, "{label}/{scenario}: latency");
                    assert_eq!(f.devices, s.devices, "{label}/{scenario}: devices");
                }
                walls.push(s.wall);
                first.get_or_insert(s);
            }
            let s = first.expect("at least one sample");
            let wall = median(walls);
            let virt = s.latency.as_nanos() as f64 / 1e9;
            println!(
                "{label:<10} vms={vms:<3} {scenario:<16} recovered {dev:>3} device(s) \
                 in {virt:>8.2}s virtual  ({wall:>6.3}s wall)",
                dev = s.devices
            );
            rows.push(format!(
                "{{\"topology\": \"{label}\", \"devices\": {devices}, \"vms\": {vms}, \
                 \"scenario\": \"{scenario}\", \"recovered_devices\": {}, \
                 \"recovery_latency_ns\": {}, \"median_wall_seconds\": {wall:.6}, \
                 \"counters\": {}}}",
                s.devices,
                s.latency.as_nanos(),
                s.counters
            ));
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"recovery_latency\",\n  \"bench_meta\": {},\n  \"seed\": {SEED},\n  \
         \"samples\": {samples},\n  \"results\": [\n    {}\n  ]\n}}\n",
        crystalnet_bench::meta::bench_meta_json(1),
        rows.join(",\n    ")
    );
    let path = crystalnet_bench::meta::write_result("BENCH_recovery.json", &json);
    println!("wrote {}", path.display());
}
