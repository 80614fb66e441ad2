//! Validating a pod configuration update behind a safe static boundary —
//! the Table 4 "One Pod" workflow with the Figure 3 validation loop.
//!
//! Operators want to change one pod. Algorithm 1 expands the pod to a
//! safe emulated set (pod + its spine groups + their border roots); the
//! rest of the datacenter is replaced by static speakers synthesized from
//! a production routing snapshot. The update plan is rehearsed step by
//! step, each step on its own fork, with a deliberately broken first
//! attempt to show the loop catching it and dropping the fork; the
//! corrected plan then runs against the untouched baseline.
//!
//! ```sh
//! cargo run --release --example pod_upgrade
//! ```

use crystalnet::prelude::*;
use crystalnet::PlanOptions;
use crystalnet_boundary::{check_prop_5_3, Classification};
use crystalnet_routing::harness::build_full_bgp_sim;
use crystalnet_routing::UniformWorkModel;

fn main() {
    let dc = ClosParams::s_dc().build();
    let pod = &dc.pods[2];
    let must_have: Vec<DeviceId> = pod.tors.iter().chain(&pod.leaves).copied().collect();

    // Production routing snapshot (Prepare records boundary routes from
    // the live network; here, from a fully emulated ground truth).
    let mut production = build_full_bgp_sim(&dc.topo, Box::<UniformWorkModel>::default());
    production.boot_all(SimTime::ZERO);
    production
        .run_until_quiet(
            SimDuration::from_secs(10),
            SimTime::ZERO + SimDuration::from_mins(120),
        )
        .expect("production snapshot converges");

    // Prepare with Algorithm 1 boundary + snapshot-based speakers.
    let prep = prepare(
        &dc.topo,
        &must_have,
        BoundaryMode::SafeDcBoundary,
        SpeakerSource::Snapshot(&production),
        &PlanOptions::default(),
    );
    let class = Classification::new(&dc.topo, &prep.emulated);
    println!(
        "safe boundary: {} emulated of {} devices ({:.1}%), {} speakers, {} VMs",
        prep.emulated.len(),
        dc.internal_device_count(),
        100.0 * prep.emulated.len() as f64 / dc.internal_device_count() as f64,
        class.speakers().len(),
        prep.vm_plan.vm_count()
    );
    println!(
        "Prop 5.3 safety check: {:?}",
        check_prop_5_3(&dc.topo, &class).map(|()| "safe")
    );

    let mut emu = mockup(Arc::new(prep), MockupOptions::builder().build());
    println!("mockup: {}", emu.metrics.mockup);

    // The update: move one ToR's server subnet to a new prefix. First
    // attempt uses a typo'd prefix (wrong /16); the expectation catches
    // it and the plan stops; the corrected plan then passes.
    let tor = pod.tors[0];
    let old_subnet = dc.topo.device(tor).originated[1];
    let intended: crystalnet_net::Ipv4Prefix = "10.200.0.0/24".parse().unwrap();
    let typo: crystalnet_net::Ipv4Prefix = "10.200.0.0/16".parse().unwrap();
    let spine = dc.spine_groups[pod.groups[0] as usize][0];

    let tor_name = dc.topo.device(tor).name.clone();
    // The operators' tool: log in to the ToR and run one command.
    let on_tor = move |name: String, cmd: MgmtCommand| {
        let host = tor_name.clone();
        RehearsalStep::tools(name, move |emu| {
            emu.login_and_run(&host, cmd.clone()).map(drop)
        })
    };
    // The plan, announcing whichever prefix the operator typed.
    let plan = |announced: crystalnet_net::Ipv4Prefix| {
        [
            on_tor(
                format!("announce the new subnet ({announced})"),
                MgmtCommand::AddNetwork(announced),
            )
            .expect(move |emu| {
                match emu.sim.fib(spine).and_then(|fib| fib.get(intended)) {
                    Some(_) => Ok(()),
                    None => Err(format!("spine learned {announced}, not {intended}")),
                }
            }),
            on_tor(
                "retire the old subnet".into(),
                MgmtCommand::RemoveNetwork(old_subnet),
            )
            .expect(move |emu| {
                match emu.sim.fib(spine).and_then(|fib| fib.get(old_subnet)) {
                    None => Ok(()),
                    Some(_) => Err(format!("{old_subnet} still present upstream")),
                }
            }),
        ]
    };

    // First attempt: the typo'd step fails its check, its fork is
    // dropped (that is the revert) and the plan stops. Second attempt:
    // the corrected plan, against the untouched baseline.
    let first = emu.rehearse(plan(typo));
    let second = emu.rehearse(plan(intended));

    for (title, report) in [("first attempt", &first), ("corrected plan", &second)] {
        println!("\nvalidation report ({title}):");
        print!("{}", report.summary());
    }
    println!(
        "\nplan ready for production: {}",
        if first.failures().len() == 1 && second.all_passed() {
            "after fixing 1 caught bug"
        } else {
            "unexpected result"
        }
    );
}
