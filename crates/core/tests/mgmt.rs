//! Management-plane bookkeeping: a synchronous `login_and_run` hands its
//! response to the caller and leaves nothing behind in the world's
//! asynchronous response log — so monitor sweeps do not grow it, and a
//! fork does not copy their history.

use crystalnet::prelude::*;
use crystalnet::PlanOptions;
use crystalnet_net::fixtures::fig7;

#[test]
fn login_and_run_leaves_no_response_behind_and_forks_carry_none() {
    let f = fig7();
    let prep = prepare(
        &f.topo,
        &[],
        BoundaryMode::WholeNetwork,
        SpeakerSource::OriginatedOnly,
        &PlanOptions::default(),
    );
    let mut emu = mockup(Arc::new(prep), MockupOptions::builder().seed(5).build());
    let before = emu.sim.engine.world.mgmt_responses.len();
    for _ in 0..3 {
        for (_, dev) in f.topo.devices() {
            let resp = emu
                .login_and_run(&dev.name, MgmtCommand::ShowRoutes)
                .expect("a converged device answers");
            assert!(
                matches!(resp, MgmtResponse::Routes(ref r) if !r.is_empty()),
                "{}: ShowRoutes must still return the routes, got {resp:?}",
                dev.name
            );
        }
    }
    assert_eq!(
        emu.sim.engine.world.mgmt_responses.len(),
        before,
        "synchronous responses must not accumulate in the world"
    );
    let fork = emu.fork();
    assert_eq!(
        fork.emulation().sim.engine.world.mgmt_responses.len(),
        before,
        "a fork must not carry the sweeps' responses"
    );
}
