//! Figure 7: the unsafe and safe static boundaries, checked three ways —
//! by the exact Lemma 5.1 oracle, by the efficient propositions, and by
//! differential emulation against the full network.

use crate::{claim, PaperResult};
use crystalnet_boundary::{
    check_lemma_5_1,
    check_prop_5_2,
    check_prop_5_3,
    differential_validate,
    emulated_set,
    Classification, //
};
use crystalnet_dataplane::CompareOptions;
use crystalnet_net::fixtures::{fig7 as fig7_fixture, Fig7};
use crystalnet_net::DeviceId;
use crystalnet_routing::{ControlPlaneSim, MgmtCommand};
use crystalnet_sim::SimTime;

/// One Figure 7 boundary's verdicts.
struct Fig7Case {
    label: &'static str,
    lemma_safe: bool,
    prop52: bool,
    prop53: bool,
    /// Differential emulation consistency under the sub-case's change.
    consistent: bool,
    /// FIB differences observed (0 when consistent).
    differences: usize,
}

/// Checks the boundary that emulates the union of `emulated` against the
/// full network, under `change`.
fn check(
    f: &Fig7,
    label: &'static str,
    emulated: &[&[DeviceId]],
    must_have: &[DeviceId],
    change: &dyn Fn(&mut ControlPlaneSim, SimTime),
) -> Fig7Case {
    let emulated = emulated_set(&emulated.concat());
    let class = Classification::new(&f.topo, &emulated);
    let strict = CompareOptions::strict();
    let report = differential_validate(&f.topo, &emulated, must_have, &strict, change);
    Fig7Case {
        label,
        lemma_safe: check_lemma_5_1(&f.topo, &emulated).is_ok(),
        prop52: check_prop_5_2(&f.topo, &class).is_ok(),
        prop53: check_prop_5_3(&f.topo, &class).is_ok(),
        consistent: report.consistent(),
        differences: report.difference_count(),
    }
}

/// Runs the three Figure 7 boundaries, each under the change its paper
/// narrative validates.
fn run_fig7() -> Vec<Fig7Case> {
    let f = fig7_fixture();
    let (spines, leaves, tors) = (&f.spines[..], &f.leaves[..4], &f.tors[..4]);
    let (l1, t1, t4) = (f.leaves[0], f.tors[0], f.tors[3]);
    // §5.1: T4 gets a new prefix 10.1.0.0/16 (cases 7a/7b, where T4 is
    // emulated).
    let add_prefix = |sim: &mut ControlPlaneSim, at| {
        let prefix = "10.1.0.0/16".parse().expect("valid prefix");
        sim.mgmt(t4, MgmtCommand::AddNetwork(prefix), at);
    };
    // §5.2: the S1-L1 link fails (case 7c, where the ToRs are speakers
    // and cannot be reconfigured — the whole point of "safe to emulate
    // L1-4 but not T1-4").
    let (s1_l1, _, _) = f
        .topo
        .neighbors(f.spines[0])
        .find(|(_, _, remote)| remote.device == l1)
        .expect("S1-L1 link exists");
    let fail_link = |sim: &mut ControlPlaneSim, at| {
        sim.link_down(ControlPlaneSim::link_endpoints(&f.topo, s1_l1), at);
    };
    let a = "7a: T1-4,L1-4 (speakers S1-2) — unsafe";
    let b = "7b: +S1-2 emulated — safe";
    let c = "7c: S1-2,L1-4 (speakers T1-4,L5-6) — safe for leaves";
    vec![
        check(&f, a, &[leaves, tors], &[l1, t1], &add_prefix),
        check(&f, b, &[spines, leaves, tors], &[l1, t1, t4], &add_prefix),
        check(&f, c, &[spines, leaves], leaves, &fail_link),
    ]
}

/// Figure 7: each boundary's verdicts, and the paper's claims on them.
pub fn fig7() -> PaperResult {
    let cases = run_fig7();
    let mut text = String::new();
    out!(text, "\n=== Figure 7: static boundary safety ===");
    out!(text, "Boundary                                             Lemma 5.1 Prop 5.2 Prop 5.3  differential  diffs");
    for c in &cases {
        let [lemma, p52, p53] =
            [c.lemma_safe, c.prop52, c.prop53].map(|b| if b { "safe" } else { "UNSAFE" });
        let diff = if c.consistent {
            "consistent"
        } else {
            "DIVERGED"
        };
        let (label, n) = (c.label, c.differences);
        out!(
            text,
            "{label:<52} {lemma:>9} {p52:>8} {p53:>8} {diff:>13} {n:>6}"
        );
    }
    out!(text, "(Props 5.2/5.3 are sufficient conditions — conservative 'UNSAFE' on a Lemma-safe boundary is expected for 7b/7c.)");
    let [a, b, c] = &cases[..] else {
        unreachable!("Figure 7 has three boundaries")
    };
    let safe = |c: &Fig7Case| c.lemma_safe && c.consistent && c.differences == 0;
    let unsound = cases
        .iter()
        .filter(|c| !c.lemma_safe && (c.prop52 || c.prop53))
        .count();
    let claims = vec![
        claim(
            "7a is Lemma-unsafe, and its emulation diverges",
            format!("{} FIB diffs", a.differences),
            !a.lemma_safe && !a.consistent && a.differences > 0,
        ),
        claim(
            "7b is Lemma-safe and consistent",
            format!("{} diffs", b.differences),
            safe(b),
        ),
        claim(
            "7c is Lemma-safe and consistent",
            format!("{} diffs", c.differences),
            safe(c),
        ),
        claim(
            "Props 5.2/5.3 accept no boundary the Lemma rejects",
            format!("{unsound} Lemma-unsafe boundaries accepted"),
            unsound == 0,
        ),
    ];
    PaperResult::new(text, "Figure 7", claims)
}
