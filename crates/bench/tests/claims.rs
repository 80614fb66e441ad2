//! The `paper` binary's claims are checks, not printout.
//!
//! The four fast subcommands (`table1`, `fig1`, `fig7`, `table4`) run in
//! full: every claim must hold and their rendered text is pinned by
//! digest. The slow ones (`fig8`, `fig9`, `table3`, `sec83` take seconds
//! to minutes) are checked through their claim functions on hand-built
//! rows: one set on which every claim holds, then one mutation per claim
//! that must make exactly that claim fail. The binary itself must exit 2
//! on a bad name or environment value, before running anything.

use crystalnet_bench::config::Scale;
use crystalnet_bench::fig8::Fig8Row;
use crystalnet_bench::fig9::Fig9Series;
use crystalnet_bench::ops::{AblationRow, FaultRecoveryRow, RecoveryRow, ReloadRow};
use crystalnet_bench::tables::Table3Row;
use crystalnet_bench::{fig8, fig9, ops, tables, Claim, SUBCOMMANDS};
use crystalnet_net::LayerCounts;
use crystalnet_sim::{LatencySummary, SimDuration};
use std::process::Command;

/// FNV-1a over the text's bytes.
fn digest(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn failed(claims: &[Claim]) -> Vec<String> {
    claims
        .iter()
        .filter(|c| !c.holds)
        .map(|c| format!("{}: {}", c.measured, c.paper))
        .collect()
}

#[test]
fn fast_subcommands_hold_every_claim_and_render_the_pinned_text() {
    let scale = Scale::parse(None, None).expect("defaults parse");
    let mut text = String::new();
    let mut claims = 0;
    for name in ["table1", "fig1", "fig7", "table4"] {
        let (_, run) = SUBCOMMANDS.iter().find(|(n, _)| *n == name).unwrap();
        let result = run(&scale);
        assert!(
            failed(&result.claims).is_empty(),
            "{name}: {:?}",
            failed(&result.claims)
        );
        claims += result.claims.len();
        text += &result.text;
    }
    assert_eq!(claims, 12);
    assert_eq!(
        digest(&text),
        1_702_519_629_005_793_675,
        "rendered text changed:\n{text}"
    );
}

/// A mutation of hand-built rows, and the claim it must break: the
/// start of its `paper` text, and its `measured` row (empty for any).
type Mutation<'a, R> = (&'a str, &'a str, Box<dyn Fn(&mut R)>);

/// Asserts that every claim holds on the base rows, and that each
/// mutation breaks exactly the claim it names.
fn each_claim_can_fail<R>(
    base: impl Fn() -> R,
    claims: impl Fn(&R) -> Vec<Claim>,
    mutations: Vec<Mutation<R>>,
) {
    let all = claims(&base());
    assert!(failed(&all).is_empty(), "{:?}", failed(&all));
    for (paper, measured, mutate) in mutations {
        let target = all
            .iter()
            .position(|c| {
                c.paper.starts_with(paper) && (measured.is_empty() || c.measured == measured)
            })
            .unwrap_or_else(|| panic!("no claim `{measured}: {paper}`"));
        let mut rows = base();
        mutate(&mut rows);
        let after = claims(&rows);
        let broken: Vec<usize> = (0..after.len()).filter(|&i| !after[i].holds).collect();
        assert_eq!(
            broken,
            [target],
            "`{measured}: {paper}`: {:?}",
            failed(&after)
        );
    }
}

fn secs(s: f64) -> SimDuration {
    SimDuration::from_millis((s * 1000.0) as u64)
}

fn flat(d: SimDuration) -> LatencySummary {
    LatencySummary {
        p10: d,
        p50: d,
        p90: d,
    }
}

/// Six Figure 8 rows shaped like a 1:4 run: each pair's larger fleet is
/// a little faster.
fn fig8_rows() -> Vec<Fig8Row> {
    [
        "S-DC/5", "S-DC/10", "M-DC/50", "M-DC/100", "L-DC/125", "L-DC/250",
    ]
    .iter()
    .enumerate()
    .map(|(i, label)| {
        let mockup = secs(if i % 2 == 0 { 250.0 } else { 200.0 });
        Fig8Row {
            label: (*label).into(),
            network_ready: flat(secs(5.0)),
            route_ready: flat(mockup.mul_f64(0.95)),
            mockup: flat(mockup),
            clear: flat(secs(1.0)),
            devices: 126,
        }
    })
    .collect()
}

#[test]
fn every_fig8_claim_can_fail() {
    let mins = SimDuration::from_mins;
    let mutations: Vec<Mutation<Vec<Fig8Row>>> = vec![
        (
            "median mockup",
            "S-DC/5",
            Box::new(move |r| {
                r[0].mockup.p50 = mins(33);
                r[0].route_ready.p50 = mins(32);
            }),
        ),
        (
            "p90 mockup",
            "S-DC/5",
            Box::new(move |r| r[0].mockup.p90 = mins(51)),
        ),
        (
            "network-ready",
            "S-DC/10",
            Box::new(move |r| r[1].network_ready.p90 = mins(3)),
        ),
        // Under 2 min, but over 5% of a 250 s mockup.
        (
            "network-ready",
            "M-DC/50",
            Box::new(|r| r[2].network_ready.p90 = secs(15.0)),
        ),
        (
            "clear",
            "M-DC/100",
            Box::new(move |r| r[3].clear.p90 = mins(3)),
        ),
        (
            "route-ready",
            "L-DC/125",
            Box::new(|r| r[4].route_ready.p50 = secs(200.0)),
        ),
        (
            "more VMs",
            "S-DC/5 → S-DC/10",
            Box::new(|r| {
                r[1].mockup.p50 = secs(251.0);
                r[1].route_ready.p50 = secs(240.0);
            }),
        ),
        // Under half of the smaller fleet's 250 s, yet above 20x its
        // own network-ready.
        (
            "twice the VMs",
            "L-DC/125 → L-DC/250",
            Box::new(|r| r[5].mockup.p50 = secs(120.0)),
        ),
    ];
    each_claim_can_fail(fig8_rows, |rows| fig8::claims(rows), mutations);
    // Five claims per row, one per pair, and the L-DC routing check.
    assert_eq!(fig8::claims(&fig8_rows()).len(), 6 * 5 + 3 + 1);
}

fn fig9_series() -> Vec<Fig9Series> {
    ["S-DC/5", "M-DC/50"]
        .iter()
        .map(|label| Fig9Series {
            label: (*label).into(),
            bucket_secs: 30.0,
            p95: vec![0.3, 1.0, 0.9, 0.1, 0.05],
        })
        .collect()
}

#[test]
fn every_fig9_claim_can_fail() {
    let mutations: Vec<Mutation<Vec<Fig9Series>>> = vec![
        (
            "p95 CPU",
            "S-DC/5",
            Box::new(|s| s[0].p95 = vec![0.3, 0.4, 0.1]),
        ),
        (
            "p95 CPU",
            "M-DC/50",
            Box::new(|s| s[1].p95 = vec![0.3, 1.0, 0.5, 0.3]),
        ),
    ];
    each_claim_can_fail(fig9_series, |s| fig9::claims(s), mutations);
}

fn table3_rows() -> Vec<Table3Row> {
    [
        ("S-DC", 116_018, 1.0),
        ("M-DC", 1_966_620, 1.0),
        ("L-DC", 6_443_560, 0.25),
    ]
    .into_iter()
    .map(|(name, routes, scale)| Table3Row {
        name: name.into(),
        layers: LayerCounts::default(),
        routes,
        scale,
    })
    .collect()
}

#[test]
fn every_table3_claim_can_fail() {
    let mutations: Vec<Mutation<Vec<Table3Row>>> = vec![
        ("S-DC", "", Box::new(|r| r[0].routes = 4_000)),
        ("M-DC", "", Box::new(|r| r[1].routes = 20_000_000)),
        // The same total, measured at a far smaller scale, extrapolates
        // above the band.
        ("L-DC", "", Box::new(|r| r[2].scale = 0.01)),
    ];
    each_claim_can_fail(table3_rows, |r| tables::table3_claims(r), mutations);
}

/// The four §8.3 tables `ops::claims` reads, shaped like a default
/// `paper sec83` run.
struct Sec83 {
    reload: Vec<ReloadRow>,
    recovery: Vec<RecoveryRow>,
    faults: Vec<FaultRecoveryRow>,
    bridge: Vec<AblationRow>,
}

fn sec83_rows() -> Sec83 {
    let reload = [
        ("ToR", 4, 7.6),
        ("Leaf", 24, 15.6),
        ("Spine", 50, 26.0),
        ("Border", 9, 9.6),
    ]
    .into_iter()
    .map(|(class, ifaces, strawman)| ReloadRow {
        class: class.into(),
        ifaces,
        two_layer: secs(3.0),
        strawman: secs(strawman),
    })
    .collect();
    let recovery = [(4, 4.79), (9, 10.78)]
        .into_iter()
        .map(|(density, s)| RecoveryRow {
            density,
            recovery: secs(s),
        })
        .collect();
    let faults = ["direct-vm-crash", "vm-crash", "speaker-crash"]
        .into_iter()
        .map(|scenario| FaultRecoveryRow {
            scenario,
            devices: 8,
            recovery: secs(48.43),
        })
        .collect();
    let bridge = [("LinuxBridge", 6.57), ("Ovs", 9.68)]
        .into_iter()
        .map(|(variant, ready)| AblationRow {
            variant: variant.into(),
            network_ready: secs(ready),
            mockup: SimDuration::from_mins(3),
            vms: 16,
        })
        .collect();
    Sec83 {
        reload,
        recovery,
        faults,
        bridge,
    }
}

#[test]
fn every_sec83_claim_can_fail() {
    let mutations: Vec<Mutation<Sec83>> = vec![
        (
            "two-layer",
            "",
            Box::new(|s| s.reload[1].two_layer = secs(4.0)),
        ),
        // The Leaf (24 ifaces) now costs less extra than the Border (9).
        (
            "the strawman's extra time",
            "",
            Box::new(|s| s.reload[1].strawman = secs(8.0)),
        ),
        (
            "the strawman costs",
            "",
            Box::new(|s| s.reload[2].strawman = secs(17.0)),
        ),
        (
            "recovery does not fall",
            "",
            Box::new(|s| s.recovery[0].recovery = secs(12.0)),
        ),
        (
            "recovery at the densest",
            "",
            Box::new(|s| s.recovery[1].recovery = secs(60.0)),
        ),
        (
            "every fault kind",
            "",
            Box::new(|s| s.faults[2].devices = 0),
        ),
        (
            "OVS",
            "",
            Box::new(|s| s.bridge[1].network_ready = secs(6.0)),
        ),
    ];
    let claims = |s: &Sec83| ops::claims(&s.reload, &s.recovery, &s.faults, &s.bridge);
    each_claim_can_fail(sec83_rows, claims, mutations);
    assert_eq!(claims(&sec83_rows()).len(), 7);
}

#[test]
fn bad_names_and_environment_values_exit_2() {
    for (name, env) in [
        ("nosuch", None),
        ("fig8", Some(("CRYSTALNET_REPS", "0"))),
        ("fig8", Some(("CRYSTALNET_REPS", "abc"))),
        ("fig8", Some(("CRYSTALNET_FULL", "yes"))),
    ] {
        let mut paper = Command::new(env!("CARGO_BIN_EXE_paper"));
        paper
            .arg(name)
            .env_remove("CRYSTALNET_REPS")
            .env_remove("CRYSTALNET_FULL");
        if let Some((key, value)) = env {
            paper.env(key, value);
        }
        let out = paper.output().expect("paper runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name} {env:?}: {stderr}");
        assert!(stderr.contains("usage: "), "{stderr}");
        assert!(out.stdout.is_empty(), "ran something: {name} {env:?}");
    }
}
