//! Property-based tests for addressing and topology invariants.

use crystalnet_net::{ClosParams, CowMap, Ipv4Addr, Ipv4Prefix, Role};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeMap;

/// Keys the copy-on-write property draws from: wider than the source's
/// first fill, so writes both shadow base keys and add new ones.
const COW_KEYS: u32 = 80;

/// A live table and the model it must read as.
type Modelled = (CowMap<u32, u32>, BTreeMap<u32, u32>);

/// Checks one live table against its model: every key's value, the
/// length, emptiness and the sorted iteration.
fn agrees(map: &CowMap<u32, u32>, model: &BTreeMap<u32, u32>) -> Result<(), TestCaseError> {
    for k in 0..COW_KEYS {
        prop_assert_eq!(map.get(&k), model.get(&k), "key {}", k);
    }
    prop_assert_eq!(map.len(), model.len());
    prop_assert_eq!(map.is_empty(), model.is_empty());
    let mut rows: Vec<(u32, u32)> = map.iter().map(|(k, v)| (*k, *v)).collect();
    rows.sort_unstable();
    prop_assert_eq!(
        rows,
        model.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>()
    );
    Ok(())
}

fn arb_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(a, l)| Ipv4Prefix::new(Ipv4Addr(a), l))
}

proptest! {
    /// Parsing the display form of a prefix round-trips.
    #[test]
    fn prefix_display_parse_round_trip(p in arb_prefix()) {
        let back: Ipv4Prefix = p.to_string().parse().unwrap();
        prop_assert_eq!(p, back);
    }

    /// A prefix covers exactly its own subnets.
    #[test]
    fn cover_is_reflexive_and_antisymmetric(a in arb_prefix(), b in arb_prefix()) {
        prop_assert!(a.covers(a));
        if a.covers(b) && b.covers(a) {
            prop_assert_eq!(a, b);
        }
        // Overlap is symmetric.
        prop_assert_eq!(a.overlaps(b), b.overlaps(a));
    }

    /// `aggregate` yields a prefix covering every input.
    #[test]
    fn aggregate_covers_all_inputs(ps in prop::collection::vec(arb_prefix(), 1..20)) {
        let agg = Ipv4Prefix::aggregate(&ps).unwrap();
        for p in &ps {
            prop_assert!(agg.covers(*p), "{} does not cover {}", agg, p);
        }
    }

    /// `split` partitions a prefix: children cover disjoint halves.
    #[test]
    fn split_partitions(p in (any::<u32>(), 0u8..32).prop_map(|(a, l)| Ipv4Prefix::new(Ipv4Addr(a), l))) {
        let (lo, hi) = p.split().unwrap();
        prop_assert!(p.covers(lo) && p.covers(hi));
        prop_assert!(!lo.overlaps(hi));
        prop_assert_eq!(lo.parent().unwrap(), p);
        prop_assert_eq!(hi.parent().unwrap(), p);
    }

    /// `subnets(n)` yields disjoint prefixes that tile the parent.
    #[test]
    fn subnets_tile_parent(l in 8u8..=24, extra in 1u8..=4, seed in any::<u32>()) {
        let parent = Ipv4Prefix::new(Ipv4Addr(seed), l);
        let subs = parent.subnets(l + extra);
        prop_assert_eq!(subs.len(), 1usize << extra);
        for (i, s) in subs.iter().enumerate() {
            prop_assert!(parent.covers(*s));
            for t in &subs[i + 1..] {
                prop_assert!(!s.overlaps(*t));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Generated Clos fabrics are structurally sound for any parameter mix:
    /// layered links only, unique names, valid /31 endpoints.
    #[test]
    fn clos_generator_structural_invariants(
        borders in 1u32..6,
        groups in 1u32..4,
        spines in 1u32..6,
        pods in 1u32..8,
        tors in 1u32..6,
    ) {
        let params = ClosParams {
            name: "t".into(),
            borders,
            spine_groups: groups,
            spines_per_group: spines,
            pods,
            leaves_per_pod: 2,
            tors_per_pod: tors,
            groups_per_pod: groups.min(2),
            ext_peers_per_border: 1,
            ext_prefixes_per_peer: 2,
        };
        let dc = params.build();
        let topo = &dc.topo;
        // Links only connect adjacent layers (no valley links).
        for (_, link) in topo.links() {
            let ra = topo.device(link.a.device).role;
            let rb = topo.device(link.b.device).role;
            let pair = if ra.layer() <= rb.layer() { (ra, rb) } else { (rb, ra) };
            prop_assert!(matches!(
                pair,
                (Role::Tor, Role::Leaf)
                    | (Role::Leaf, Role::Spine)
                    | (Role::Spine, Role::Border)
                    | (Role::Border, Role::External)
            ), "unexpected link {:?}", pair);
        }
        // Every interface endpoint resolves and carries an address.
        for (id, dev) in topo.devices() {
            for (lid, local, remote) in topo.neighbors(id) {
                let link = topo.link(lid);
                prop_assert!(link.end_on(id).is_some());
                prop_assert_eq!(local.device, id);
                let my = dev.ifaces[local.iface as usize].addr.unwrap();
                let peer = topo.device(remote.device).ifaces[remote.iface as usize]
                    .addr
                    .unwrap();
                prop_assert!(my.same_subnet(peer));
                prop_assert_ne!(my.addr, peer.addr);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `CowMap` against a `BTreeMap` model: random insert, in-place
    /// write, remove, clear and drain steps on a set of live tables, with
    /// copies taken (and dropped) at random points. After every step every
    /// live table reads as its own model — so no write shows in any other
    /// copy or in the source — and `diff_keys` names every key on which
    /// two tables differ. Then the first live table writes while a copy
    /// of it lives, and again after every copy drops.
    #[test]
    fn cow_map_agrees_with_a_model_across_copies(
        fill in 0u32..64,
        ops in prop::collection::vec((0u8..12, 0usize..8, 0u32..COW_KEYS, any::<u32>()), 1..160),
    ) {
        let mut source = CowMap::default();
        let mut model = BTreeMap::new();
        for k in 0..fill {
            source.insert(k, k);
            model.insert(k, k);
        }
        let mut live: Vec<Modelled> = vec![(source, model)];
        for (op, at, key, value) in ops {
            let (at, room) = (at % live.len(), live.len() < 8);
            let (map, model) = &mut live[at];
            match op {
                0..=2 => {
                    map.insert(key, value);
                    model.insert(key, value);
                }
                3 => {
                    if let Some(v) = map.get_mut(&key) {
                        *v = value;
                    }
                    if let Some(v) = model.get_mut(&key) {
                        *v = value;
                    }
                }
                4..=6 => prop_assert_eq!(map.remove(&key), model.remove(&key)),
                7 => {
                    map.clear();
                    model.clear();
                }
                8 => {
                    let mut drained: Vec<(u32, u32)> = map.drain().collect();
                    drained.sort_unstable();
                    let want: Vec<(u32, u32)> = std::mem::take(model).into_iter().collect();
                    prop_assert_eq!(drained, want);
                }
                9 | 10 if room => {
                    let copy = (map.clone(), model.clone());
                    live.push(copy);
                }
                9 | 10 => {}
                _ => {
                    if live.len() > 1 {
                        live.swap_remove(at);
                    }
                }
            }
            all_agree(&live)?;
        }
        // The first table writes two keys while a copy of it lives, which
        // a base of sixteen or more entries keeps as its own writes, then
        // writes them again once every copy is gone, which folds the first
        // writes into a base nothing else reads.
        let copy = (live[0].0.clone(), live[0].1.clone());
        live.push(copy);
        let keys = [fill % 7, 40 + fill % 11];
        for alone in [false, true] {
            if alone {
                live.truncate(1);
            }
            let (map, model) = &mut live[0];
            for (i, &k) in keys.iter().enumerate() {
                if alone && i == 0 {
                    prop_assert_eq!(map.remove(&k), model.remove(&k));
                } else {
                    let v = k + if alone { 200 } else { 100 };
                    map.insert(k, v);
                    model.insert(k, v);
                }
            }
            all_agree(&live)?;
        }
    }
}

/// Every live table reads as its own model, and `diff_keys` names every
/// key on which two of them differ.
fn all_agree(live: &[Modelled]) -> Result<(), TestCaseError> {
    for (map, model) in live {
        agrees(map, model)?;
    }
    for (a, ma) in live {
        for (b, mb) in live {
            let named: std::collections::BTreeSet<u32> = a.diff_keys(b).copied().collect();
            for k in 0..COW_KEYS {
                if ma.get(&k) != mb.get(&k) {
                    prop_assert!(named.contains(&k), "diff_keys misses key {}", k);
                }
            }
        }
    }
    Ok(())
}
