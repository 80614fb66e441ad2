//! Property tests for the `PathAttrs` hash-consing interner.
//!
//! The contract every handle comparison and the parallel executor rely
//! on: interned handles are `==` (one address) **iff** their values are
//! structurally equal, and interning is idempotent.

use crystalnet_net::{Asn, Ipv4Addr};
use crystalnet_routing::attrs::{Origin, PathAttrs};
use proptest::prelude::*;

/// Small value domains so random pairs collide often — the property is
/// only interesting when both the equal and unequal cases are exercised.
fn attrs_strategy() -> impl Strategy<Value = PathAttrs> {
    (
        prop::collection::vec(64500u32..64504, 0..3),
        0u32..4,
        0u8..3,
        0u32..2,
        (
            100u32..102,
            prop::collection::vec(0u32..2, 0..2),
            any::<bool>(),
        ),
    )
        .prop_map(
            |(path, nh, origin, med, (local_pref, communities, aggregate))| PathAttrs {
                as_path: path.into_iter().map(Asn).collect(),
                next_hop: Ipv4Addr(nh),
                origin: match origin {
                    0 => Origin::Igp,
                    1 => Origin::Egp,
                    _ => Origin::Incomplete,
                },
                med,
                local_pref,
                communities,
                aggregate,
            },
        )
}

proptest! {
    #[test]
    fn interned_ptr_eq_iff_structurally_equal(
        a in attrs_strategy(),
        b in attrs_strategy(),
    ) {
        let ia = a.clone().intern();
        let ib = b.clone().intern();
        prop_assert_eq!(ia == ib, a == b);
        prop_assert_eq!(ia.as_ptr() == ib.as_ptr(), a == b);
        prop_assert_eq!(*ia == *ib, a == b);
    }

    #[test]
    fn interning_is_idempotent(a in attrs_strategy()) {
        let first = a.clone().intern();
        let again = (*first).clone().intern();
        prop_assert_eq!(first, again);
        prop_assert_eq!(*first, a);
    }

    #[test]
    fn derived_attrs_intern_consistently(a in attrs_strategy()) {
        // announced_by is deterministic, so deriving twice and interning
        // must converge on one canonical handle.
        let x = a.announced_by(Asn(64999), Ipv4Addr(9)).intern();
        let y = a.announced_by(Asn(64999), Ipv4Addr(9)).intern();
        prop_assert_eq!(x, y);
        prop_assert_eq!(x.as_path.first(), Some(&Asn(64999)));
    }
}
