//! The FIB comparator (§9, "Dealing with non-determinism").
//!
//! Cross-validating emulated against production forwarding tables — or a
//! boundary emulation against a full one — needs more than equality:
//! ECMP path selection combined with IP prefix aggregation makes some
//! routes legitimately non-deterministic (the Figure 1 situation where R6
//! may pick either contributing path for the aggregate). The comparator
//! therefore treats ECMP sets as sets and accepts declared
//! non-deterministic prefixes as long as both sides can forward them.

use crate::fib::Fib;
use crystalnet_net::Ipv4Prefix;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// One difference between two FIBs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FibDifference {
    /// Present only on the left side.
    OnlyLeft(Ipv4Prefix),
    /// Present only on the right side.
    OnlyRight(Ipv4Prefix),
    /// Present on both sides with different ECMP sets.
    NextHopMismatch {
        /// The prefix in disagreement.
        prefix: Ipv4Prefix,
        /// Left ECMP set size.
        left_hops: usize,
        /// Right ECMP set size.
        right_hops: usize,
    },
    /// A declared non-deterministic prefix is unreachable on one side —
    /// still an error even under relaxed comparison.
    NondeterministicUnreachable(Ipv4Prefix),
}

/// Comparison options.
#[derive(Debug, Clone, Default)]
pub struct CompareOptions {
    /// Prefixes whose next hops may legitimately differ (aggregates under
    /// ECMP, §9). They must still be present and reachable on both sides.
    pub nondeterministic: BTreeSet<Ipv4Prefix>,
}

impl CompareOptions {
    /// Strict comparison (empty non-deterministic set).
    #[must_use]
    pub fn strict() -> Self {
        CompareOptions::default()
    }

    /// Marks `prefix` as legitimately non-deterministic.
    #[must_use]
    pub fn tolerating(mut self, prefix: Ipv4Prefix) -> Self {
        self.nondeterministic.insert(prefix);
        self
    }
}

/// Compares two FIBs, returning every difference.
///
/// ECMP sets compare as sets ([`crate::fib::FibEntry`] keeps them sorted
/// and deduplicated, so slice equality is set equality).
#[must_use]
pub fn compare_fibs(left: &Fib, right: &Fib, opts: &CompareOptions) -> Vec<FibDifference> {
    let mut diffs = Vec::new();
    for (prefix, le) in left.iter() {
        match right.get(prefix) {
            None => diffs.push(FibDifference::OnlyLeft(prefix)),
            Some(re) => {
                if opts.nondeterministic.contains(&prefix) {
                    if !le.is_reachable() || !re.is_reachable() {
                        diffs.push(FibDifference::NondeterministicUnreachable(prefix));
                    }
                } else if le.next_hops != re.next_hops {
                    diffs.push(FibDifference::NextHopMismatch {
                        prefix,
                        left_hops: le.next_hops.len(),
                        right_hops: re.next_hops.len(),
                    });
                }
            }
        }
    }
    for (prefix, _) in right.iter() {
        if left.get(prefix).is_none() {
            diffs.push(FibDifference::OnlyRight(prefix));
        }
    }
    diffs.sort_by_key(|d| match d {
        FibDifference::OnlyLeft(p)
        | FibDifference::OnlyRight(p)
        | FibDifference::NextHopMismatch { prefix: p, .. }
        | FibDifference::NondeterministicUnreachable(p) => (*p, variant_rank(d)),
    });
    diffs
}

fn variant_rank(d: &FibDifference) -> u8 {
    match d {
        FibDifference::OnlyLeft(_) => 0,
        FibDifference::OnlyRight(_) => 1,
        FibDifference::NextHopMismatch { .. } => 2,
        FibDifference::NondeterministicUnreachable(_) => 3,
    }
}

/// Whether two FIBs agree under the options.
#[must_use]
pub fn fibs_equal(left: &Fib, right: &Fib, opts: &CompareOptions) -> bool {
    compare_fibs(left, right, opts).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fib::{FibEntry, NextHop};
    use crystalnet_net::Ipv4Addr;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }
    fn hop(i: u32) -> NextHop {
        NextHop {
            iface: i,
            via: Ipv4Addr(i),
        }
    }
    fn fib(entries: &[(&str, Vec<u32>)]) -> Fib {
        let mut f = Fib::default();
        for (pre, hops) in entries {
            f.install(
                p(pre),
                FibEntry::new(hops.iter().copied().map(hop).collect()),
            );
        }
        f
    }

    #[test]
    fn identical_fibs_agree() {
        let a = fib(&[("10.0.0.0/8", vec![1, 2]), ("20.0.0.0/8", vec![3])]);
        let b = fib(&[("20.0.0.0/8", vec![3]), ("10.0.0.0/8", vec![2, 1])]);
        // ECMP order is irrelevant: sets compare equal.
        assert!(fibs_equal(&a, &b, &CompareOptions::strict()));
    }

    #[test]
    fn missing_prefixes_reported_on_both_sides() {
        let a = fib(&[("10.0.0.0/8", vec![1])]);
        let b = fib(&[("20.0.0.0/8", vec![1])]);
        let diffs = compare_fibs(&a, &b, &CompareOptions::strict());
        assert_eq!(diffs.len(), 2);
        assert!(diffs.contains(&FibDifference::OnlyLeft(p("10.0.0.0/8"))));
        assert!(diffs.contains(&FibDifference::OnlyRight(p("20.0.0.0/8"))));
    }

    #[test]
    fn hop_mismatch_reported() {
        let a = fib(&[("10.0.0.0/8", vec![1, 2])]);
        let b = fib(&[("10.0.0.0/8", vec![1])]);
        let diffs = compare_fibs(&a, &b, &CompareOptions::strict());
        assert_eq!(
            diffs,
            vec![FibDifference::NextHopMismatch {
                prefix: p("10.0.0.0/8"),
                left_hops: 2,
                right_hops: 1,
            }]
        );
    }

    #[test]
    fn nondeterministic_prefix_tolerates_different_hops() {
        // The Figure 1 aggregate: both sides reach P3 via different hops.
        let a = fib(&[("10.1.0.0/16", vec![1])]);
        let b = fib(&[("10.1.0.0/16", vec![2])]);
        let opts = CompareOptions::strict().tolerating(p("10.1.0.0/16"));
        assert!(fibs_equal(&a, &b, &opts));
        // But strict comparison flags it.
        assert!(!fibs_equal(&a, &b, &CompareOptions::strict()));
    }

    #[test]
    fn nondeterministic_prefix_must_still_be_reachable() {
        let a = fib(&[("10.1.0.0/16", vec![1])]);
        let mut b = Fib::default();
        b.install(p("10.1.0.0/16"), FibEntry::default()); // unreachable
        let opts = CompareOptions::strict().tolerating(p("10.1.0.0/16"));
        let diffs = compare_fibs(&a, &b, &opts);
        assert_eq!(
            diffs,
            vec![FibDifference::NondeterministicUnreachable(p("10.1.0.0/16"))]
        );
    }

    #[test]
    fn nondeterministic_prefix_must_exist_on_both_sides() {
        let a = fib(&[("10.1.0.0/16", vec![1])]);
        let b = Fib::default();
        let opts = CompareOptions::strict().tolerating(p("10.1.0.0/16"));
        assert!(!fibs_equal(&a, &b, &opts));
    }

    #[test]
    fn empty_fibs_agree() {
        assert!(fibs_equal(
            &Fib::default(),
            &Fib::default(),
            &CompareOptions::strict()
        ));
    }
}
