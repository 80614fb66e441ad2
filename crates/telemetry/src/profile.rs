//! Wall-clock profiling: hierarchical self/child span accounting and
//! memory accounting.
//!
//! Everything in this module describes the **execution**, not the emulated
//! world: wall-clock nanoseconds vary run to run, byte estimates depend on
//! the platform. None of it may reach the canonical report
//! ([`crate::RunReport::to_json`]); it is exported only by
//! [`crate::RunReport::to_json_full`].
//!
//! What *is* guaranteed deterministic is the **shape**: the profile key set
//! is the fixed [`keys::ALL`] registry (every key present every run, zero
//! when unused). That makes "did the structure change?" a byte-comparison
//! even though the values never are.

use crate::Serialize;
use serde::Value;
use std::collections::BTreeMap;

/// The fixed registry of wall-clock profile keys.
///
/// Keys form a hierarchy by dot-prefix: `core.mockup.converge` is a child
/// of `core.mockup`, and a parent's *self* time is its wall minus the sum
/// of its children's walls. The registry is closed on purpose: a
/// conditional key (emitted on some runs but not others) would break the
/// profile's structural determinism, so instrumentation sites must use
/// these constants and the report always emits all of them.
pub mod keys {
    /// Whole `mockup()` call: prepare sandboxes, boot, converge.
    pub const MOCKUP: &str = "core.mockup";
    /// Convergence inside `mockup()`.
    pub const MOCKUP_CONVERGE: &str = "core.mockup.converge";
    /// `settle()` re-convergence calls.
    pub const SETTLE: &str = "core.settle";
    /// `fork()` / `fork_emulation()` deep-copy cost.
    pub const FORK: &str = "core.fork";
    /// Warm `apply_change` (validate, inject, re-converge, diff).
    pub const APPLY: &str = "core.apply";
    /// Engine event loop (`run_until_quiet`).
    pub const ENGINE_RUN: &str = "sim.engine.run";
    /// Worker compute time of the sharded settle, which is gone: nothing
    /// records under this key. Kept, with [`PARALLEL_IDLE`], only for the
    /// benchmark's `sim.parallel.*` probe, which reads both.
    pub const PARALLEL_COMPUTE: &str = "sim.parallel.compute";
    /// Worker idle time of the sharded settle; never recorded (see
    /// [`PARALLEL_COMPUTE`]).
    pub const PARALLEL_IDLE: &str = "sim.parallel.idle";

    /// Every profile key, in report order. The profile section always
    /// contains exactly these keys.
    pub const ALL: &[&str] = &[
        MOCKUP,
        MOCKUP_CONVERGE,
        SETTLE,
        FORK,
        APPLY,
        ENGINE_RUN,
        PARALLEL_COMPUTE,
        PARALLEL_IDLE,
    ];
}

/// Aggregated wall-clock time under one profile key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ProfileEntry {
    /// Total wall nanoseconds recorded under this key.
    pub wall_ns: u64,
    /// Wall nanoseconds not covered by child keys (saturating; summed
    /// concurrent children can exceed a parent's wall).
    pub self_ns: u64,
    /// Number of times the key was recorded.
    pub count: u64,
}

/// The wall-clock profile section: every [`keys::ALL`] key with its total
/// wall time, self time (wall minus children), and record count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// Entries keyed by profile key, in [`keys::ALL`] order when exported.
    pub entries: BTreeMap<String, ProfileEntry>,
}

impl Profile {
    /// Builds the profile from raw `(wall_ns, count)` aggregates. Keys not
    /// in the registry are kept (sorted) but discouraged: conditional
    /// extra keys break cross-run structural comparisons.
    #[must_use]
    pub fn from_recorded(recorded: &BTreeMap<&'static str, (u64, u64)>) -> Self {
        let mut entries: BTreeMap<String, ProfileEntry> = BTreeMap::new();
        for &key in keys::ALL {
            let (wall_ns, count) = recorded.get(key).copied().unwrap_or((0, 0));
            entries.insert(
                key.to_string(),
                ProfileEntry {
                    wall_ns,
                    self_ns: wall_ns,
                    count,
                },
            );
        }
        for (key, &(wall_ns, count)) in recorded {
            entries.entry((*key).to_string()).or_insert(ProfileEntry {
                wall_ns,
                self_ns: wall_ns,
                count,
            });
        }
        // Self time: subtract each key's wall from its nearest ancestor
        // (the longest strict dot-prefix that is also a key).
        let names: Vec<String> = entries.keys().cloned().collect();
        for name in &names {
            let Some(parent) = nearest_ancestor(name, &names) else {
                continue;
            };
            let child_wall = entries[name.as_str()].wall_ns;
            let p = entries.get_mut(&parent).expect("ancestor exists");
            p.self_ns = p.self_ns.saturating_sub(child_wall);
        }
        Profile { entries }
    }

    /// Total wall nanoseconds under one key (0 if absent).
    #[must_use]
    pub fn wall_ns(&self, key: &str) -> u64 {
        self.entries.get(key).map_or(0, |e| e.wall_ns)
    }
}

/// The longest strict dot-prefix of `name` that appears in `names`.
fn nearest_ancestor(name: &str, names: &[String]) -> Option<String> {
    let mut best: Option<&str> = None;
    for cand in names {
        if cand.len() < name.len()
            && name.starts_with(cand.as_str())
            && name.as_bytes()[cand.len()] == b'.'
            && best.is_none_or(|b| cand.len() > b.len())
        {
            best = Some(cand);
        }
    }
    best.map(str::to_string)
}

impl Serialize for Profile {
    /// The entries themselves, keyed by profile key: no wrapper object.
    fn to_value(&self) -> Value {
        self.entries.to_value()
    }
}

/// Byte totals across every emulated device, by table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct DeviceMemTotals {
    /// Devices accounted.
    pub devices: u64,
    /// Total Loc-RIB entries across devices.
    pub rib_entries: u64,
    /// RIB bytes across devices: the next four fields together.
    pub rib_bytes: u64,
    /// Loc-RIB bytes, with the ECMP sets it names.
    pub loc_rib_bytes: u64,
    /// Adj-RIB-In bytes.
    pub adj_rib_in_bytes: u64,
    /// Adj-RIB-Out bytes, with the export rewrite memo.
    pub adj_rib_out_bytes: u64,
    /// Bytes of MRAI batches not yet sent.
    pub mrai_bytes: u64,
    /// Total FIB prefixes across devices.
    pub fib_prefixes: u64,
    /// Total FIB route entries (prefixes × ECMP fanout) across devices.
    pub fib_route_entries: u64,
    /// FIB bytes across devices.
    pub fib_bytes: u64,
    /// Running configuration and vendor profile bytes.
    pub config_bytes: u64,
    /// Session state and the rest of each OS: its struct, per-session
    /// headers and scratch buffers.
    pub session_bytes: u64,
}

/// One device's bytes (only the heaviest devices are exported).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct DeviceMem {
    /// Device id.
    pub device: u32,
    /// RIB bytes: Loc-RIB, Adj-RIBs and MRAI batches.
    pub rib_bytes: u64,
    /// FIB bytes.
    pub fib_bytes: u64,
}

/// The process-wide interners' footprint and payoff: the attribute sets
/// and provenance chains every route handle points at.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct InternerMem {
    /// Interned attribute sets.
    pub entries: u64,
    /// Bytes the attribute sets hold, with their intern table.
    pub table_bytes: u64,
    /// Interned provenance chains.
    pub provenance_entries: u64,
    /// Bytes the provenance chains hold, with their intern table.
    pub provenance_bytes: u64,
    /// Attribute-set intern hits so far (process-wide).
    pub hits: u64,
    /// Bytes the hits avoided allocating, at the mean bytes per set.
    pub hit_bytes_saved: u64,
}

/// Residual engine event-queue footprint at report time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct QueueMem {
    /// Events still pending in the queue.
    pub pending_events: u64,
    /// Estimated bytes those pending events hold.
    pub residue_bytes: u64,
}

/// Copy-on-write sharing breakdown for one emulation fork: what the child
/// still shares with its fork point versus what it has copied since, in
/// route-table (RIB + FIB) bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CowStats {
    /// Bytes of the devices whose OS instance is still the one the fork
    /// point holds.
    pub shared_bytes: u64,
    /// Bytes of the devices the child copied (or replaced) because a
    /// step wrote to them.
    pub copied_bytes: u64,
    /// Of `copied_bytes`, the bytes of bases the copies' tables still
    /// read together with another table: what copying a device did not
    /// copy.
    pub copied_base_bytes: u64,
}

impl CowStats {
    /// Fraction of the fork's reachable bytes that are shared, in
    /// [0, 1]. Returns 0 when nothing is accounted.
    #[must_use]
    pub fn sharing_ratio(&self) -> f64 {
        let total = self.shared_bytes + self.copied_bytes;
        if total == 0 {
            0.0
        } else {
            self.shared_bytes as f64 / total as f64
        }
    }
}

impl Serialize for CowStats {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("shared_bytes".to_string(), Value::Uint(self.shared_bytes)),
            ("copied_bytes".to_string(), Value::Uint(self.copied_bytes)),
            (
                "copied_base_bytes".to_string(),
                Value::Uint(self.copied_base_bytes),
            ),
            (
                "sharing_ratio".to_string(),
                Value::Float(self.sharing_ratio()),
            ),
        ])
    }
}

/// The memory-accounting section: per-device table bytes, interner
/// footprint, event-queue residue, and (for forks) COW sharing.
///
/// All byte figures are computed from table capacities and entry counts
/// multiplied by slot and struct sizes, not allocator measurements: they
/// are deterministic for a seed on a given platform, which is what a
/// regression baseline needs.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct MemorySection {
    /// Totals across devices.
    pub devices: DeviceMemTotals,
    /// The heaviest devices by combined RIB+FIB bytes, largest first.
    pub top_devices: Vec<DeviceMem>,
    /// Interner footprint.
    pub interner: InternerMem,
    /// Event-queue residue.
    pub event_queue: QueueMem,
    /// COW sharing for forked emulations; `None` on a root emulation.
    pub fork_cow: Option<CowStats>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_always_contains_the_full_registry() {
        let p = Profile::from_recorded(&BTreeMap::new());
        for &key in keys::ALL {
            assert!(p.entries.contains_key(key), "missing {key}");
            assert_eq!(p.entries[key], ProfileEntry::default());
        }
    }

    #[test]
    fn profile_self_time_subtracts_children() {
        let mut rec = BTreeMap::new();
        rec.insert(keys::MOCKUP, (100, 1));
        rec.insert(keys::MOCKUP_CONVERGE, (70, 1));
        let p = Profile::from_recorded(&rec);
        assert_eq!(p.entries[keys::MOCKUP].wall_ns, 100);
        assert_eq!(p.entries[keys::MOCKUP].self_ns, 30);
        assert_eq!(p.entries[keys::MOCKUP_CONVERGE].self_ns, 70);
        // Children summing past their parent saturate instead of
        // underflowing.
        let mut rec = BTreeMap::new();
        rec.insert(keys::MOCKUP, (10, 1));
        rec.insert(keys::MOCKUP_CONVERGE, (8, 1));
        rec.insert("core.mockup.boot", (5, 1));
        let p = Profile::from_recorded(&rec);
        assert_eq!(p.entries[keys::MOCKUP].self_ns, 0);
    }

    #[test]
    fn nearest_ancestor_prefers_longest_prefix() {
        let names = vec![
            "core.mockup".to_string(),
            "core.mockup.converge".to_string(),
            "core.mockup.converge.inner".to_string(),
        ];
        assert_eq!(
            nearest_ancestor("core.mockup.converge.inner", &names),
            Some("core.mockup.converge".to_string())
        );
        assert_eq!(nearest_ancestor("core.mockup", &names), None);
        // "core.mockupx" must not match "core.mockup".
        assert_eq!(nearest_ancestor("core.mockupx", &names), None);
    }

    #[test]
    fn cow_ratio_is_bounded() {
        assert_eq!(CowStats::default().sharing_ratio(), 0.0);
        let c = CowStats {
            shared_bytes: 75,
            copied_bytes: 25,
            ..CowStats::default()
        };
        assert!((c.sharing_ratio() - 0.75).abs() < 1e-12);
    }
}
