//! A fork owns only what it writes. A copied device's route tables read
//! the parent's own tables as their base, so every fork, the first one
//! included, allocates only its own writes and never a copy of a table.
//! This binary holds one test and a counting global allocator, so nothing
//! else allocates while it counts.

use crystalnet::prelude::*;
use crystalnet::PlanOptions;
use crystalnet_net::{ClosParams, Role};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded to `System` unchanged; the counter is
// the only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn every_fork_allocates_only_its_writes() {
    let dc = ClosParams::s_dc().build();
    let prep = Arc::new(prepare(
        &dc.topo,
        &[],
        BoundaryMode::WholeNetwork,
        SpeakerSource::OriginatedOnly,
        &PlanOptions::default(),
    ));
    let emu = mockup(Arc::clone(&prep), MockupOptions::builder().seed(42).build());
    // One new /24 on one ToR: the fabric-wide change that writes one
    // entry into nearly every device's tables.
    let tor = prep
        .topo
        .devices()
        .find(|(_, d)| d.role == Role::Tor)
        .map(|(id, _)| id)
        .expect("S-DC has ToRs");
    let mut cfg = prep
        .configs
        .iter()
        .find(|(d, _)| *d == tor)
        .map(|(_, c)| c.clone())
        .expect("the ToR has a prepared config");
    cfg.bgp
        .as_mut()
        .expect("the ToR speaks BGP")
        .networks
        .push("10.77.1.0/24".parse().unwrap());
    let change = ChangeSet::new().config_update(tor, cfg);

    let apply_bytes = || {
        let mut fork = emu.fork();
        let before = BYTES.load(Ordering::Relaxed);
        let delta = fork.apply(&change).expect("the update applies");
        let bytes = BYTES.load(Ordering::Relaxed) - before;
        assert!(
            delta.fib_changes.len() > 100,
            "the /24 reaches the fabric: {} devices changed",
            delta.fib_changes.len()
        );
        bytes
    };
    // What the parent's route tables hold: what a fork that copied them
    // would allocate.
    let tables: u64 = emu
        .sandboxes
        .keys()
        .filter_map(|&dev| emu.sim.os(dev))
        .map(|os| os.mem().tables().total())
        .sum();
    for fork in 0..3 {
        let bytes = apply_bytes();
        assert!(
            bytes * 10 < tables,
            "fork {fork}'s apply allocated {bytes} B against {tables} B of route tables"
        );
    }
}
