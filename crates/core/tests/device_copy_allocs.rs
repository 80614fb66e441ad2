//! Copying a device OS is what a fork pays at its first write to a
//! device, and a rehearsal that reaches the whole fabric pays it once per
//! device. Every Loc-RIB, Adj-RIB and FIB entry is plain data, so the copy
//! allocates per table (one per peer's Adj-RIBs, one per FIB length map,
//! one per distinct ECMP set), never per route. This binary holds one test
//! and a counting global allocator, so nothing else allocates while it
//! counts.

use crystalnet::{mockup, prepare, BoundaryMode, MockupOptions, PlanOptions, SpeakerSource};
use crystalnet_net::{ClosParams, DeviceId, Role};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded to `System` unchanged; the counter is
// the only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations allowed per table: a peer (its Adj-RIB-In, Adj-RIB-Out
/// and MRAI maps, its configuration lines) or a FIB length map, with room
/// for the image's fixed fields and its few ECMP sets.
const PER_TABLE: usize = 4;

#[test]
fn copying_a_converged_device_allocates_per_table_not_per_route() {
    let dc = ClosParams::s_dc().build();
    let prep = Arc::new(prepare(
        &dc.topo,
        &[],
        BoundaryMode::WholeNetwork,
        SpeakerSource::OriginatedOnly,
        &PlanOptions::default(),
    ));
    let emu = mockup(Arc::clone(&prep), MockupOptions::builder().seed(42).build());
    // The external speaker is a route replayer, not a BGP image.
    let routers: Vec<DeviceId> = prep
        .topo
        .devices()
        .filter(|(_, d)| d.role != Role::External)
        .map(|(id, _)| id)
        .collect();
    assert!(routers.len() > 100);
    for &dev in &routers {
        let os = emu.sim.os(dev).expect("every router is emulated");
        let peers = prep.topo.neighbor_devices(dev).count();
        let prefixes = os.fib().len();
        let bound = PER_TABLE * (peers + 33);
        // A copy that owned a next-hop list per Loc-RIB and FIB entry
        // would make two allocations per prefix.
        assert!(
            2 * prefixes > bound,
            "{dev:?}: {prefixes} prefixes cannot tell routes from tables"
        );
        let before = ALLOCS.load(Ordering::Relaxed);
        let copy = os.clone_shared();
        let allocs = (ALLOCS.load(Ordering::Relaxed) - before) as usize;
        drop(copy);
        assert!(
            allocs <= bound,
            "{dev:?}: one copy made {allocs} allocations for {peers} peers \
             and {prefixes} FIB prefixes"
        );
    }
}
