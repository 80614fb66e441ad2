//! The interners keep every value they intern, for the life of the
//! process. This binary holds one test, so nothing else interns while it
//! counts: a second run of the same S-DC mockup must find every attribute
//! set and causal chain already there, because the tables follow the
//! distinct values a process sees, not how many runs it makes.

use crystalnet::{mockup, prepare, BoundaryMode, MockupOptions, PlanOptions, SpeakerSource};
use crystalnet_net::ClosParams;
use crystalnet_routing::{PathAttrs, Provenance};
use std::sync::Arc;

#[test]
fn a_second_identical_mockup_interns_nothing_new() {
    let dc = ClosParams::s_dc().build();
    let prep = Arc::new(prepare(
        &dc.topo,
        &[],
        BoundaryMode::WholeNetwork,
        SpeakerSource::OriginatedOnly,
        &PlanOptions::default(),
    ));
    let run = || mockup(Arc::clone(&prep), MockupOptions::builder().seed(7).build());
    let population = || (PathAttrs::interned_count(), Provenance::interned_count());

    let first = run();
    let after_first = population();
    assert!(after_first.0 > 0 && after_first.1 > 0, "{after_first:?}");
    drop(first);

    let second = run();
    assert_eq!(population(), after_first);
    assert!(second.metrics.route_ops > 0);
}
