//! CrystalNet: the orchestrator.
//!
//! A Rust reproduction of "CrystalNet: Faithfully Emulating Large
//! Production Networks" (SOSP '17). This crate is the paper's primary
//! contribution — the cloud-scale emulation orchestrator — built on the
//! workspace's substrates: simulated cloud + PhyNet containers + VXLAN
//! overlays (`crystalnet-vnet`), vendor firmware engines
//! (`crystalnet-routing`), safe static boundaries (`crystalnet-boundary`)
//! and production-style configuration (`crystalnet-config`).
//!
//! The Table 2 API surface maps as:
//!
//! | Paper API | Here |
//! |---|---|
//! | `Prepare` | [`prepare()`] → [`PrepareOutput`] |
//! | `Mockup` | [`mockup`] → [`Emulation`] |
//! | `Clear` / `Destroy` | [`Emulation::clear`] / [`Emulation::destroy`] |
//! | `Reload` | [`Emulation::reload`] |
//! | `Connect` / `Disconnect` | [`Emulation::connect`] / [`Emulation::disconnect`] |
//! | `InjectPackets` | [`Emulation::inject_packet`] |
//! | `PullStates` / `PullConfig` / `PullPackets` | [`Emulation::pull_states`] / [`Emulation::pull_config`] / [`Emulation::pull_packets`] |
//! | `List` / `Login` | [`Emulation::list`] / [`Emulation::login_and_run`] |

#![warn(missing_docs)]

pub mod cases;
pub mod emulation;
pub mod explain;
pub mod faults;
pub mod health;
mod inspect;
mod lifecycle;
pub mod metrics;
mod options;
pub mod plan;
pub mod prepare;
pub mod rehearse;
pub mod scenarios;
pub mod session;
pub mod traffic;
mod work;
pub mod workflow;

pub use cases::{
    run_case1, run_case1_under_load, run_case1_with, run_case2, run_case2_with, Case1Report,
    Case2Report,
};
pub use emulation::{
    mockup, DeviceState, Emulation, EmulationError, MockupOptions, MockupOptionsBuilder, Sandbox,
    VmWorkModel,
};
pub use explain::{ExplainHop, RouteExplanation};
pub use faults::{FaultEvent, FaultKind, FaultPlan, FaultReport, HealthPolicy, RetryPolicy};
pub use health::{
    correlate, incidents_jsonl, CorrelatedIncident, HealthReport, IncidentCause, PairGauges,
    CORRELATION_WINDOW,
};
pub use metrics::{JournalEvent, JournalKind, MockupMetrics, RecoveryJournal};
pub use plan::{plan_vms, sandbox_kind, PlanOptions, PlannedVm, VmPlan};
pub use prepare::{prepare, BoundaryMode, PrepareOutput, SpeakerSource};
pub use rehearse::{AppliedChange, ConvergenceDelta, FibChange, FibChangeKind};
pub use scenarios::{run_all as run_all_scenarios, RootCause, ScenarioResult};
pub use session::{EmulationFork, Snapshot};
pub use traffic::{LinkUtilisation, TrafficReport};
pub use workflow::{RehearsalReport, RehearsalStep, StepOutcome, StepResult};

/// One-stop imports for driving an emulation.
///
/// ```
/// use crystalnet::prelude::*;
/// ```
///
/// pulls in the orchestrator API (`prepare`/`mockup`, the typed
/// [`EmulationError`], the fault subsystem) together with the substrate
/// types every example ends up needing — topologies, ids, addresses,
/// management commands, virtual time — so call sites stop deep-importing
/// individual workspace crates.
pub mod prelude {
    pub use crate::emulation::{
        mockup, DeviceState, Emulation, EmulationError, MockupOptions, MockupOptionsBuilder,
        Sandbox,
    };
    pub use crate::explain::{ExplainHop, RouteExplanation};
    pub use crate::faults::{
        FaultEvent, FaultKind, FaultPlan, FaultReport, HealthPolicy, RetryPolicy,
    };
    pub use crate::health::{CorrelatedIncident, HealthReport, IncidentCause, PairGauges};
    pub use crate::metrics::{JournalEvent, JournalKind, MockupMetrics, RecoveryJournal};
    pub use crate::prepare::{prepare, BoundaryMode, PrepareOutput, SpeakerSource};
    pub use crate::rehearse::{AppliedChange, ConvergenceDelta, FibChange, FibChangeKind};
    pub use crate::session::{EmulationFork, Snapshot};
    pub use crate::traffic::{LinkUtilisation, TrafficReport};
    pub use crate::workflow::{RehearsalReport, RehearsalStep, StepOutcome, StepResult};
    pub use crystalnet_config::{classify_diff, Change, ChangeImpact, ChangeSet, SpeakerRoute};
    pub use crystalnet_dataplane::ForwardDecision;
    pub use crystalnet_net::{
        ClosParams, ClosTopology, DeviceId, Ipv4Addr, Ipv4Prefix, LinkId, Topology,
    };
    pub use crystalnet_routing::{
        GrayFailureWitness, Incident, IncidentKind, MgmtCommand, MgmtResponse, ProbeConfig,
        ProbeOutcome, TrafficConfig, VendorProfile,
    };
    pub use crystalnet_sim::{SimDuration, SimTime};
    pub use crystalnet_telemetry::{
        trace_chrome_json, trace_jsonl, EventRecord, FieldValue, HistogramSummary, MemRecorder,
        NoopRecorder, Recorder, RunReport, SpanRecord, TraceRecord, TraceSink,
    };
    // The prepare artifact rides an `Arc` so forked emulations are
    // `Send` (PR 7 moved the spine off `Rc`); re-exported because every
    // `mockup` call site wraps its `PrepareOutput` in one.
    pub use std::sync::Arc;
}
