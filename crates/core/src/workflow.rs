//! The Figure 3 validation workflow.
//!
//! "At each step, operators can choose to apply significant changes ...
//! or use existing tools for incremental changes via the management
//! plane. Next, the operators pull the emulation state ... to check
//! whether the changes they made had the intended effect. ... Otherwise,
//! operators revert current update with Reload, fix the bugs and try
//! again. This process repeats until all update steps are validated."
//!
//! [`Emulation::rehearse`] is that loop, and the only one: each
//! [`RehearsalStep`] — a [`ChangeSet`] or a run of the operators' own
//! tools — is applied and measured on a fresh [`fork`](Emulation::fork),
//! checked there, and then **committed on pass or dropped on fail**. The
//! drop is the revert, so there is none to write and none to get wrong.

use crate::emulation::{Emulation, EmulationError};
use crate::rehearse::ConvergenceDelta;
use crate::session::EmulationFork;
use crystalnet_config::ChangeSet;
use crystalnet_sim::SimTime;

/// A step's operation, bound to one of the session's two doors.
type ApplyFn = Box<dyn FnMut(&mut EmulationFork) -> Result<ConvergenceDelta, EmulationError>>;
/// A validation check on the converged fork. Takes `&mut` because
/// validation probes (`InjectPackets`) record telemetry state.
type ExpectFn = Box<dyn FnMut(&mut Emulation) -> Result<(), String>>;

/// One named step of a rehearsal plan: an operation plus, optionally,
/// the state the operators expect to pull afterwards.
pub struct RehearsalStep {
    name: String,
    apply: ApplyFn,
    expect: Option<ExpectFn>,
}

impl RehearsalStep {
    /// A step that applies a change set ([`EmulationFork::apply`]).
    #[must_use]
    pub fn new(name: impl Into<String>, changes: ChangeSet) -> Self {
        RehearsalStep {
            name: name.into(),
            apply: Box::new(move |fork| fork.apply(&changes)),
            expect: None,
        }
    }

    /// A step that runs the operators' own tooling
    /// ([`EmulationFork::run_tools`]): `tools` drives the fork through
    /// [`Emulation::login_and_run`] and the session measures what it did.
    pub fn tools(
        name: impl Into<String>,
        mut tools: impl FnMut(&mut Emulation) -> Result<(), EmulationError> + 'static,
    ) -> Self {
        let name = name.into();
        let label = name.clone();
        RehearsalStep {
            name,
            apply: Box::new(move |fork| fork.run_tools(&label, &mut tools)),
            expect: None,
        }
    }

    /// Attaches the validation check run on the fork after convergence;
    /// a step without one passes as soon as it applies and converges.
    #[must_use]
    pub fn expect(
        mut self,
        check: impl FnMut(&mut Emulation) -> Result<(), String> + 'static,
    ) -> Self {
        self.expect = Some(Box::new(check));
        self
    }
}

/// The outcome of one rehearsed step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome {
    /// Applied, converged, expectation met — committed to the baseline.
    Passed,
    /// The step could not be applied or did not converge (an invalid
    /// change set, a tool's failed login, a missed deadline); the fork
    /// was dropped.
    Rejected(EmulationError),
    /// Applied and converged, but the pulled state was not the expected
    /// one; the fork was dropped.
    Failed {
        /// Why the expectation failed.
        reason: String,
    },
    /// Not reached because an earlier step did not pass.
    Skipped,
}

/// One step's line in a [`RehearsalReport`].
#[derive(Debug, Clone)]
pub struct StepResult {
    /// The step's name.
    pub name: String,
    /// The baseline's virtual time when the step was applied — the
    /// stamp of its change-log entry if it passed.
    pub at: SimTime,
    /// Passed / rejected / failed / skipped.
    pub outcome: StepOutcome,
    /// What the step did, measured on its fork, whenever it applied and
    /// converged (a failed step's is what it *would* have done).
    pub delta: Option<ConvergenceDelta>,
}

/// The per-step results of [`Emulation::rehearse`].
#[derive(Debug, Clone, Default)]
pub struct RehearsalReport {
    /// One result per plan step, in plan order.
    pub steps: Vec<StepResult>,
}

impl RehearsalReport {
    /// Whether the whole plan validated.
    #[must_use]
    pub fn all_passed(&self) -> bool {
        self.steps.iter().all(|s| s.outcome == StepOutcome::Passed)
    }

    /// Names of the steps that were rejected or failed their check.
    #[must_use]
    pub fn failures(&self) -> Vec<&str> {
        self.steps
            .iter()
            .filter(|s| !matches!(s.outcome, StepOutcome::Passed | StepOutcome::Skipped))
            .map(|s| s.name.as_str())
            .collect()
    }

    /// Multi-line human summary, one line per step.
    #[must_use]
    pub fn summary(&self) -> String {
        let line = |s: &StepResult| {
            let did = s.delta.as_ref().map(|d| format!(": {}", d.summary()));
            format!("[{:?}] {}{}\n", s.outcome, s.name, did.unwrap_or_default())
        };
        self.steps.iter().map(line).collect()
    }
}

impl Emulation {
    /// Runs a staged plan — the Fig. 3 loop: apply one step, pull state,
    /// check, and keep it or throw it away — stopping at the first step
    /// that does not pass (later steps report [`StepOutcome::Skipped`]).
    ///
    /// Each step runs on a fresh [`fork`](Emulation::fork), which is
    /// committed back only if the step applies, converges and meets its
    /// expectation. A fork replicates the engine position and every OS
    /// exactly, so a passing plan's deltas and final FIBs are
    /// bit-identical to a hand-rolled fork/apply/commit loop; a step
    /// that does not pass leaves `self` as the previous step left it.
    pub fn rehearse(&mut self, plan: impl IntoIterator<Item = RehearsalStep>) -> RehearsalReport {
        let mut report = RehearsalReport::default();
        let mut stopped = false;
        for mut step in plan {
            let at = self.now();
            let (outcome, delta) = if stopped {
                (StepOutcome::Skipped, None)
            } else {
                let mut fork = self.fork();
                let delta = (step.apply)(&mut fork);
                let check = step.expect.as_mut();
                let outcome = match &delta {
                    Err(e) => StepOutcome::Rejected(e.clone()),
                    Ok(_) => match check.map_or(Ok(()), |check| check(fork.emulation_mut())) {
                        Ok(()) => StepOutcome::Passed,
                        Err(reason) => StepOutcome::Failed { reason },
                    },
                };
                if outcome == StepOutcome::Passed {
                    fork.commit(self);
                }
                (outcome, delta.ok())
            };
            stopped = outcome != StepOutcome::Passed;
            report.steps.push(StepResult {
                name: step.name,
                at,
                outcome,
                delta,
            });
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_queries() {
        let result = |name: &str, outcome| StepResult {
            name: name.into(),
            at: SimTime::ZERO,
            outcome,
            delta: None,
        };
        let report = RehearsalReport {
            steps: vec![
                result("a", StepOutcome::Passed),
                result("b", StepOutcome::Failed { reason: "x".into() }),
                result("c", StepOutcome::Rejected(EmulationError::NotConverged)),
                result("d", StepOutcome::Skipped),
            ],
        };
        assert!(!report.all_passed());
        assert_eq!(report.failures(), vec!["b", "c"]);
        assert!(report.summary().contains("[Skipped] d"));
    }
}
