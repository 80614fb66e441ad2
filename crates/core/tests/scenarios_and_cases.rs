//! The Table 1 incident suite and the §7 case studies must all behave as
//! the paper reports: the emulator catches every emulatable incident
//! class, and the case-study pipelines catch their injected bugs.

use crystalnet::{
    run_all_scenarios, run_case1, run_case1_under_load, run_case2, RootCause, StepOutcome,
    CORRELATION_WINDOW,
};

#[test]
fn table1_scenarios_detect_everything_emulatable() {
    let results = run_all_scenarios(42);
    assert_eq!(results.len(), 11);
    for r in &results {
        if r.name.contains("not emulatable") {
            assert!(!r.detected, "{} should be out of scope", r.name);
        } else {
            assert!(r.detected, "{} not detected: {}", r.name, r.detail);
        }
    }
    // The paper's comparison: software bugs and human-error *practice*
    // escape config verification, config bugs do not.
    for r in &results {
        match r.cause {
            RootCause::SoftwareBug | RootCause::HardwareFailure => {
                assert!(!r.verification_covers, "{}", r.name);
            }
            RootCause::ConfigBug => assert!(r.verification_covers, "{}", r.name),
            RootCause::HumanError => {}
        }
    }
    // All four Table 1 root-cause classes are represented.
    for cause in [
        RootCause::SoftwareBug,
        RootCause::ConfigBug,
        RootCause::HumanError,
        RootCause::HardwareFailure,
    ] {
        assert!(results.iter().any(|r| r.cause == cause));
    }
}

#[test]
fn case1_rehearsal_catches_tool_bug_then_final_plan_is_clean() {
    let report = run_case1(7);
    assert!(report.bugs_caught >= 1, "the buggy tool must be caught");
    assert!(
        report
            .rehearsal
            .steps
            .iter()
            .any(|s| matches!(s.outcome, StepOutcome::Failed { .. })),
        "the buggy step must fail its check: {}",
        report.rehearsal.summary()
    );
    assert!(
        report.baseline_untouched,
        "the failed step's fork must have been dropped, not committed"
    );
    assert!(
        report.no_disruption,
        "final plan: {}",
        report.final_run.summary()
    );
    assert!(report.vms_used > 0);
}

#[test]
fn case1_under_load_measures_every_step_and_correlates_to_the_plan() {
    let outcomes = |r: &crystalnet::RehearsalReport| -> Vec<(String, StepOutcome)> {
        r.steps
            .iter()
            .map(|s| (s.name.clone(), s.outcome.clone()))
            .collect()
    };
    let quiet = run_case1(7);
    let loaded = run_case1_under_load(7);

    // Planes are non-causal: the load changes what is observed, not
    // what happens.
    assert_eq!(outcomes(&loaded.rehearsal), outcomes(&quiet.rehearsal));
    assert_eq!(outcomes(&loaded.final_run), outcomes(&quiet.final_run));
    assert_eq!(loaded.bugs_caught, quiet.bugs_caught);
    assert!(loaded.no_disruption && loaded.bugs_caught >= 1);
    for (l, q) in loaded.final_run.steps.iter().zip(&quiet.final_run.steps) {
        let (l, q) = (l.delta.as_ref().unwrap(), q.delta.as_ref().unwrap());
        assert_eq!(l.fib_changes, q.fib_changes, "load moved a FIB");
        assert_eq!(q.flows_sent, 0, "planes off: nothing to observe");
    }

    // The failed rehearsal step never reached the baseline.
    assert!(loaded.baseline_untouched);

    // Every step of the final run reports its own impact on user load.
    assert!(loaded.traffic.enabled);
    for step in &loaded.final_run.steps {
        let delta = step.delta.as_ref().expect("every final step is measured");
        assert!(
            delta.flows_sent > 0 && delta.probes_sent > 0,
            "step {:?} observed no load: {}",
            step.name,
            delta.summary()
        );
    }

    // Incidents that follow a committed step are explained by the plan's
    // own change-log entry, not left bare.
    let committed: Vec<_> = loaded.final_run.steps.iter().map(|s| s.at).collect();
    assert_eq!(committed.len(), 2);
    let mut after_a_step = 0;
    for inc in &loaded.incidents {
        let at = inc.incident.at;
        if committed
            .iter()
            .any(|&step| step <= at && at.since(step) <= CORRELATION_WINDOW)
        {
            after_a_step += 1;
            let cause = inc
                .cause
                .as_ref()
                .expect("a step precedes it in the window");
            assert_eq!(cause.label(), "change", "{inc:?}");
            assert!(cause.description().starts_with("tools run: "), "{inc:?}");
        }
    }
    assert_eq!(
        loaded
            .report
            .spans
            .iter()
            .filter(|s| s.name == "apply_change")
            .count(),
        2,
        "one apply_change span per committed step"
    );
    println!(
        "{} incident(s), {} within the window of a step",
        loaded.incidents.len(),
        after_a_step
    );
}

#[test]
fn case2_pipeline_catches_all_three_dev_build_bugs() {
    let report = run_case2(9);
    assert_eq!(
        report.bugs.len(),
        3,
        "expected 3 bugs, got {:?}",
        report.bugs
    );
    assert!(report.bugs.iter().any(|b| b.contains("default route")));
    assert!(report.bugs.iter().any(|b| b.contains("ARP")));
    assert!(report.bugs.iter().any(|b| b.contains("crashed")));
    assert!(report.control_clean, "released build must pass clean");
}
