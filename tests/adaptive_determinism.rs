//! Thread-count invariance of the *adaptive* planning loop.
//!
//! The online estimators (`dde-sched::adaptive`) update only from
//! trace-visible events, so the adaptive run inherits the sharded
//! engine's contract unchanged: for a given scenario, seed, and
//! [`AdaptiveConfig`], the thread count chooses how the work is
//! scheduled, never what the estimators learn or which queries the
//! admission gate sheds. These tests enforce byte-identical JSONL
//! traces and equal `RunReport`s at 1, 4, and 8 threads on the bands
//! where the loop actually does something: node churn (reliability
//! learning) and an overload burst with the admission gate engaged.

use dde_core::prelude::*;
use dde_core::Strategy;
use dde_obs::{diff_jsonl, JsonlSink, SharedSink};
use dde_sched::adaptive::{AdaptiveConfig, AdmissionPolicy};
use dde_workload::scenario::{Scenario, ScenarioConfig};

const THREADS: [usize; 3] = [1, 4, 8];

fn options(seed: u64, adaptive: AdaptiveConfig) -> RunOptions {
    let mut options = RunOptions::new(Strategy::Lvf);
    options.seed = seed ^ 0xada;
    options.adaptive = Some(adaptive);
    options
}

/// Runs the scenario sharded over `threads` workers with a JSONL sink
/// and returns the serialized trace plus the report.
fn sharded_trace(scenario: &Scenario, options: RunOptions, threads: usize) -> (String, RunReport) {
    let sink = SharedSink::new(JsonlSink::new(Vec::new()));
    let handle = sink.clone();
    let report = run_scenario_observed(scenario, RunOptions { threads, ..options }, Box::new(sink));
    let trace = String::from_utf8(handle.with(|j| j.get_ref().clone())).expect("trace is UTF-8");
    (trace, report)
}

fn assert_equivalent_across_threads(band: &str, scenario: &Scenario, options: &RunOptions) {
    let (base_trace, base_report) = sharded_trace(scenario, options.clone(), THREADS[0]);
    assert!(
        !base_trace.is_empty(),
        "{band}: trace should capture events"
    );
    for &threads in &THREADS[1..] {
        let (trace, report) = sharded_trace(scenario, options.clone(), threads);
        let diff = diff_jsonl(&base_trace, &trace);
        assert!(
            diff.is_identical(),
            "{band}: structural divergence at {threads} threads: {}",
            diff.render()
        );
        assert_eq!(
            base_trace, trace,
            "{band}: trace bytes differ at {threads} threads"
        );
        assert_eq!(
            base_report, report,
            "{band}: RunReport differs at {threads} threads"
        );
    }
}

#[test]
fn learning_run_is_thread_count_invariant_under_churn() {
    // Churn exercises the reliability estimator (fetch timeouts feed it)
    // and forces replanning, so learned state actually steers decisions.
    for seed in [7, 13] {
        let scenario = Scenario::build(
            ScenarioConfig::small()
                .with_seed(seed)
                .with_fast_ratio(0.4)
                .with_churn(0.5),
        );
        assert!(
            !scenario.faults.is_empty(),
            "churn band should install node faults"
        );
        let options = options(seed, AdaptiveConfig::default());
        assert_equivalent_across_threads("adaptive churn", &scenario, &options);
    }
}

#[test]
fn admission_gated_run_is_thread_count_invariant_on_the_overload_band() {
    let seed = 11;
    let scenario = Scenario::build(ScenarioConfig::overload().with_seed(seed));
    let gated = AdaptiveConfig {
        admission: Some(AdmissionPolicy::default()),
        ..AdaptiveConfig::default()
    };
    let mut opts = options(seed, gated);
    // The half-duplex medium is what makes the burst an overload (one
    // transmitter per node); it is also the harder scheduling case for
    // the sharded engine, so it is the band worth pinning.
    opts.medium = dde_netsim::MediumMode::HalfDuplexTx;
    let report = run_scenario_observed(&scenario, opts.clone(), Box::new(dde_obs::NullSink));
    assert!(
        report.admission_shed + report.admission_deferred > 0,
        "overload band should engage the admission gate"
    );
    assert_equivalent_across_threads("adaptive admission", &scenario, &opts);
}

#[test]
fn classic_and_sharded_adaptive_runs_agree() {
    // The sequential run (one region, inline: the default) and every
    // multi-threaded run must tell the same story for an unobserved
    // adaptive run: equal `RunReport`s, including the estimator-driven
    // plan outcomes and every admission counter. (Observed traces are
    // compared byte for byte above.)
    let seed = 19;
    let scenario = Scenario::build(
        ScenarioConfig::small()
            .with_seed(seed)
            .with_fast_ratio(0.4)
            .with_churn(0.3),
    );
    let opts = options(seed, AdaptiveConfig::default());
    let classic = run_scenario(&scenario, opts.clone());
    assert_eq!(opts.threads, 1, "the default is the sequential run");
    for threads in THREADS {
        let sharded = run_scenario(
            &scenario,
            RunOptions {
                threads,
                ..opts.clone()
            },
        );
        assert_eq!(classic, sharded, "reports differ at {threads} threads");
    }
}
