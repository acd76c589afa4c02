//! Cross-thread-count equivalence of the sharded parallel simulator.
//!
//! The conservative parallel engine's contract is exact: for a given
//! scenario and seed, the run is a pure function of the inputs — the
//! thread count only chooses how the work is scheduled, never what
//! happens. These tests enforce the strongest observable form of that
//! claim on every committed scenario band (fault-free baseline, node
//! churn, network partitions): **byte-identical JSONL traces** at 1, 2, 4,
//! and 8 threads, zero structural divergence under `dde-obs`'s differ, and
//! equal `RunReport`s (including the cost ledger) at every thread count.

use dde_core::prelude::*;
use dde_core::Strategy;
use dde_netsim::fault::FaultSchedule;
use dde_netsim::NodeId;
use dde_obs::{diff_jsonl, JsonlSink, SharedSink};
use dde_workload::scenario::{Scenario, ScenarioConfig};

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn options(seed: u64, faults: FaultSchedule) -> RunOptions {
    let mut options = RunOptions::new(Strategy::LvfLabelShare);
    options.seed = seed ^ 0x5eed;
    options.faults = faults;
    options
}

/// Runs the scenario sharded over `threads` workers with a JSONL sink and
/// returns the serialized trace plus the report.
fn sharded_trace(
    scenario: &Scenario,
    seed: u64,
    faults: &FaultSchedule,
    threads: usize,
) -> (String, RunReport) {
    let sink = SharedSink::new(JsonlSink::new(Vec::new()));
    let handle = sink.clone();
    let options = RunOptions {
        threads,
        ..options(seed, faults.clone())
    };
    let report = run_scenario_observed(scenario, options, Box::new(sink));
    let trace = String::from_utf8(handle.with(|j| j.get_ref().clone())).expect("trace is UTF-8");
    (trace, report)
}

/// The equivalence check itself: every thread count reproduces the
/// 1-thread run byte for byte. `extra_faults` rides in via `RunOptions`
/// and is merged by the engine with whatever the scenario schedules.
fn assert_equivalent_across_threads(
    band: &str,
    scenario: &Scenario,
    seed: u64,
    extra_faults: &FaultSchedule,
) {
    let (base_trace, base_report) = sharded_trace(scenario, seed, extra_faults, THREADS[0]);
    assert!(
        !base_trace.is_empty(),
        "{band}: trace should capture events"
    );
    for &threads in &THREADS[1..] {
        let (trace, report) = sharded_trace(scenario, seed, extra_faults, threads);
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
fn baseline_band_is_thread_count_invariant() {
    for seed in [7, 11] {
        let scenario =
            Scenario::build(ScenarioConfig::small().with_seed(seed).with_fast_ratio(0.4));
        assert_equivalent_across_threads("baseline", &scenario, seed, &FaultSchedule::new());
    }
}

#[test]
fn churn_band_is_thread_count_invariant() {
    let seed = 13;
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
    assert_equivalent_across_threads("churn", &scenario, seed, &FaultSchedule::new());
}

#[test]
fn partition_band_is_thread_count_invariant() {
    let seed = 17;
    let scenario = Scenario::build(ScenarioConfig::small().with_seed(seed).with_fast_ratio(0.4));
    // Cut half the nodes off mid-run, heal before the deadline horizon.
    let side: Vec<NodeId> = (0..scenario.topology.len() / 2).map(NodeId).collect();
    let mut faults = FaultSchedule::partition_at(
        &scenario.topology,
        dde_logic::time::SimTime::from_secs(20),
        &side,
    );
    faults.merge(&FaultSchedule::heal_partition_at(
        &scenario.topology,
        dde_logic::time::SimTime::from_secs(90),
        &side,
    ));
    assert!(!faults.is_empty(), "partition cut should sever links");
    assert_equivalent_across_threads("partitions", &scenario, seed, &faults);
}

#[test]
fn single_thread_sharded_report_matches_every_strategy_shape() {
    // The sweep's degenerate case: one region must still produce a full,
    // internally consistent report (every query accounted for).
    let seed = 23;
    let scenario = Scenario::build(ScenarioConfig::small().with_seed(seed).with_fast_ratio(0.4));
    let report = run_scenario(&scenario, options(seed, FaultSchedule::new()));
    assert_eq!(report.total_queries, scenario.queries.len());
    assert_eq!(
        report.resolved + report.missed,
        report.total_queries,
        "every query ends resolved or missed"
    );
}
