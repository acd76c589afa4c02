//! Conservation invariants of the `dde-obs` cost ledger.
//!
//! The ledger's claim is accounting-grade: every transmitted byte and
//! message lands in exactly one bucket (a decision query or the explicit
//! overhead bucket), so per-query charges plus overhead must equal the
//! simulator's own global counters — across scenarios, seeds, strategies,
//! and fault schedules. Likewise the critical-path walk partitions each
//! resolved query's observed latency exactly, and folding a serialized
//! JSONL trace offline must reproduce the live ledger bit-for-bit.

use dde_core::prelude::*;
use dde_core::Strategy;
use dde_netsim::fault::FaultSchedule;
use dde_netsim::NodeId;
use dde_obs::{CostLedger, JsonlSink, SharedSink};
use dde_workload::scenario::{Scenario, ScenarioConfig};
use proptest::prelude::*;

fn scenario(seed: u64, fast_ratio: f64) -> Scenario {
    Scenario::build(
        ScenarioConfig::small()
            .with_seed(seed)
            .with_fast_ratio(fast_ratio),
    )
}

/// Runs observed with a JSONL sink; returns the report (carrying the live
/// ledger) and the serialized trace.
fn observed_run(
    seed: u64,
    fast_ratio: f64,
    strategy: Strategy,
    faults: FaultSchedule,
) -> (RunReport, String) {
    let sink = SharedSink::new(JsonlSink::new(Vec::new()));
    let handle = sink.clone();
    let mut options = RunOptions::new(strategy);
    options.seed = seed ^ 0x5eed;
    options.faults = faults;
    let report = run_scenario_observed(&scenario(seed, fast_ratio), options, Box::new(sink));
    let trace = String::from_utf8(handle.with(|j| j.get_ref().clone())).expect("trace is UTF-8");
    (report, trace)
}

/// Every invariant the ledger promises, checked against one run.
fn check_conservation(report: &RunReport, trace: &str) -> Result<(), TestCaseError> {
    let live = report
        .ledger
        .as_ref()
        .expect("observed runs carry a ledger");

    // 1. Per-query charges + overhead == the simulator's global counters.
    prop_assert!(live.conserves(), "live ledger must conserve");
    prop_assert_eq!(
        live.total_bytes,
        report.total_bytes,
        "ledger byte total must equal the simulator's bytes_sent"
    );
    prop_assert_eq!(
        live.attributed_bytes() + live.overhead.bytes,
        report.total_bytes
    );

    // 2. Critical-path segments partition each resolved query's latency.
    for (qid, cost) in &live.queries {
        if let Some(latency_us) = cost.latency_us {
            if cost.outcome.as_deref() != Some("missed") {
                prop_assert_eq!(
                    cost.path().total_us(),
                    latency_us,
                    "query {} path segments must sum to its latency",
                    qid
                );
            }
        }
    }

    // 3. The offline fold of the serialized trace reproduces the live
    //    ledger exactly.
    let offline = CostLedger::from_jsonl(trace).expect("trace parses");
    prop_assert_eq!(&offline, live, "offline fold must equal the live ledger");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Conservation holds across scenario seeds, mixes, and strategies on
    /// fault-free runs.
    #[test]
    fn ledger_conserves_across_seeds_and_strategies(
        seed in 1u64..200,
        fast_idx in 0usize..4,
        strategy_idx in 0usize..Strategy::ALL.len(),
    ) {
        let fast_ratio = [0.0, 0.2, 0.6, 1.0][fast_idx];
        let strategy = Strategy::ALL[strategy_idx];
        let (report, trace) = observed_run(seed, fast_ratio, strategy, FaultSchedule::new());
        check_conservation(&report, &trace)?;
    }

    /// Conservation survives node churn and link outages: retransmissions
    /// and lost bytes are still charged to exactly one bucket.
    #[test]
    fn ledger_conserves_under_faults(
        seed in 1u64..200,
        crash_node in 0usize..4,
        crash_at_s in 5u64..40,
        downtime_s in 5u64..30,
        link_outage in any::<bool>(),
    ) {
        let mut faults = FaultSchedule::new();
        let at = dde_logic::time::SimTime::from_secs(crash_at_s);
        let up = dde_logic::time::SimTime::from_secs(crash_at_s + downtime_s);
        if link_outage {
            faults.link_down_at(at, NodeId(crash_node), NodeId(crash_node + 1));
            faults.link_up_at(up, NodeId(crash_node), NodeId(crash_node + 1));
        } else {
            faults.crash_at(at, NodeId(crash_node));
            faults.recover_at(up, NodeId(crash_node));
        }
        let (report, trace) = observed_run(seed, 0.4, Strategy::LvfLabelShare, faults);
        check_conservation(&report, &trace)?;
    }
}

/// Runs observed on the sharded parallel engine; returns the report and
/// the serialized trace.
fn sharded_observed_run(seed: u64, threads: usize, faults: FaultSchedule) -> (RunReport, String) {
    let sink = SharedSink::new(JsonlSink::new(Vec::new()));
    let handle = sink.clone();
    let mut options = RunOptions::new(Strategy::LvfLabelShare);
    options.seed = seed ^ 0x5eed;
    options.faults = faults;
    options.threads = threads;
    let report = run_scenario_observed(&scenario(seed, 0.4), options, Box::new(sink));
    let trace = String::from_utf8(handle.with(|j| j.get_ref().clone())).expect("trace is UTF-8");
    (report, trace)
}

/// Conservation extends to sharded runs: per-query charges plus overhead
/// equal the global totals at every thread count, and the ledger itself is
/// thread-count invariant.
#[test]
fn ledger_conserves_on_sharded_runs_at_any_thread_count() {
    let seed = 21;
    let mut baseline: Option<RunReport> = None;
    for threads in [1, 2, 4, 8] {
        let (report, trace) = sharded_observed_run(seed, threads, FaultSchedule::new());
        check_conservation(&report, &trace)
            .unwrap_or_else(|e| panic!("conservation failed at {threads} threads: {e}"));
        if let Some(base) = &baseline {
            assert_eq!(
                base.ledger, report.ledger,
                "ledger differs at {threads} threads"
            );
            assert_eq!(base, &report, "report differs at {threads} threads");
        } else {
            baseline = Some(report);
        }
    }
}

/// Sharded conservation also survives fault injection.
#[test]
fn sharded_ledger_conserves_under_faults() {
    let seed = 29;
    // The sharded engine validates fault targets against the topology, so
    // take a link that actually exists: node 0 and its first neighbor.
    let outage_peer = scenario(seed, 0.4)
        .topology
        .neighbors(NodeId(0))
        .next()
        .expect("node 0 has a neighbor");
    let mut faults = FaultSchedule::new();
    faults.crash_at(dde_logic::time::SimTime::from_secs(10), NodeId(2));
    faults.recover_at(dde_logic::time::SimTime::from_secs(40), NodeId(2));
    faults.link_down_at(
        dde_logic::time::SimTime::from_secs(15),
        NodeId(0),
        outage_peer,
    );
    faults.link_up_at(
        dde_logic::time::SimTime::from_secs(60),
        NodeId(0),
        outage_peer,
    );
    let mut baseline: Option<CostLedger> = None;
    for threads in [1, 4] {
        let (report, trace) = sharded_observed_run(seed, threads, faults.clone());
        check_conservation(&report, &trace)
            .unwrap_or_else(|e| panic!("conservation failed at {threads} threads: {e}"));
        let ledger = report.ledger.clone().expect("observed runs carry a ledger");
        if let Some(base) = &baseline {
            assert_eq!(base, &ledger, "faulted ledger differs at {threads} threads");
        } else {
            baseline = Some(ledger);
        }
    }
}

/// Two same-seed runs must produce byte-identical attribution JSON — the
/// property `dde-trace attribute --json` inherits, since it renders
/// exactly this document from the trace.
#[test]
fn same_seed_attribution_json_is_byte_identical() {
    let run = || {
        let (_, trace) = observed_run(9, 0.4, Strategy::LvfLabelShare, FaultSchedule::new());
        CostLedger::from_jsonl(&trace)
            .expect("trace parses")
            .to_json_value()
            .to_pretty_string()
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert_eq!(a, b, "same-seed attribution documents must be identical");
}

/// The ledger actually attributes work in a small scenario: queries exist,
/// bytes are charged, and resolved queries carry critical paths.
#[test]
fn ledger_attributes_real_work() {
    let (report, _) = observed_run(3, 0.4, Strategy::Lvf, FaultSchedule::new());
    let ledger = report.ledger.as_ref().expect("ledger");
    assert!(!ledger.queries.is_empty(), "queries should be charged");
    assert!(ledger.attributed_bytes() > 0, "bytes should be attributed");
    assert!(
        report.cost_per_decision().is_some(),
        "cost per decision should be available"
    );
    let resolved_with_path = ledger
        .queries
        .values()
        .filter(|c| c.latency_us.is_some() && c.path().total_us() > 0)
        .count();
    assert!(
        resolved_with_path > 0,
        "resolved queries should carry non-trivial critical paths"
    );
}
