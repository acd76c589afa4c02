//! Determinism guarantees of the `dde-obs` trace subsystem.
//!
//! The observability layer is keyed entirely to the simulated clock, so it
//! inherits the simulator's replayability: two runs from the same seed must
//! produce **byte-identical** JSONL traces, `dde-obs`'s structural differ
//! must report zero divergence on them, and attaching a sink must not
//! perturb the simulation itself (the null-sink report equals the
//! observed-run report).
//!
//! The `pinned_*` cases go one step further and hold the trace bytes of
//! five configurations to FNV-1a-64 digests recorded in this file. Between
//! them they reach every Athena protocol step (issue, relay, admission
//! defer/shed/ripen, crash recovery, prefetch and anticipation, local
//! sampling, approximate substitution, corroboration), so a refactor of
//! the node protocol that reorders a single trace record fails here. A
//! deliberate behaviour change re-pins the digest in the same commit.

use dde_core::prelude::*;
use dde_core::Strategy;
use dde_logic::time::SimDuration;
use dde_obs::{diff_jsonl, EventKind, JsonlSink, MemorySink, SharedSink};
use dde_sched::adaptive::{AdaptiveConfig, AdmissionPolicy};
use dde_workload::scenario::{Scenario, ScenarioConfig};
use proptest::prelude::*;

fn small_scenario(seed: u64) -> Scenario {
    Scenario::build(ScenarioConfig::small().with_seed(seed).with_fast_ratio(0.4))
}

fn options(seed: u64) -> RunOptions {
    let mut options = RunOptions::new(Strategy::LvfLabelShare);
    options.seed = seed ^ 0x5eed;
    options
}

/// Runs `scenario` with a JSONL sink into memory and returns the trace
/// bytes plus the report.
fn observed_trace(scenario: &Scenario, options: RunOptions) -> (Vec<u8>, RunReport) {
    let sink = SharedSink::new(JsonlSink::new(Vec::new()));
    let handle = sink.clone();
    let report = run_scenario_observed(scenario, options, Box::new(sink));
    (handle.with(|j| j.get_ref().clone()), report)
}

/// Runs the small scenario with a JSONL sink into memory and returns the
/// bytes.
fn jsonl_trace(seed: u64) -> Vec<u8> {
    observed_trace(&small_scenario(seed), options(seed)).0
}

/// FNV-1a, 64-bit: a dependency-free digest for pinning trace bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn assert_pinned(case: &str, trace: &[u8], pinned: u64) {
    let digest = fnv1a64(trace);
    assert_eq!(
        digest,
        pinned,
        "{case}: trace digest {digest:#018x} (pinned {pinned:#018x}, {} bytes)",
        trace.len()
    );
}

#[test]
fn fnv1a64_matches_reference_vectors() {
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
}

#[test]
fn pinned_lvfl_small_trace() {
    // Issue, relay, fetch, label sharing and co-located sampling.
    let seed = 7;
    let (trace, report) = observed_trace(&small_scenario(seed), options(seed));
    assert!(report.local_samples > 0, "no local sample ran");
    assert_pinned("lvfl small", &trace, 0xcf16_8802_809d_ec12);
}

#[test]
fn pinned_churn_trace() {
    // Crash recovery wipes volatile state and re-announces open queries.
    let seed = 13;
    let scenario = Scenario::build(
        ScenarioConfig::small()
            .with_seed(seed)
            .with_fast_ratio(0.4)
            .with_churn(0.5),
    );
    let (trace, report) = observed_trace(&scenario, options(seed));
    assert!(report.fault_events > 0, "no fault fired");
    assert_pinned("churn", &trace, 0x3ef1_8b35_8536_c6d1);
}

#[test]
fn pinned_overload_admission_trace() {
    // The admission gate defers, sheds, and admits deferred queries once
    // their re-evaluation time ripens.
    let seed = 11;
    let scenario = Scenario::build(ScenarioConfig::overload().with_seed(seed));
    let mut opts = RunOptions::new(Strategy::Lvf);
    opts.seed = seed ^ 0xada;
    opts.adaptive = Some(AdaptiveConfig {
        admission: Some(AdmissionPolicy::default()),
        ..AdaptiveConfig::default()
    });
    opts.medium = dde_netsim::MediumMode::HalfDuplexTx;
    let (trace, report) = observed_trace(&scenario, opts);
    assert!(report.admission_deferred > 0, "no query was deferred");
    assert!(report.admission_shed > 0, "no query was shed");
    let text = std::str::from_utf8(&trace).expect("trace is UTF-8");
    let mut deferred = std::collections::BTreeSet::new();
    let mut ripened = 0;
    for line in text.lines().filter(|l| l.contains(r#""kind":"admission""#)) {
        let query = line
            .split(r#""query":"#)
            .nth(1)
            .and_then(|r| r.split(',').next());
        if line.contains(r#""verdict":"defer""#) {
            deferred.insert(query);
        } else if line.contains(r#""verdict":"admit""#) && deferred.contains(&query) {
            ripened += 1;
        }
    }
    assert!(ripened > 0, "no deferred query was admitted later");
    assert_pinned("overload admission", &trace, 0xacaf_74cc_ae65_55d9);
}

#[test]
fn pinned_prefetch_anticipation_trace() {
    // Announce-only floods ahead of issue, relayed announces queue source
    // pushes, and pushes travel toward the origin.
    let seed = 21;
    let mut cfg = ScenarioConfig::small().with_seed(seed).with_fast_ratio(0.2);
    cfg.issue_offset = SimDuration::from_secs(60);
    let mut opts = options(seed);
    opts.prefetch = Some(true);
    opts.announce_lead = Some(SimDuration::from_secs(45));
    let (trace, report) = observed_trace(&Scenario::build(cfg), opts);
    assert!(report.prefetch_pushes > 0, "no prefetch push ran");
    assert_pinned("prefetch anticipation", &trace, 0xdc53_ad11_92bd_1316);
}

#[test]
fn pinned_approx_corroboration_trace() {
    // Approximate substitution serves same-segment views; corroboration
    // holds votes until two distinct sources agree. The redundancy-heavy
    // cmp strategy is where requesters disagree about providers, so it is
    // the one that hits sibling views on the small band.
    let seed = 2;
    let scenario = Scenario::build(ScenarioConfig::small().with_seed(seed).with_fast_ratio(0.2));
    let mut opts = RunOptions::new(Strategy::Comprehensive);
    opts.seed = seed ^ 0x5eed;
    opts.approx_min_shared = Some(3);
    opts.corroboration = 2;
    let (trace, report) = observed_trace(&scenario, opts);
    assert!(report.approx_hits > 0, "no approximate substitute served");
    assert_pinned("approx corroboration", &trace, 0xc3ba_b006_7e01_caae);
}

#[test]
fn same_seed_traces_are_byte_identical() {
    let a = jsonl_trace(7);
    let b = jsonl_trace(7);
    assert!(!a.is_empty(), "trace should capture events");
    assert_eq!(a, b, "same-seed runs must serialize identical traces");
}

#[test]
fn self_diff_reports_zero_divergence() {
    let a = String::from_utf8(jsonl_trace(11)).expect("trace is UTF-8");
    let b = String::from_utf8(jsonl_trace(11)).expect("trace is UTF-8");
    let diff = diff_jsonl(&a, &b);
    assert!(diff.is_identical(), "diff found: {}", diff.render());
    assert!(diff.divergence.is_none());
}

#[test]
fn different_seeds_diverge() {
    let a = String::from_utf8(jsonl_trace(7)).expect("trace is UTF-8");
    let b = String::from_utf8(jsonl_trace(8)).expect("trace is UTF-8");
    let diff = diff_jsonl(&a, &b);
    assert!(
        !diff.is_identical(),
        "different seeds should produce different traces"
    );
}

#[test]
fn sink_does_not_perturb_the_simulation() {
    let seed = 5;
    let baseline = run_scenario(&small_scenario(seed), options(seed));
    let sink = SharedSink::new(MemorySink::new());
    let mut observed = run_scenario_observed(&small_scenario(seed), options(seed), Box::new(sink));
    // Observed runs additionally carry the cost ledger; everything the
    // simulation itself computed must be identical.
    let ledger = observed
        .ledger
        .take()
        .expect("observed runs carry a ledger");
    assert!(ledger.conserves(), "ledger must conserve byte/msg totals");
    assert_eq!(
        baseline, observed,
        "attaching a sink must not change the RunReport"
    );
}

#[test]
fn trace_covers_the_query_lifecycle() {
    let seed = 5;
    let sink = SharedSink::new(MemorySink::new());
    let handle = sink.clone();
    let report = run_scenario_observed(&small_scenario(seed), options(seed), Box::new(sink));
    let events = handle.with(|m| m.events().to_vec());
    let count = |pred: &dyn Fn(&EventKind) -> bool| events.iter().filter(|r| pred(&r.kind)).count();
    let inits = count(&|k| matches!(k, EventKind::QueryInit { .. }));
    let plans = count(&|k| matches!(k, EventKind::Plan { .. }));
    let finals = count(&|k| {
        matches!(
            k,
            EventKind::QueryResolved { .. } | EventKind::QueryMissed { .. }
        )
    });
    assert_eq!(inits, report.total_queries, "one init per local query");
    assert_eq!(plans, report.total_queries, "one plan per local query");
    assert_eq!(
        finals, report.total_queries,
        "every query emits exactly one terminal event"
    );
    let transmits = count(&|k| matches!(k, EventKind::Transmit { .. }));
    assert!(transmits > 0, "link layer should be instrumented");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Per-node event timestamps never go backwards: the sink records
    /// events in simulator dispatch order, which is time-ordered.
    #[test]
    fn per_node_timestamps_are_monotone(seed in 1u64..500) {
        let scenario = small_scenario(seed);
        let sink = SharedSink::new(MemorySink::new());
        let handle = sink.clone();
        let _ = run_scenario_observed(&scenario, options(seed), Box::new(sink));
        let events = handle.with(|m| m.events().to_vec());
        prop_assert!(!events.is_empty());
        let mut last = std::collections::BTreeMap::new();
        for rec in &events {
            let prev = last.insert(rec.node, rec.at);
            if let Some(prev) = prev {
                prop_assert!(
                    rec.at >= prev,
                    "node {} went backwards: {:?} after {:?}",
                    rec.node, rec.at, prev
                );
            }
        }
    }
}
