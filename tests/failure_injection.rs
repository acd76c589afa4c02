//! Failure injection: lossy links, dead nodes, lying annotators, stale
//! caches. The system should degrade, not wedge, and report honestly.

use dde_core::annotate::{LyingAnnotator, NoisyAnnotator};
use dde_core::prelude::*;
use dde_logic::time::SimTime;
use dde_netsim::fault::FaultSchedule;
use dde_netsim::topology::{LinkSpec, NodeId, Topology};
use dde_workload::prelude::*;
use std::sync::Arc;

fn scenario(seed: u64) -> Scenario {
    Scenario::build(ScenarioConfig::small().with_seed(seed).with_fast_ratio(0.4))
}

/// Rebuilds the scenario's topology with the given loss on every link.
fn with_loss(mut s: Scenario, loss: f64) -> Scenario {
    let old = s.topology.clone();
    let mut lossy = Topology::new(old.len());
    for a in old.nodes() {
        for b in old.nodes() {
            if a < b && old.has_link(a, b) {
                let spec = old.link(a, b).expect("adjacent");
                lossy.add_link(a, b, LinkSpec { loss, ..spec });
            }
        }
    }
    lossy.rebuild_routes();
    s.topology = lossy;
    s
}

#[test]
fn lossy_links_degrade_but_do_not_wedge() {
    let clean = run_scenario(&scenario(1), RunOptions::new(Strategy::Lvf));
    let lossy = run_scenario(&with_loss(scenario(1), 0.3), RunOptions::new(Strategy::Lvf));
    // Everything still terminates and is accounted for.
    assert_eq!(lossy.resolved + lossy.missed, lossy.total_queries);
    // Loss can only hurt.
    assert!(lossy.resolved <= clean.resolved);
    // Retries keep some queries alive even at 30% loss.
    assert!(
        lossy.resolved > 0,
        "30% loss should not zero out resolution"
    );
}

#[test]
fn total_loss_resolves_only_local_queries() {
    let r = run_scenario(&with_loss(scenario(2), 1.0), RunOptions::new(Strategy::Lvf));
    assert_eq!(r.resolved + r.missed, r.total_queries);
    // Every message on the medium was lost, so no query can have learned a
    // label from the network; remote evidence being unreachable must show
    // up as deadline misses.
    assert!(r.missed > 0, "a fully-lossy network should cause misses");
}

#[test]
fn dead_source_node_causes_misses_not_hangs() {
    let s = scenario(3);
    let mut config = RunOptions::new(Strategy::Lvf);
    config.seed = 3;
    // Kill the node hosting the most objects.
    let mut counts = vec![0usize; s.topology.len()];
    for o in s.catalog.objects() {
        counts[o.source.index()] += 1;
    }
    let victim = NodeId(
        counts
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .map(|(i, _)| i)
            .expect("nodes exist"),
    );

    // Run with the node down from the start via a custom engine invocation:
    // reuse run_scenario but mark the node down through the simulator is not
    // exposed, so emulate by removing its links from the topology instead.
    let old = s.topology.clone();
    let mut cut = Topology::new(old.len());
    for a in old.nodes() {
        for b in old.nodes() {
            if a < b && old.has_link(a, b) && a != victim && b != victim {
                cut.add_link(a, b, old.link(a, b).expect("adjacent"));
            }
        }
    }
    cut.rebuild_routes();
    let mut s2 = s;
    s2.topology = cut;
    let r = run_scenario(&s2, config);
    assert_eq!(r.resolved + r.missed, r.total_queries);
}

#[test]
fn lying_annotator_destroys_accuracy_but_not_liveness() {
    let s = scenario(4);
    let mut opts = RunOptions::new(Strategy::Lvf);
    opts.annotator = Arc::new(LyingAnnotator);
    let r = run_scenario(&s, opts);
    assert_eq!(r.resolved + r.missed, r.total_queries);
    assert!(r.resolved > 0);
    // With inverted labels, decisions are mostly wrong.
    assert!(
        r.accuracy() < 0.5,
        "lying annotator produced accuracy {:.2}",
        r.accuracy()
    );
}

#[test]
fn noisy_annotator_degrades_accuracy_smoothly() {
    let s = scenario(5);
    let clean = run_scenario(&s, RunOptions::new(Strategy::Lvf));
    let mut opts = RunOptions::new(Strategy::Lvf);
    opts.annotator = Arc::new(NoisyAnnotator::new(1, 0.2));
    let noisy = run_scenario(&s, opts);
    assert_eq!(clean.accuracy(), 1.0);
    assert!(noisy.accuracy() < 1.0, "20% flips should cause some errors");
    assert!(
        noisy.accuracy() > 0.3,
        "20% flips should not destroy everything: {:.2}",
        noisy.accuracy()
    );
}

/// Node hosting the most catalog objects — the highest-impact crash victim.
fn busiest_source(s: &Scenario) -> NodeId {
    let mut counts = vec![0usize; s.topology.len()];
    for o in s.catalog.objects() {
        counts[o.source.index()] += 1;
    }
    NodeId(
        counts
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .map(|(i, _)| i)
            .expect("nodes exist"),
    )
}

#[test]
fn crashed_evidence_source_mid_transfer_degrades_not_wedges() {
    let s = scenario(7);
    let victim = busiest_source(&s);
    let mut options = RunOptions::new(Strategy::Lvf);
    // Crash while the first wave of fetches is in flight; recover late
    // enough that stalled queries must ride through the retry path.
    options.faults.crash_at(SimTime::from_secs(2), victim);
    options.faults.recover_at(SimTime::from_secs(70), victim);
    let r = run_scenario(&s, options);
    assert_eq!(
        r.resolved + r.missed,
        r.total_queries,
        "query lost by crash"
    );
    assert_eq!(r.fault_events, 2);
    assert!(
        r.resolved > 0,
        "one crashed source must not zero out resolution"
    );
    // The schedule is part of the options, so the same run replays exactly.
    let mut options2 = RunOptions::new(Strategy::Lvf);
    options2.faults.crash_at(SimTime::from_secs(2), victim);
    options2.faults.recover_at(SimTime::from_secs(70), victim);
    assert_eq!(r, run_scenario(&s, options2));
}

#[test]
fn crashed_query_origin_still_accounts_every_query() {
    let s = scenario(8);
    let origin = s.queries.first().expect("queries exist").origin;
    let mut options = RunOptions::new(Strategy::Lvf);
    // The origin dies shortly into its own query and never comes back:
    // its queries must show up as misses (or earlier decisions), never
    // vanish from the report.
    options.faults.crash_at(SimTime::from_secs(3), origin);
    let r = run_scenario(&s, options);
    assert_eq!(r.resolved + r.missed, r.total_queries);
    assert_eq!(
        r.queries.len(),
        r.total_queries,
        "per-query records must survive an origin crash"
    );
}

#[test]
fn full_partition_healed_before_deadline_degrades_gracefully() {
    let s = scenario(9);
    // Split the network in half at 5 s, heal it at 60 s — well inside the
    // 180 s deadlines, so retries can finish the job after the heal.
    let side: Vec<NodeId> = (0..s.topology.len() / 2).map(NodeId).collect();
    let mut options = RunOptions::new(Strategy::Lvf);
    options
        .faults
        .merge(&FaultSchedule::partition_at(
            &s.topology,
            SimTime::from_secs(5),
            &side,
        ))
        .merge(&FaultSchedule::heal_partition_at(
            &s.topology,
            SimTime::from_secs(60),
            &side,
        ));
    let r = run_scenario(&s, options);
    assert_eq!(r.resolved + r.missed, r.total_queries);
    assert!(
        r.resolved > 0,
        "a healed partition must leave time to resolve queries"
    );
    let clean = run_scenario(&s, RunOptions::new(Strategy::Lvf));
    assert!(
        r.total_bytes > 0 && r.resolved <= clean.resolved,
        "a partition can only hurt resolution ({} vs {})",
        r.resolved,
        clean.resolved
    );
}

#[test]
fn crash_wipes_cache_knob_changes_recovery_but_not_accounting() {
    let s = scenario(10);
    let victim = busiest_source(&s);
    let mut keep = RunOptions::new(Strategy::LvfLabelShare);
    keep.faults.crash_at(SimTime::from_secs(2), victim);
    keep.faults.recover_at(SimTime::from_secs(20), victim);
    let mut wipe = keep.clone();
    wipe.crash_wipes_cache = true;
    let r_keep = run_scenario(&s, keep);
    let r_wipe = run_scenario(&s, wipe);
    assert_eq!(r_keep.resolved + r_keep.missed, r_keep.total_queries);
    assert_eq!(r_wipe.resolved + r_wipe.missed, r_wipe.total_queries);
}

#[test]
fn tiny_caches_still_function() {
    let s = scenario(6);
    let mut small_cache = RunOptions::new(Strategy::LvfLabelShare);
    small_cache.cache_capacity = 1_200_000; // barely above max object size
    let r = run_scenario(&s, small_cache);
    assert_eq!(r.resolved + r.missed, r.total_queries);
    assert!(r.resolved > 0, "tiny caches must not deadlock the system");
    // Tiny caches change which requests hit where — traffic may shift a
    // little in either direction — but must stay within sane bounds of the
    // generously-cached run.
    let generous = run_scenario(&s, RunOptions::new(Strategy::LvfLabelShare));
    assert!(
        r.total_bytes as f64 >= generous.total_bytes as f64 * 0.8,
        "tiny caches should not magically save traffic: {} vs {}",
        r.total_bytes,
        generous.total_bytes
    );
}
