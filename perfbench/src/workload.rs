//! The benchmark's workloads: how each builds its inputs from the seed,
//! which engine or cluster call runs it, and what a correct run is.

use dde_core::{run_scenario_sharded, RunOptions, RunReport, Strategy};
use dde_logic::dnf::{Dnf, Term};
use dde_logic::label::Label;
use dde_logic::time::{SimDuration, SimTime};
use dde_net::{run_cluster_tcp_observed, ClusterConfig, ClusterOutcome, DesTransport};
use dde_netsim::{FaultSchedule, LinkSpec, MediumMode, NodeId, Topology};
use dde_obs::NullSink;
use dde_sched::adaptive::{AdaptiveConfig, AdmissionPolicy};
use dde_workload::{
    Catalog, DynamicsClass, ObjectSpec, QueryInstance, RoadGrid, Scenario, ScenarioConfig,
    WorldModel,
};

/// Scenarios per invocation. Event counts, outcomes and latency tails
/// differ far more from scenario to scenario than host noise moves a
/// run, so each invocation measures a batch of scenarios drawn from its
/// seed.
const BATCH: usize = 12;
/// Rounds of the overload burst in `overload-adaptive`.
const OVERLOAD_ROUNDS: usize = 40;
/// Spacing of those rounds: longer than the 45 s deadline, so round k's
/// queries are decided before round k+1 issues on the same origins.
const OVERLOAD_PERIOD_S: u64 = 60;
/// Per-node content-store capacity in `overload-adaptive`: small enough
/// that stores evict during the run.
const OVERLOAD_CACHE_BYTES: u64 = 2_000_000;
/// Queries in one `live-chain` run, one per virtual second.
const LIVE_QUERIES: usize = 300;
/// Virtual microseconds per wall microsecond on `live-chain`: one query
/// per virtual second is about 1000 offered queries per wall second.
pub const LIVE_TIME_SCALE: u64 = 1000;
/// Nodes in the `live-chain` cluster.
const LIVE_NODES: usize = 3;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 60-node city band on the sharded engine at one thread.
    CityT1,
    /// Periodic overload bursts under churn with gated adaptive planning.
    OverloadAdaptive,
    /// An open loop on a loopback TCP cluster over a 3-node chain.
    LiveChain,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::CityT1,
        Workload::OverloadAdaptive,
        Workload::LiveChain,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CityT1 => "city-t1",
            Workload::OverloadAdaptive => "overload-adaptive",
            Workload::LiveChain => "live-chain",
        }
    }

    /// Parses a command-line workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Shard threads of the reference run every measured DES run must
    /// equal. On the city band it is 2, so every run also checks the
    /// engine's thread-count invariance; overload runs take several
    /// times longer on 2 threads, so their reference is a repeat on 1,
    /// which checks that a run leaves no state behind that changes the
    /// next one. Never more than 2, the smallest host this benchmark is
    /// meant for.
    pub fn reference_threads(self) -> usize {
        match self {
            Workload::CityT1 => 2,
            _ => 1,
        }
    }

    /// Whether the measured run goes through the live TCP cluster.
    pub fn is_live(self) -> bool {
        self == Workload::LiveChain
    }

    /// Builds the workload's scenario from `seed`: this is the set-up
    /// work `setup_s` times.
    pub fn build(self, seed: u64) -> Scenario {
        match self {
            Workload::CityT1 => {
                Scenario::build(ScenarioConfig::city().with_seed(seed).with_fast_ratio(0.4))
            }
            Workload::OverloadAdaptive => {
                Scenario::build(ScenarioConfig::overload().with_seed(seed).with_churn(0.1))
                    .with_periodic_queries(
                        SimDuration::from_secs(OVERLOAD_PERIOD_S),
                        OVERLOAD_ROUNDS,
                    )
            }
            Workload::LiveChain => live_chain_scenario(seed),
        }
    }

    /// The run options for `seed`.
    pub fn options(self, seed: u64) -> RunOptions {
        match self {
            Workload::CityT1 => {
                let mut o = RunOptions::new(Strategy::LvfLabelShare);
                o.seed = seed ^ 0x5eed;
                o
            }
            Workload::OverloadAdaptive => {
                let mut o = RunOptions::new(Strategy::Lvf);
                o.seed = seed ^ 0xada;
                o.adaptive = Some(gated_adaptive());
                // One shared transmitter per node, so the burst contends
                // for the medium.
                o.medium = MediumMode::HalfDuplexTx;
                o.cache_capacity = OVERLOAD_CACHE_BYTES;
                o
            }
            Workload::LiveChain => {
                let mut o = RunOptions::new(Strategy::Lvf);
                o.seed = seed;
                o
            }
        }
    }
}

/// The admission-gated adaptive configuration of the `adaptive` bench
/// binary's overload band: two 12 s deferrals, then admit or shed.
fn gated_adaptive() -> AdaptiveConfig {
    AdaptiveConfig {
        admission: Some(AdmissionPolicy {
            overload_bytes: 2_000_000,
            defer_for: SimDuration::from_secs(12),
            max_defers: 2,
            ..AdmissionPolicy::default()
        }),
        ..AdaptiveConfig::default()
    }
}

/// The live cluster's settings: health probes off, so the wire carries
/// only protocol frames.
pub fn live_config() -> ClusterConfig {
    ClusterConfig {
        time_scale: LIVE_TIME_SCALE,
        probe_wall_ms: None,
        flight_recorder_cap: 256,
    }
}

/// SplitMix64: a small seeded generator, so the benchmark's own inputs
/// need no dependency.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The scenario seeds of one invocation's batch.
pub fn batch_seeds(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix(seed);
    (0..BATCH).map(|_| rng.next()).collect()
}

/// A 3-node chain with one query per virtual second from node 0, each
/// over its own slow, always-true label served by its own object on
/// node 1 or 2. No two queries share a label or an object, and each
/// object takes under half a second per 1 Mbps hop, so no fetch waits on
/// another: decision outcomes and byte totals are a function of the
/// protocol alone and agree between the DES and the live cluster.
fn live_chain_scenario(seed: u64) -> Scenario {
    let mut rng = SplitMix(seed);
    let n = LIVE_NODES;
    let mut topology = Topology::new(n);
    for i in 0..n - 1 {
        topology.add_link(NodeId(i), NodeId(i + 1), LinkSpec::mbps1());
    }
    topology.rebuild_routes();

    let validity = SimDuration::from_secs(600);
    let mut world = WorldModel::new(seed);
    let mut catalog = Catalog::new();
    let mut queries = Vec::with_capacity(LIVE_QUERIES);
    for i in 0..LIVE_QUERIES {
        let label = Label::new(format!("l{i}"));
        world.register(label.clone(), DynamicsClass::Slow, validity, 1.0);
        let source = 1 + rng.below(n as u64 - 1) as usize;
        catalog.add(ObjectSpec {
            name: format!("/chain/l{i}/cam/n{source}")
                .parse()
                .expect("numeric name components are valid"),
            covers: vec![label.clone()],
            size: 20_000 + rng.below(40_000),
            source: NodeId(source),
            class: DynamicsClass::Slow,
            validity,
        });
        queries.push(QueryInstance {
            id: i as u64,
            origin: NodeId(0),
            expr: Dnf::from_terms(vec![Term::all_of([label])]),
            deadline: SimDuration::from_secs(60),
            issue_at: SimTime::from_secs(5 + i as u64),
        });
    }

    let grid = RoadGrid::new(2, n);
    let node_sites = grid.intersections().take(n).collect();
    Scenario {
        config: ScenarioConfig::small().with_seed(seed),
        grid,
        node_sites,
        topology,
        world,
        catalog,
        queries,
        faults: FaultSchedule::new(),
    }
}

/// The most queries any one node originates: the per-origin load that
/// `AthenaNode::advance_queries` walks on every event.
pub fn queries_per_origin_max(scenario: &Scenario) -> usize {
    let mut per = vec![0usize; scenario.topology.len()];
    for q in &scenario.queries {
        per[q.origin.index()] += 1;
    }
    per.into_iter().max().unwrap_or(0)
}

/// One measured DES run, on the sharded engine at one thread.
pub fn run_des(scenario: &Scenario, options: &RunOptions) -> RunReport {
    run_scenario_sharded(scenario, options.clone(), 1)
}

/// The reference a measured DES run must equal. Made before timing
/// starts, it also warms the process up.
pub fn des_reference(w: Workload, scenario: &Scenario, options: &RunOptions) -> RunReport {
    run_scenario_sharded(scenario, options.clone(), w.reference_threads())
}

/// The DES reference of a live run: the same scenario on the
/// simulator behind `DesTransport`.
pub fn live_reference(scenario: &Scenario, options: &RunOptions) -> RunReport {
    DesTransport::new(options.clone()).run(scenario)
}

/// One measured live run. An error is a failed run.
pub fn run_live(scenario: &Scenario, options: &RunOptions) -> Result<ClusterOutcome, String> {
    run_cluster_tcp_observed::<NullSink>(scenario, options, &live_config(), None)
        .map_err(|e| format!("cluster run failed: {e}"))
}

/// Internal consistency every report must show: each query counted
/// once, outcome tallies adding up, bytes adding up over kinds.
fn check_tallies(r: &RunReport) -> Result<(), String> {
    if r.resolved != r.viable + r.infeasible {
        return Err(format!(
            "resolved {} != viable {} + infeasible {}",
            r.resolved, r.viable, r.infeasible
        ));
    }
    // A query whose origin is down at its issue time is never issued,
    // so it has no record; every record is resolved or missed.
    if r.resolved + r.missed != r.queries.len() || r.queries.len() > r.total_queries {
        return Err(format!(
            "{} resolved + {} missed over {} records for {} queries",
            r.resolved,
            r.missed,
            r.queries.len(),
            r.total_queries
        ));
    }
    let by_kind: u64 = r.bytes_by_kind.values().sum();
    if by_kind != r.total_bytes {
        return Err(format!(
            "bytes by kind sum to {by_kind}, total is {}",
            r.total_bytes
        ));
    }
    Ok(())
}

/// A measured DES run is correct when it is internally consistent and
/// equals its reference in every field (outcome tallies, total bytes,
/// event count and every per-query record).
pub fn check_des(run: &RunReport, reference: &RunReport) -> Result<(), String> {
    check_tallies(run)?;
    if run != reference {
        return Err(format!(
            "report differs from reference: resolved {}/{}, bytes {}/{}, events {}/{}",
            run.resolved,
            reference.resolved,
            run.total_bytes,
            reference.total_bytes,
            run.events,
            reference.events
        ));
    }
    Ok(())
}

/// A live run is correct when it matches its DES reference on outcome
/// tallies and total bytes, and no frame failed to send or decode.
pub fn check_live(outcome: &ClusterOutcome, reference: &RunReport) -> Result<(), String> {
    let live = &outcome.report;
    check_tallies(live)?;
    let same = live.resolved == reference.resolved
        && live.viable == reference.viable
        && live.infeasible == reference.infeasible
        && live.missed == reference.missed
        && live.total_bytes == reference.total_bytes;
    if !same {
        return Err(format!(
            "live run diverged from DES: resolved {}/{}, viable {}/{}, missed {}/{}, bytes {}/{}",
            live.resolved,
            reference.resolved,
            live.viable,
            reference.viable,
            live.missed,
            reference.missed,
            live.total_bytes,
            reference.total_bytes
        ));
    }
    let counter = |name: &str| -> u64 {
        outcome
            .nodes
            .iter()
            .map(|n| n.snapshot.counter(name).unwrap_or(0))
            .sum()
    };
    let (send_errors, decode_errors) = (counter("host.send_errors"), counter("tcp.decode_errors"));
    if send_errors + decode_errors > 0 {
        return Err(format!(
            "{send_errors} send errors and {decode_errors} decode errors"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_chain_des_reference_decides_every_query() {
        for seed in [1, 2] {
            let w = Workload::LiveChain;
            let scenario = w.build(seed);
            let reference = live_reference(&scenario, &w.options(seed));
            assert_eq!(reference.total_queries, LIVE_QUERIES);
            assert_eq!(reference.resolved, LIVE_QUERIES, "seed {seed}");
            check_tallies(&reference).expect("consistent reference");
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("city"), None);
    }
}
