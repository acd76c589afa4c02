//! Per-layer measurements, all taken from outside the crates: a counting
//! trace sink, and timed calls into each layer's public functions fed
//! with the traced run's own inputs.

use dde_core::{AthenaMsg, EvidenceObject, QueryId, RequestKind, Strategy};
use dde_logic::meta::{ConditionMeta, Cost, MetaTable, Probability};
use dde_logic::time::{SimDuration, SimTime};
use dde_naming::{ContentStore, Fib, Name};
use dde_netsim::{Context, MediumMode, NodeId, Protocol, ShardedSimulator, WireMessage};
use dde_obs::{EventKind, Sink, TraceRecord};
use dde_sched::shortcircuit::plan_dnf;
use dde_workload::Scenario;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The message kinds the Athena protocol puts on links.
pub const KINDS: [&str; 4] = ["announce", "request", "data", "label"];

/// One link transmission of the traced run.
#[derive(Debug, Clone)]
pub struct Transmit {
    /// When it started clocking onto the link.
    pub at: SimTime,
    /// Sending node.
    pub from: NodeId,
    /// Receiving neighbor.
    pub to: NodeId,
    /// Message kind tag.
    pub kind: &'static str,
    /// Bytes on the wire.
    pub bytes: u64,
    /// Whether it rode in the background queue.
    pub background: bool,
}

/// One content-store access of the traced run, on one node.
#[derive(Debug, Clone)]
pub enum StoreOp {
    /// `cache-store`: the node cached an object.
    Insert {
        /// Object name.
        name: String,
        /// Object size.
        bytes: u64,
        /// Validity of the sample.
        validity: SimDuration,
    },
    /// `cache-hit` or `cache-miss`: the node looked an object up.
    Get {
        /// Object name.
        name: String,
    },
}

/// Counts and streams folded from one traced run. Only counts and
/// inputs are taken from the trace, never timings: the sharded engine
/// hands records over per barrier window, so their arrival time says
/// nothing about when a handler ran.
#[derive(Debug, Default)]
pub struct LayerSink {
    /// Records seen.
    pub records: u64,
    /// Transmissions in trace order.
    pub transmits: Vec<Transmit>,
    /// `drop` records.
    pub drops: u64,
    /// `loss` records.
    pub losses: u64,
    /// Messages purged, summed over `purge` records.
    pub purges: u64,
    /// `plan` records.
    pub plans: u64,
    /// `admission` records.
    pub admission_verdicts: u64,
    /// `fetch-timeout` records.
    pub fetch_timeouts: u64,
    /// `request-send` records.
    pub request_sends: u64,
    /// `label-share` records.
    pub label_shares: u64,
    /// `cache-hit` records.
    pub cache_hits: u64,
    /// `cache-miss` records.
    pub cache_misses: u64,
    /// Content-store accesses per node, in trace order.
    pub store_ops: BTreeMap<u32, Vec<(SimTime, StoreOp)>>,
    /// Names of every `request-send`, in trace order.
    pub requested: Vec<String>,
}

impl Sink for LayerSink {
    fn record(&mut self, rec: &TraceRecord) {
        self.records += 1;
        match &rec.kind {
            EventKind::Transmit {
                from,
                to,
                msg,
                bytes,
                background,
                ..
            } => self.transmits.push(Transmit {
                at: rec.at,
                from: NodeId(*from as usize),
                to: NodeId(*to as usize),
                kind: msg,
                bytes: *bytes,
                background: *background,
            }),
            EventKind::Drop { .. } => self.drops += 1,
            EventKind::Loss { .. } => self.losses += 1,
            EventKind::Purge { count, .. } => self.purges += count,
            EventKind::Plan { .. } => self.plans += 1,
            EventKind::Admission { .. } => self.admission_verdicts += 1,
            EventKind::FetchTimeout { .. } => self.fetch_timeouts += 1,
            EventKind::RequestSend { name, .. } => {
                self.request_sends += 1;
                self.requested.push(name.clone());
            }
            EventKind::LabelShare { .. } => self.label_shares += 1,
            EventKind::CacheHit { name, .. } => {
                self.cache_hits += 1;
                self.store_ops
                    .entry(rec.node)
                    .or_default()
                    .push((rec.at, StoreOp::Get { name: name.clone() }));
            }
            EventKind::CacheMiss { name, .. } => {
                self.cache_misses += 1;
                self.store_ops
                    .entry(rec.node)
                    .or_default()
                    .push((rec.at, StoreOp::Get { name: name.clone() }));
            }
            EventKind::CacheStore {
                name,
                bytes,
                validity_us,
                ..
            } => self.store_ops.entry(rec.node).or_default().push((
                rec.at,
                StoreOp::Insert {
                    name: name.clone(),
                    bytes: *bytes,
                    validity: SimDuration::from_micros(*validity_us),
                },
            )),
            _ => {}
        }
    }
}

impl LayerSink {
    /// Transmissions and bytes of one message kind.
    pub fn tx(&self, kind: &str) -> (u64, u64) {
        self.transmits
            .iter()
            .filter(|t| t.kind == kind)
            .fold((0, 0), |(n, b), t| (n + 1, b + t.bytes))
    }
}

/// The wall clock. Timing is this program's purpose; every clock read
/// goes through here, so its one exemption from the workspace's
/// determinism lint sits in one place.
pub fn now() -> Instant {
    Instant::now() // lint: allow(nondeterminism) — wall-clock timing is what a benchmark measures
}

/// Median wall seconds of `reps` calls of `f`.
pub fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&samples)
}

/// Mean nanoseconds per call of `f` over `items`, repeating whole passes
/// until `budget` has elapsed. `None` when there are no items.
fn ns_per_item<T>(items: &[T], budget: Duration, mut f: impl FnMut(&T)) -> Option<f64> {
    if items.is_empty() {
        return None;
    }
    let start = now();
    let mut calls = 0u64;
    while calls == 0 || start.elapsed() < budget {
        for item in items {
            f(black_box(item));
        }
        calls += items.len() as u64;
    }
    Some(start.elapsed().as_nanos() as f64 / calls as f64)
}

/// A replayed transmission: only its size and kind reach the engine.
#[derive(Debug, Clone)]
struct ReplayMsg {
    kind: &'static str,
    bytes: u64,
    background: bool,
}

impl WireMessage for ReplayMsg {
    fn wire_size(&self) -> u64 {
        self.bytes
    }
    fn kind(&self) -> &'static str {
        self.kind
    }
    fn background(&self) -> bool {
        self.background
    }
}

/// A protocol that does nothing but send what it is told to: the engine
/// runs the traced transmit schedule with no protocol work on top.
#[derive(Debug, Default)]
struct Replayer;

impl Protocol for Replayer {
    type Msg = ReplayMsg;
    type Ext = (NodeId, ReplayMsg);

    fn on_message(&mut self, _ctx: &mut Context<'_, ReplayMsg>, _from: NodeId, _msg: ReplayMsg) {}

    fn on_external(&mut self, ctx: &mut Context<'_, ReplayMsg>, (to, msg): (NodeId, ReplayMsg)) {
        ctx.send(to, msg);
    }
}

/// Replays `transmits` through the sharded engine at `threads` and
/// returns how many messages the engine sent.
pub fn replay_engine(
    scenario: &Scenario,
    transmits: &[Transmit],
    medium: MediumMode,
    threads: usize,
    seed: u64,
) -> u64 {
    let nodes = (0..scenario.topology.len()).map(|_| Replayer).collect();
    let mut sim = ShardedSimulator::new(scenario.topology.clone(), nodes, seed, threads);
    sim.set_medium(medium);
    for t in transmits {
        let msg = ReplayMsg {
            kind: t.kind,
            bytes: t.bytes,
            background: t.background,
        };
        sim.schedule_external(t.at, t.from, (t.to, msg));
    }
    sim.run();
    sim.metrics().messages_sent
}

/// The static planner metadata a node builds for `expr` at `origin`:
/// cheapest-provider cost, most conservative validity, and the
/// scenario's truth prior.
fn plan_meta(scenario: &Scenario, expr: &dde_logic::dnf::Dnf, origin: NodeId) -> MetaTable {
    let catalog = &scenario.catalog;
    let topology = &scenario.topology;
    expr.labels()
        .into_iter()
        .map(|l| {
            let providers = catalog.providers_of(&l);
            let cost = providers
                .iter()
                .map(|&i| Strategy::effective_cost(i, catalog, origin, topology))
                .min()
                .unwrap_or(0);
            let validity = providers
                .iter()
                .map(|&i| catalog.get(i).validity)
                .min()
                .unwrap_or(SimDuration::MAX);
            let meta = ConditionMeta::new(Cost::from_bytes(cost), validity)
                .with_prob(Probability::clamped(scenario.config.prob_viable));
            (l, meta)
        })
        .collect()
}

/// Nanoseconds per `Strategy::candidates` and per `plan_dnf` call over
/// every query of the scenario.
pub fn time_planners(scenario: &Scenario, strategy: Strategy, budget: Duration) -> (f64, f64) {
    let queries: Vec<_> = scenario
        .queries
        .iter()
        .map(|q| {
            (
                q.expr.labels(),
                q.origin,
                &q.expr,
                plan_meta(scenario, &q.expr, q.origin),
            )
        })
        .collect();
    let candidates = ns_per_item(&queries, budget, |(labels, origin, _, _)| {
        black_box(strategy.candidates(labels, &scenario.catalog, *origin, &scenario.topology));
    });
    let plans = ns_per_item(&queries, budget, |(_, _, expr, meta)| {
        black_box(plan_dnf(expr, meta));
    });
    (candidates.unwrap_or(0.0), plans.unwrap_or(0.0))
}

/// Content-store replay result.
#[derive(Debug, Default, Clone, Copy)]
pub struct StoreReplay {
    /// Mean ns per insert (each call timed on its own).
    pub insert_ns: f64,
    /// Mean ns per lookup.
    pub get_ns: f64,
    /// Evictions over one replay, summed over nodes.
    pub evictions: u64,
}

/// Replays each node's traced store accesses, in trace order, into a
/// fresh `ContentStore` of `capacity` bytes, repeating whole replays
/// until `budget` has elapsed. Each call is timed on its own, so the
/// figures include one clock read.
pub fn replay_store(sink: &LayerSink, capacity: u64, budget: Duration) -> StoreReplay {
    type Ops = Vec<(SimTime, ParsedOp)>;
    enum ParsedOp {
        Insert(Name, u64, SimDuration),
        Get(Name),
    }
    let parse = |name: &str| -> Name { name.parse().expect("traced names are valid names") };
    let per_node: Vec<Ops> = sink
        .store_ops
        .values()
        .map(|ops| {
            ops.iter()
                .map(|(at, op)| {
                    let op = match op {
                        StoreOp::Insert {
                            name,
                            bytes,
                            validity,
                        } => ParsedOp::Insert(parse(name), *bytes, *validity),
                        StoreOp::Get { name } => ParsedOp::Get(parse(name)),
                    };
                    (*at, op)
                })
                .collect()
        })
        .collect();

    let (mut insert_t, mut inserts, mut get_t, mut gets) =
        (Duration::ZERO, 0u64, Duration::ZERO, 0u64);
    let mut evictions = None;
    let start = now();
    loop {
        let mut pass_evictions = 0;
        for ops in &per_node {
            let mut store: ContentStore<()> = ContentStore::new(capacity);
            for (at, op) in ops {
                let t = now();
                match op {
                    ParsedOp::Insert(name, bytes, validity) => {
                        black_box(store.insert(name, (), *bytes, *at, *validity));
                        insert_t += t.elapsed();
                        inserts += 1;
                    }
                    ParsedOp::Get(name) => {
                        black_box(store.get_fresh(name, *at).is_some());
                        get_t += t.elapsed();
                        gets += 1;
                    }
                }
            }
            pass_evictions += store.evictions;
        }
        evictions.get_or_insert(pass_evictions);
        if start.elapsed() >= budget || inserts + gets == 0 {
            break;
        }
    }
    let per = |t: Duration, n: u64| {
        if n == 0 {
            0.0
        } else {
            t.as_nanos() as f64 / n as f64
        }
    };
    StoreReplay {
        insert_ns: per(insert_t, inserts),
        get_ns: per(get_t, gets),
        evictions: evictions.unwrap_or(0),
    }
}

/// A FIB with one route per catalog object: its name, toward its source.
pub fn catalog_fib(scenario: &Scenario) -> Fib<NodeId> {
    let mut fib = Fib::new();
    for obj in scenario.catalog.objects() {
        fib.advertise(&obj.name, obj.source);
    }
    fib
}

/// Every traced `request-send` name, parsed.
pub fn requested_names(sink: &LayerSink) -> Vec<Name> {
    sink.requested
        .iter()
        .map(|n| n.parse().expect("traced names are valid names"))
        .collect()
}

/// How many of `names` the FIB has no route for.
pub fn fib_misses(fib: &Fib<NodeId>, names: &[Name]) -> usize {
    names.iter().filter(|n| fib.lookup(n).is_none()).count()
}

/// Nanoseconds per `Fib::lookup` over `names`.
pub fn time_fib(fib: &Fib<NodeId>, names: &[Name], budget: Duration) -> f64 {
    ns_per_item(names, budget, |name| {
        black_box(fib.lookup(name));
    })
    .unwrap_or(0.0)
}

/// One protocol message per kind per query, built from the scenario's
/// queries and catalog the way the protocol fills them in.
pub fn sample_messages(scenario: &Scenario) -> BTreeMap<&'static str, Vec<AthenaMsg>> {
    let mut out: BTreeMap<&'static str, Vec<AthenaMsg>> = BTreeMap::new();
    for q in &scenario.queries {
        let qid = QueryId(q.id);
        let labels = q.expr.labels();
        out.entry("announce")
            .or_default()
            .push(AthenaMsg::QueryAnnounce {
                qid,
                origin: q.origin,
                expr: q.expr.clone(),
                deadline_at: q.issue_at + q.deadline,
            });
        let Some(&idx) = labels
            .iter()
            .find_map(|l| scenario.catalog.providers_of(l).first())
        else {
            continue;
        };
        let spec = scenario.catalog.get(idx);
        out.entry("request").or_default().push(AthenaMsg::Request {
            name: spec.name.clone(),
            wanted: spec.covers.clone(),
            qid,
            origin: q.origin,
            kind: RequestKind::Fetch,
        });
        let object = EvidenceObject::sample(spec, q.issue_at);
        out.entry("label").or_default().push(AthenaMsg::LabelShare {
            label: spec.covers[0].clone(),
            value: true,
            sampled_at: q.issue_at,
            validity: spec.validity,
            annotator: spec.source,
            based_on: spec.name.clone(),
            for_query: Some(qid),
        });
        out.entry("data").or_default().push(AthenaMsg::Data {
            object,
            push_to: None,
            for_query: Some(qid),
        });
    }
    out
}

/// Wire-codec cost, weighted by how often each kind crossed a link.
#[derive(Debug, Default, Clone, Copy)]
pub struct CodecCost {
    /// Mean ns per `encode`.
    pub encode_ns: f64,
    /// Mean ns per `decode`.
    pub decode_ns: f64,
    /// Mean encoded frame bytes.
    pub frame_bytes: f64,
}

/// Times `encode` and `decode` on each kind's sample messages and
/// weights the per-kind means by `weights` (traced transmit counts).
pub fn time_codec(
    samples: &BTreeMap<&'static str, Vec<AthenaMsg>>,
    weights: &BTreeMap<&'static str, u64>,
    budget: Duration,
) -> CodecCost {
    let mut cost = CodecCost::default();
    let mut total = 0u64;
    for (kind, msgs) in samples {
        let w = weights.get(kind).copied().unwrap_or(0);
        if w == 0 || msgs.is_empty() {
            continue;
        }
        let frames: Vec<Vec<u8>> = msgs
            .iter()
            .map(|m| dde_net::encode(m).expect("sample messages encode"))
            .collect();
        let enc = ns_per_item(msgs, budget, |m| {
            black_box(dde_net::encode(m).is_ok());
        })
        .unwrap_or(0.0);
        let dec = ns_per_item(&frames, budget, |f| {
            black_box(dde_net::decode(f).is_ok());
        })
        .unwrap_or(0.0);
        let bytes = frames.iter().map(|f| f.len() as f64).sum::<f64>() / frames.len() as f64;
        cost.encode_ns += enc * w as f64;
        cost.decode_ns += dec * w as f64;
        cost.frame_bytes += bytes * w as f64;
        total += w;
    }
    if total > 0 {
        let t = total as f64;
        cost.encode_ns /= t;
        cost.decode_ns /= t;
        cost.frame_bytes /= t;
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use dde_obs::SharedSink;

    fn traced(w: Workload, seed: u64) -> (Scenario, dde_core::RunOptions, LayerSink) {
        let scenario = w.build(seed);
        let options = w.options(seed);
        let sink = SharedSink::new(LayerSink::default());
        dde_core::run_scenario_sharded_observed(
            &scenario,
            options.clone(),
            1,
            Box::new(sink.clone()),
        );
        let layer = sink.with(std::mem::take);
        (scenario, options, layer)
    }

    #[test]
    fn fib_replay_routes_every_requested_name() {
        for w in [Workload::OverloadAdaptive, Workload::LiveChain] {
            let (scenario, _, sink) = traced(w, 3);
            assert!(!sink.requested.is_empty(), "{} requested nothing", w.name());
            let fib = catalog_fib(&scenario);
            assert_eq!(fib_misses(&fib, &requested_names(&sink)), 0, "{}", w.name());
        }
    }

    #[test]
    fn engine_replay_reproduces_traced_transmit_count() {
        for (w, threads) in [
            (Workload::OverloadAdaptive, 1),
            (Workload::OverloadAdaptive, 2),
        ] {
            let (scenario, options, sink) = traced(w, 5);
            assert!(!sink.transmits.is_empty());
            let sent = replay_engine(&scenario, &sink.transmits, options.medium, threads, 5);
            assert_eq!(sent, sink.transmits.len() as u64, "threads {threads}");
        }
    }
}
