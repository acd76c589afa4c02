//! The Athena node protocol (§VI).
//!
//! Each node implements the paper's six functions over the simulated
//! network:
//!
//! - `Query_Init` / `Query_Recv` — [`Protocol::on_external`] creates local
//!   query state, floods the Boolean expression to neighbors, and starts the
//!   decision-driven (or baseline) retrieval loop; receivers of the flood
//!   may *prefetch* (source-side push, exactly the Fig. 1 pattern);
//! - `Request_Send` / `Request_Recv` — hop-by-hop object requests with a
//!   Pending Interest Table for duplicate suppression, served from caches
//!   when a fresh copy (or, under `lvfl`, a fresh trusted label) exists;
//! - `Data_Send` / `Data_Recv` — evidence flows back along interests,
//!   cached at every hop; at the query origin an annotator turns evidence
//!   into label values; under `lvfl` those labels are shared back toward the
//!   data source (§VI-D).

use crate::annotate::{Annotator, TrustPolicy};
use crate::msg::{AthenaMsg, QueryId, RequestKind};
use crate::object::EvidenceObject;
use crate::query::{Outstanding, QueryOutcome, QueryState, QueryStatus};
use crate::strategy::{Priors, Strategy};
use dde_logic::dnf::Dnf;
use dde_logic::label::Label;
use dde_logic::meta::{ConditionMeta, Cost, MetaTable, Probability};
use dde_logic::time::{SimDuration, SimTime};
use dde_naming::criticality::{Criticality, CriticalityMap};
use dde_naming::fib::Pit;
use dde_naming::name::Name;
use dde_naming::store::ContentStore;
use dde_netsim::sim::{Context, Protocol};
use dde_netsim::topology::{NodeId, Topology};
use dde_obs::EventKind;
use dde_sched::adaptive::{prefix_of, AdaptiveConfig, AdaptiveState, AdmissionVerdict};
use dde_sched::explain::{explain_dnf_plan, summarize_dnf_plan};
use dde_sched::item::Channel;
use dde_sched::shortcircuit::plan_dnf;
use dde_workload::catalog::Catalog;
use dde_workload::scenario::QueryInstance;
use dde_workload::world::WorldModel;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Timer tag for the housekeeping tick.
const TICK_TAG: u64 = 0;

/// Corroboration votes for one (query, label): source → (judgment,
/// sampled_at, validity).
type VoteSet = BTreeMap<NodeId, (bool, SimTime, SimDuration)>;

/// Who registered a pending interest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Requester {
    /// A query on this node.
    Local,
    /// A neighbor that forwarded a request to us.
    Neighbor(NodeId),
}

/// A label value cached at a node, with the annotator's signature.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedLabel {
    /// The judged value.
    pub value: bool,
    /// Sampling time of the underlying evidence.
    pub sampled_at: SimTime,
    /// Validity of the underlying evidence.
    pub validity: SimDuration,
    /// Who judged it.
    pub annotator: NodeId,
    /// The evidence it is based on.
    pub based_on: Name,
}

impl CachedLabel {
    /// Whether the cached value is still fresh at `now`.
    pub fn is_fresh_at(&self, now: SimTime) -> bool {
        now <= self.sampled_at.saturating_add(self.validity)
    }
}

/// Node configuration shared by every node in a run.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// The retrieval strategy under evaluation.
    pub strategy: Strategy,
    /// Whether sources push prefetches on hearing query announcements
    /// (`None` = off; prefetch pushes ride as background traffic).
    pub prefetch: Option<bool>,
    /// Trust policy for shared labels.
    pub trust: TrustPolicy,
    /// Content-store capacity per node, bytes.
    pub cache_capacity: u64,
    /// Prior probability a condition is true (drives short-circuit ratios).
    pub prob_true_prior: f64,
    /// Bottleneck bandwidth assumed by the retrieval planner.
    pub planning_bandwidth_bps: u64,
    /// Re-issue an unanswered fetch after this long.
    pub retry_timeout: SimDuration,
    /// Housekeeping tick period.
    pub tick: SimDuration,
    /// Lifetime of a pending interest.
    pub interest_lifetime: SimDuration,
    /// Minimum remaining validity a cached object/label must have to be
    /// served to a *remote* requester. Serving a nearly-expired copy wastes
    /// bandwidth: it goes stale before the requester's decision completes
    /// and triggers a refetch.
    pub serve_headroom: SimDuration,
    /// Approximate name substitution (§V-A): when the exact object is not
    /// cached, serve the fresh cached object sharing at least this many
    /// leading name components. `None` disables substitution.
    pub approx_min_shared: Option<usize>,
    /// Criticality classes over the name space (§V-C): objects in a
    /// [`Criticality::Critical`] region are exempt from approximation.
    pub criticality: CriticalityMap,
    /// How many independent pieces of evidence must corroborate a label
    /// before it is accepted (§IV-B, "Noisy sensor data"); 1 = accept the
    /// first annotation. When fewer distinct providers exist, the node
    /// accepts the majority of whatever it could gather.
    pub corroboration: usize,
    /// Sub-additive utility triage for *background* traffic (§V-B): a
    /// prefetch push is dropped at a hop when its marginal utility
    /// `1 − max_similarity` against recently pushed names on that link
    /// falls below this threshold. `None` disables triage.
    pub triage_threshold: Option<f64>,
    /// Whether a crashed node loses its content store and label cache on
    /// recovery (RAM-backed caches) or keeps them (flash-backed caches).
    /// Volatile forwarding state — PIT, prefetch queue, in-flight fetch
    /// bookkeeping — is always lost.
    pub crash_wipes_cache: bool,
    /// Online adaptive planning: when set, the node re-parameterizes its
    /// §III-A planners from per-node estimators learned off the trace-visible
    /// event stream, and (if the config carries an
    /// [`AdmissionPolicy`](dde_sched::adaptive::AdmissionPolicy))
    /// gates query admission under overload. `None` — the default —
    /// reproduces the static planners byte-for-byte.
    pub adaptive: Option<AdaptiveConfig>,
}

impl NodeConfig {
    /// Defaults for `strategy` matching the evaluation setup.
    pub fn new(strategy: Strategy) -> NodeConfig {
        NodeConfig {
            strategy,
            prefetch: None,
            trust: TrustPolicy::TrustAll,
            cache_capacity: 64_000_000,
            prob_true_prior: 0.8,
            planning_bandwidth_bps: 1_000_000,
            retry_timeout: SimDuration::from_secs(30),
            tick: SimDuration::from_millis(250),
            interest_lifetime: SimDuration::from_secs(60),
            serve_headroom: SimDuration::from_secs(15),
            approx_min_shared: None,
            criticality: CriticalityMap::new(),
            corroboration: 1,
            triage_threshold: None,
            crash_wipes_cache: false,
            adaptive: None,
        }
    }

    /// Whether prefetch is on (defaults to off — the headline figures
    /// compare pure retrieval protocols; the prefetch ablation and the
    /// Fig. 1 walkthrough enable it explicitly).
    pub fn prefetch_enabled(&self) -> bool {
        self.prefetch.unwrap_or(false)
    }
}

/// Immutable state shared by all nodes of one run.
#[derive(Debug)]
pub struct SharedWorld {
    /// The advertised-object catalog (the lookup service of refs \[8, 9]).
    pub catalog: Catalog,
    /// Ground truth.
    pub world: WorldModel,
    /// Node configuration.
    pub config: NodeConfig,
}

/// Per-node counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Requests answered from the local content store.
    pub cache_hits: u64,
    /// Requests answered with a shared label instead of data.
    pub label_hits: u64,
    /// Labels resolved by sampling a co-located sensor (no network).
    pub local_samples: u64,
    /// Requests answered with an approximate (same-prefix) substitute.
    pub approx_hits: u64,
    /// Prefetch pushes initiated (this node as source).
    pub prefetch_pushes: u64,
    /// Query announcements relayed.
    pub announces_relayed: u64,
    /// Foreground requests forwarded toward sources.
    pub requests_forwarded: u64,
    /// Data messages forwarded toward requesters.
    pub data_forwarded: u64,
    /// Label shares forwarded onward.
    pub labels_forwarded: u64,
    /// Background pushes dropped by information-utility triage (§V-B).
    pub triage_drops: u64,
    /// Queries shed by the admission gate (never planned; they run to
    /// their deadline and count as deliberate misses).
    pub admission_shed: u64,
    /// Admission-gate deferral decisions (one query may defer repeatedly).
    pub admission_deferred: u64,
}

/// External stimuli delivered to an Athena node.
#[derive(Debug, Clone)]
pub enum AthenaEvent {
    /// A user issues a decision query here (`Query_Init`).
    Issue(QueryInstance),
    /// Announce an upcoming query without issuing it (§VIII anticipation:
    /// "anticipating what information is needed next … gives the system
    /// more time to acquire it before it is actually used"). The network
    /// hears the decision structure early and can prefetch.
    AnnounceOnly(QueryInstance),
}

impl From<QueryInstance> for AthenaEvent {
    fn from(inst: QueryInstance) -> AthenaEvent {
        AthenaEvent::Issue(inst)
    }
}

/// A queued source-side prefetch push.
#[derive(Debug, Clone)]
struct PushTask {
    object_idx: usize,
    origin: NodeId,
    qid: QueryId,
    deadline_at: SimTime,
}

/// The ledger attribution of a request's query id: synthetic re-forwarded
/// requests (`u64::MAX`, see [`AthenaNode::reforward_request`]) have no
/// owning decision.
fn qid_attr(qid: QueryId) -> Option<u64> {
    (qid.0 != u64::MAX).then_some(qid.0)
}

/// Same attribution as the observational `for_query` tag carried on reply
/// messages.
fn qid_tag(qid: QueryId) -> Option<QueryId> {
    (qid.0 != u64::MAX).then_some(qid)
}

/// Admission-gate state for one locally issued query the gate is holding
/// back (adaptive mode); admitted queries have no state.
#[derive(Debug, Clone, Copy, PartialEq)]
enum AdmissionState {
    /// Waiting: the gate re-evaluates once `until` passes.
    Deferred {
        /// When the gate looks again.
        until: SimTime,
        /// How often this query has been deferred so far.
        tries: u32,
    },
    /// Never planned; the query runs to its deadline unanswered.
    Shed,
}

/// One Athena node.
#[derive(Debug)]
pub struct AthenaNode {
    shared: Arc<SharedWorld>,
    annotator: Arc<dyn Annotator + Send + Sync>,
    /// Locally originated queries.
    queries: BTreeMap<QueryId, QueryState>,
    /// Candidate object indices + label set per local query.
    plans: BTreeMap<QueryId, (Vec<usize>, BTreeSet<Label>)>,
    /// Announcements already seen (flood dedup).
    seen_announces: BTreeSet<QueryId>,
    /// Object cache.
    content: ContentStore<EvidenceObject>,
    /// Label cache (the network-side label store of §VI-D).
    labels: BTreeMap<Label, CachedLabel>,
    /// Pending interests: name → who wants it for which (query, labels).
    pit: Pit<Requester, (QueryId, Vec<Label>)>,
    /// Background prefetch queue (processed when foreground is idle).
    prefetch_queue: VecDeque<PushTask>,
    /// Last push per (object, next hop), for dedup.
    recent_pushes: BTreeMap<(Name, NodeId), SimTime>,
    /// Recently forwarded background names per next hop (for §V-B triage).
    recent_bg: BTreeMap<NodeId, Vec<(Name, SimTime)>>,
    /// Corroboration votes per (query, label): evidence *source* →
    /// judgment. Keyed by source node, not object, so that two views from
    /// the same (possibly compromised) sensor host count once (§IV-B).
    votes: BTreeMap<(QueryId, Label), VoteSet>,
    /// Reliability profile per evidence *source*: (agreed, disagreed) with
    /// the corroborated majority (§IV-B annotator feedback).
    reliability: BTreeMap<NodeId, (u64, u64)>,
    /// Whether a tick timer is armed.
    tick_armed: bool,
    /// Local queries whose terminal trace event has been emitted (so
    /// resolve/miss events fire exactly once per query).
    emitted_final: BTreeSet<QueryId>,
    /// Online estimator state (`None` = static planning). Built from
    /// [`NodeConfig::adaptive`]; updated only at trace-visible events so
    /// observed, unobserved, and sharded runs evolve identically.
    adaptive: Option<AdaptiveState>,
    /// Local queries the admission gate is holding back (adaptive mode
    /// only); absence means admitted.
    admission: BTreeMap<QueryId, AdmissionState>,
    /// Evidence bytes delivered to this node per local query — the
    /// actual-cost signal the load estimator folds at decision time.
    ingress_bytes: BTreeMap<QueryId, u64>,
    /// Local queries whose actual bytes have been folded into the load
    /// estimator (each decision counts once).
    load_folded: BTreeSet<QueryId>,
    /// Counters.
    pub stats: NodeStats,
}

impl AthenaNode {
    /// Creates a node.
    pub fn new(
        shared: Arc<SharedWorld>,
        annotator: Arc<dyn Annotator + Send + Sync>,
    ) -> AthenaNode {
        let cache_capacity = shared.config.cache_capacity;
        let adaptive = shared
            .config
            .adaptive
            .map(|cfg| AdaptiveState::new(cfg, shared.config.prob_true_prior));
        AthenaNode {
            shared,
            annotator,
            queries: BTreeMap::new(),
            plans: BTreeMap::new(),
            seen_announces: BTreeSet::new(),
            content: ContentStore::new(cache_capacity),
            labels: BTreeMap::new(),
            pit: Pit::new(),
            prefetch_queue: VecDeque::new(),
            recent_pushes: BTreeMap::new(),
            recent_bg: BTreeMap::new(),
            votes: BTreeMap::new(),
            reliability: BTreeMap::new(),
            tick_armed: false,
            emitted_final: BTreeSet::new(),
            adaptive,
            admission: BTreeMap::new(),
            ingress_bytes: BTreeMap::new(),
            load_folded: BTreeSet::new(),
            stats: NodeStats::default(),
        }
    }

    /// The node's adaptive estimator state, when adaptive planning is on
    /// (for post-run inspection).
    pub fn adaptive_state(&self) -> Option<&AdaptiveState> {
        self.adaptive.as_ref()
    }

    /// The node's local queries (for post-run inspection).
    pub fn queries(&self) -> impl Iterator<Item = &QueryState> {
        self.queries.values()
    }

    /// The node's label cache (for post-run inspection).
    pub fn cached_labels(&self) -> impl Iterator<Item = (&Label, &CachedLabel)> {
        self.labels.iter()
    }

    /// The node's content store (for post-run inspection).
    pub fn content_store(&self) -> &ContentStore<EvidenceObject> {
        &self.content
    }

    /// The reliability profile this node has accumulated for an evidence
    /// source: `(agreements, disagreements)` with corroborated majorities.
    pub fn reliability_of(&self, source: NodeId) -> (u64, u64) {
        self.reliability.get(&source).copied().unwrap_or((0, 0))
    }

    /// Estimated source reliability in `[0, 1]` (1.0 when unobserved).
    pub fn reliability_score(&self, source: NodeId) -> f64 {
        let (agree, disagree) = self.reliability_of(source);
        if agree + disagree == 0 {
            1.0
        } else {
            agree as f64 / (agree + disagree) as f64
        }
    }

    fn catalog(&self) -> &Catalog {
        &self.shared.catalog
    }

    /// Whether a cached label is *usable* at `now`: fresh, with enough
    /// remaining validity to survive the rest of its query's term
    /// completion. A label about to expire triggers churn — the term that
    /// consumed it reopens before its remaining conditions resolve — so we
    /// require the lesser of twice the serve headroom and half the label's
    /// full validity.
    fn label_usable(&self, c: &CachedLabel, now: SimTime) -> bool {
        let margin = (self.shared.config.serve_headroom * 2).min(c.validity / 2);
        c.is_fresh_at(now + margin)
    }

    fn channel(&self) -> Channel {
        Channel::new(self.shared.config.planning_bandwidth_bps)
    }

    /// Renders the decision-driven ordering rationale for a query's
    /// expression via `dde-sched`'s short-circuit planner: per-label
    /// retrieval cost (cheapest provider from here), the configured truth
    /// prior, and the most conservative provider validity. Returns the
    /// rendered rationale plus the plan's predicted expected retrieval cost
    /// in bytes (§III-A), so the cost ledger can report predicted vs
    /// actual. Only called when the trace sink is enabled — this allocates
    /// freely.
    fn plan_rationale(&self, expr: &Dnf, ctx: &Context<'_, AthenaMsg>) -> (String, u64) {
        let meta = self.plan_meta(expr, ctx.node(), ctx.topology());
        let plan = plan_dnf(expr, &meta);
        let predicted = summarize_dnf_plan(&plan).expected_bytes_rounded();
        (explain_dnf_plan(&plan), predicted)
    }

    /// The planner's per-condition metadata from this node's vantage
    /// point: cheapest-provider retrieval cost, most conservative provider
    /// validity, and the short-circuit probability — learned per
    /// (name-prefix, condition) when adaptive planning is on, the run's
    /// static prior otherwise.
    fn plan_meta(&self, expr: &Dnf, me: NodeId, topology: &Topology) -> MetaTable {
        expr.labels()
            .into_iter()
            .map(|l| {
                let providers = self.catalog().providers_of(&l);
                let cost = providers
                    .iter()
                    .map(|&i| Strategy::effective_cost(i, self.catalog(), me, topology))
                    .min()
                    .unwrap_or(0);
                let validity = providers
                    .iter()
                    .map(|&i| self.catalog().get(i).validity)
                    .min()
                    .unwrap_or(SimDuration::MAX);
                let prob = match &self.adaptive {
                    // The cheapest provider's name keys the learned
                    // estimate — the same prefix the annotation feedback
                    // updates in `finalize_label`.
                    Some(state) => providers
                        .iter()
                        .min_by_key(|&&i| {
                            (Strategy::effective_cost(i, self.catalog(), me, topology), i)
                        })
                        .map(|&i| state.prob_for(&self.catalog().get(i).name.to_string(), &l))
                        .unwrap_or_else(|| state.truth.prior()),
                    None => self.shared.config.prob_true_prior,
                };
                let meta = ConditionMeta::new(Cost::from_bytes(cost), validity)
                    .with_prob(Probability::clamped(prob));
                (l, meta)
            })
            .collect()
    }

    /// Predicted expected retrieval cost in bytes (§III-A) of `expr` from
    /// here under the current estimators, for the admission gate. Unlike
    /// [`AthenaNode::plan_rationale`] this must also run on unobserved
    /// runs — admission decisions cannot depend on whether a sink is
    /// attached.
    fn predicted_plan_bytes(&self, expr: &Dnf, me: NodeId, topology: &Topology) -> u64 {
        let meta = self.plan_meta(expr, me, topology);
        summarize_dnf_plan(&plan_dnf(expr, &meta)).expected_bytes_rounded()
    }

    /// The first (OR-term, condition) coordinates of `label` in `qid`'s
    /// expression, for trace attribution. `(None, None)` when the query is
    /// not local or the label does not appear.
    fn locate_predicate(&self, qid: QueryId, label: &Label) -> (Option<u32>, Option<u32>) {
        let Some(q) = self.queries.get(&qid) else {
            return (None, None);
        };
        for (ti, term) in q.expr.terms().iter().enumerate() {
            if let Some(ci) = term.literals().position(|lit| lit.label() == label) {
                return (Some(ti as u32), Some(ci as u32));
            }
        }
        (None, None)
    }

    /// Emits a terminal trace event (`query-resolved` / `query-missed`) for
    /// every local query that reached a final status since the last call.
    /// Idempotent per query.
    fn emit_query_outcomes(&mut self, ctx: &mut Context<'_, AthenaMsg>) {
        if !ctx.obs_enabled() {
            return;
        }
        let newly: Vec<(QueryId, QueryStatus, SimTime)> = self
            .queries
            .iter()
            .filter(|(qid, q)| q.status.is_final() && !self.emitted_final.contains(qid))
            .map(|(qid, q)| (*qid, q.status, q.issued_at))
            .collect();
        for (qid, status, issued_at) in newly {
            self.emitted_final.insert(qid);
            match status {
                QueryStatus::Decided { outcome, at } => ctx.emit(EventKind::QueryResolved {
                    query: qid.0,
                    outcome: match outcome {
                        QueryOutcome::Viable(_) => "viable",
                        QueryOutcome::Infeasible => "infeasible",
                    },
                    latency_us: at.saturating_since(issued_at).as_micros(),
                }),
                QueryStatus::Missed => ctx.emit(EventKind::QueryMissed { query: qid.0 }),
                QueryStatus::Pending => {}
            }
        }
    }

    fn arm_tick(&mut self, ctx: &mut Context<'_, AthenaMsg>) {
        if !self.tick_armed {
            self.tick_armed = true;
            ctx.set_timer(self.shared.config.tick, TICK_TAG);
        }
    }

    fn has_pending_work(&self, now: SimTime) -> bool {
        let queries_pending = self.queries.values().any(|q| !q.status.is_final());
        let prefetch_pending = self.prefetch_queue.iter().any(|t| t.deadline_at > now);
        queries_pending || prefetch_pending
    }

    /// Samples a fresh instance of catalog object `idx`, with per-label
    /// epoch-aligned validity so that a fresh cached object always implies a
    /// still-accurate annotation.
    fn sample_object(&self, idx: usize, now: SimTime) -> EvidenceObject {
        let spec = self.catalog().get(idx);
        let mut obj = EvidenceObject::sample(spec, now);
        let effective = spec
            .covers
            .iter()
            .map(|l| self.shared.world.epoch_end(l, now).saturating_since(now))
            .min()
            .unwrap_or(spec.validity);
        obj.validity = effective.min(spec.validity);
        obj
    }

    /// Samples catalog object `idx` (this node is its source), stores the
    /// sample in the content store, and traces the store on behalf of
    /// `query`.
    fn sample_and_store(
        &mut self,
        ctx: &mut Context<'_, AthenaMsg>,
        idx: usize,
        query: Option<u64>,
    ) -> EvidenceObject {
        let object = self.sample_object(idx, ctx.now());
        self.content.insert(
            &object.name,
            object.clone(),
            object.size,
            object.sampled_at,
            object.validity,
        );
        if ctx.obs_enabled() {
            ctx.emit(EventKind::CacheStore {
                name: object.name.to_string(),
                bytes: object.size,
                validity_us: object.validity.as_micros(),
                query,
            });
        }
        object
    }

    /// Annotates `object` against every *local pending* query that
    /// references one of its labels. Under corroboration (§IV-B) the
    /// judgment is held as a *vote* until enough independent evidence
    /// agrees; otherwise it is accepted immediately, cached, and (under
    /// `lvfl`) shared toward the data source.
    fn annotate_object(&mut self, ctx: &mut Context<'_, AthenaMsg>, object: &EvidenceObject) {
        let now = ctx.now();
        // Which covered labels do local pending queries care about?
        let mut wanted: Vec<(QueryId, Label)> = Vec::new();
        for (qid, q) in &self.queries {
            if q.status.is_final() {
                continue;
            }
            let (_, label_set) = &self.plans[qid];
            for l in &object.covers {
                if label_set.contains(l) && !q.assignment.value_at(l, now).is_known() {
                    wanted.push((*qid, l.clone()));
                }
            }
        }
        if wanted.is_empty() {
            return;
        }
        let k = self.shared.config.corroboration.max(1);
        for (qid, label) in wanted {
            let Some(value) = self.annotator.annotate(object, &label, &self.shared.world) else {
                continue;
            };
            if k == 1 {
                self.finalize_label(
                    ctx,
                    qid,
                    &label,
                    value,
                    object.sampled_at,
                    object.validity,
                    &object.name,
                );
                continue;
            }
            // Corroboration: collect votes from distinct evidence *sources*.
            let entry = self.votes.entry((qid, label.clone())).or_default();
            entry.insert(object.source, (value, object.sampled_at, object.validity));
            let source_count = {
                let mut sources: Vec<NodeId> = self
                    .shared
                    .catalog
                    .providers_of(&label)
                    .iter()
                    .map(|&i| self.shared.catalog.get(i).source)
                    .collect();
                sources.sort_unstable();
                sources.dedup();
                sources.len().max(1)
            };
            if entry.len() >= k.min(source_count) {
                self.finalize_votes(ctx, qid, &label);
            }
        }
    }

    /// Resolves the corroboration votes for `(qid, label)` by majority,
    /// records the outcome, and feeds reliability profiles back (§IV-B:
    /// "annotators can offer feedback on the quality of individual
    /// inputs").
    fn finalize_votes(&mut self, ctx: &mut Context<'_, AthenaMsg>, qid: QueryId, label: &Label) {
        let Some(entry) = self.votes.remove(&(qid, label.clone())) else {
            return;
        };
        if entry.is_empty() {
            return;
        }
        // Reliability-weighted majority: votes from sources with a poor
        // track record count less, so learned profiles break ties in favor
        // of historically honest sensors (§IV-B).
        let mut weight_true = 0.0;
        let mut weight_false = 0.0;
        for (source, (v, _, _)) in &entry {
            let w = self.reliability_score(*source).max(0.05);
            if *v {
                weight_true += w;
            } else {
                weight_false += w;
            }
        }
        let majority = weight_true >= weight_false;
        // Freshness of the corroborated label: the most conservative of the
        // agreeing evidence (latest sample, its validity).
        let (_, sampled_at, validity) = entry
            .values()
            .filter(|(v, _, _)| *v == majority)
            .max_by_key(|(_, t, _)| *t)
            .copied()
            .expect("majority side is non-empty"); // lint: allow(panic) — the majority was computed from these votes
                                                   // Evidence attribution: name an object from an agreeing source.
        let agreeing_source = entry
            .iter()
            .find(|(_, (v, _, _))| *v == majority)
            .map(|(src, _)| *src)
            .expect("majority side is non-empty"); // lint: allow(panic) — the majority was computed from these votes
        let based_on = self
            .shared
            .catalog
            .providers_of(label)
            .iter()
            .map(|&i| self.shared.catalog.get(i))
            .find(|spec| spec.source == agreeing_source)
            .map(|spec| spec.name.clone())
            .expect("agreeing source provides the label"); // lint: allow(panic) — votes come only from providers of this label
        for (source, (v, _, _)) in &entry {
            let slot = self.reliability.entry(*source).or_insert((0, 0));
            if *v == majority {
                slot.0 += 1;
            } else {
                slot.1 += 1;
            }
        }
        self.finalize_label(ctx, qid, label, majority, sampled_at, validity, &based_on);
    }

    /// Records an accepted label value for one query, caches it, and (under
    /// `lvfl`) shares it toward the evidence's source.
    #[allow(clippy::too_many_arguments)]
    fn finalize_label(
        &mut self,
        ctx: &mut Context<'_, AthenaMsg>,
        qid: QueryId,
        label: &Label,
        value: bool,
        sampled_at: SimTime,
        validity: SimDuration,
        based_on: &Name,
    ) {
        let me = ctx.node();
        if ctx.obs_enabled() {
            let (term, cond) = self.locate_predicate(qid, label);
            ctx.emit(EventKind::Annotate {
                query: qid.0,
                label: label.to_string(),
                value,
                term,
                cond,
            });
        }
        // Adaptive feedback: the annotation outcome updates the truth
        // estimate for this evidence prefix, and reaching an annotation at
        // all counts as a successful retrieval from the evidence's source.
        // The update uses only what the `annotate` trace event carries, so
        // observed and unobserved runs evolve identically.
        if self.adaptive.is_some() {
            let source = self.shared.catalog.by_name(based_on).map(|s| s.source);
            if let Some(st) = self.adaptive.as_mut() {
                let rendered = based_on.to_string();
                let prefix = prefix_of(&rendered, st.config.prefix_len);
                st.truth.observe(prefix, label, value);
                if let Some(src) = source {
                    st.reliability.observe(src.0 as u32, true);
                }
            }
        }
        self.labels.insert(
            label.clone(),
            CachedLabel {
                value,
                sampled_at,
                validity,
                annotator: me,
                based_on: based_on.clone(),
            },
        );
        // The judgment is valid evidence for every local query that
        // references this label, not just `qid`.
        for (other_qid, q) in self.queries.iter_mut() {
            if q.status.is_final() {
                continue;
            }
            if self.plans[other_qid].1.contains(label)
                && (!q.assignment.value_at(label, ctx.now()).is_known() || *other_qid == qid)
            {
                q.record_label(label, value, sampled_at, validity);
                q.counters.labels_from_data += 1;
            }
        }
        if self.shared.config.strategy.label_sharing() {
            if let Some(spec) = self.shared.catalog.by_name(based_on) {
                if spec.source != me {
                    if let Some(hop) = ctx.next_hop_toward(spec.source) {
                        if ctx.obs_enabled() {
                            ctx.emit(EventKind::LabelShare {
                                label: label.to_string(),
                                value,
                                toward: hop.index() as u32,
                                query: Some(qid.0),
                            });
                        }
                        ctx.send(
                            hop,
                            AthenaMsg::LabelShare {
                                label: label.clone(),
                                value,
                                sampled_at,
                                validity,
                                annotator: me,
                                based_on: based_on.clone(),
                                for_query: Some(qid),
                            },
                        );
                    }
                }
            }
        }
    }

    /// Applies a (trusted) shared label to local queries and the cache.
    #[allow(clippy::too_many_arguments)]
    fn apply_shared_label(
        &mut self,
        label: &Label,
        value: bool,
        sampled_at: SimTime,
        validity: SimDuration,
        annotator: NodeId,
        based_on: &Name,
        now: SimTime,
    ) {
        if !self.shared.config.trust.accepts(annotator) {
            return;
        }
        let fresher = self
            .labels
            .get(label)
            .map(|c| sampled_at > c.sampled_at)
            .unwrap_or(true);
        if fresher {
            self.labels.insert(
                label.clone(),
                CachedLabel {
                    value,
                    sampled_at,
                    validity,
                    annotator,
                    based_on: based_on.clone(),
                },
            );
        }
        let expires = sampled_at.saturating_add(validity);
        if expires < now {
            return;
        }
        for (qid, q) in self.queries.iter_mut() {
            if q.status.is_final() {
                continue;
            }
            if self.plans[qid].1.contains(label) && !q.assignment.value_at(label, now).is_known() {
                q.record_label(label, value, sampled_at, validity);
                q.counters.labels_from_shares += 1;
            }
        }
    }

    /// Picks the cheapest provider of `label` whose *source node* has not
    /// voted yet, preferring sources whose reliability profile is not
    /// condemned (score < 0.3 after ≥ 4 observations), falling back to
    /// condemned ones only when nothing else remains.
    fn alternate_provider(&self, label: &Label, already_voted: &VoteSet) -> Option<usize> {
        let unused: Vec<usize> = self
            .shared
            .catalog
            .providers_of(label)
            .iter()
            .copied()
            .filter(|&i| !already_voted.contains_key(&self.shared.catalog.get(i).source))
            .collect();
        let trusted: Vec<usize> = unused
            .iter()
            .copied()
            .filter(|&i| {
                let source = self.shared.catalog.get(i).source;
                let (agree, disagree) = self.reliability_of(source);
                agree + disagree < 4 || self.reliability_score(source) >= 0.3
            })
            .collect();
        let pool = if trusted.is_empty() { unused } else { trusted };
        pool.into_iter()
            .min_by_key(|&i| (self.shared.catalog.get(i).size, i))
    }

    /// The retrieval loop: satisfy next requests locally when possible,
    /// otherwise send one fetch per query into the network.
    fn advance_queries(&mut self, ctx: &mut Context<'_, AthenaMsg>) {
        let now = ctx.now();
        let me = ctx.node();
        let strategy = self.shared.config.strategy;
        let channel = self.channel();
        let prior = self.shared.config.prob_true_prior;
        let retry = self.shared.config.retry_timeout;
        let qids: Vec<QueryId> = self.queries.keys().copied().collect();

        for qid in qids {
            // Admission gate (adaptive mode): shed queries never plan;
            // deferred ones wait out their re-evaluation time, then face
            // the gate again. The deadline check still runs below so a
            // gated query turns `Missed` on time.
            if !self.admission_allows(ctx, qid, now) {
                let q = self.queries.get_mut(&qid).expect("query exists"); // lint: allow(panic) — qid drawn from queries.keys(); local queries are never removed
                q.check(now);
                continue;
            }
            loop {
                let q = self.queries.get_mut(&qid).expect("query exists"); // lint: allow(panic) — qid drawn from queries.keys(); local queries are never removed
                if q.check(now).is_final() {
                    break;
                }
                // Waiting on an in-flight fetch that hasn't timed out?
                if q.outstanding.is_some() && !q.outstanding_timed_out(now, retry) {
                    break;
                }
                // A timed-out fetch falls through to re-plan; in adaptive
                // mode the unresponsive source's reliability estimate is
                // discounted first (the trace-visible `fetch-timeout`).
                let timed_out: Option<Name> = if self.adaptive.is_some() {
                    q.outstanding.as_ref().map(|o| o.name.clone())
                } else {
                    None
                };
                if let Some(name) = timed_out {
                    if let Some(spec) = self.shared.catalog.by_name(&name) {
                        let source = spec.source;
                        if let Some(st) = self.adaptive.as_mut() {
                            st.reliability.observe(source.0 as u32, false);
                        }
                        if ctx.obs_enabled() {
                            ctx.emit(EventKind::FetchTimeout {
                                query: qid.0,
                                name: name.to_string(),
                                source: source.index() as u32,
                            });
                        }
                    }
                }
                let (candidates, _) = self.plans.get(&qid).expect("plan exists"); // lint: allow(panic) — a plan is installed alongside every local query
                let priors = match self.adaptive.as_ref() {
                    Some(st) => Priors::Learned(st),
                    None => Priors::Fixed(prior),
                };
                let Some((idx, label)) = strategy.next_request(
                    self.queries.get(&qid).expect("query exists"), // lint: allow(panic) — qid drawn from queries.keys(); local queries are never removed
                    candidates,
                    self.catalog(),
                    me,
                    ctx.topology(),
                    now,
                    channel,
                    &priors,
                ) else {
                    break;
                };
                // Corroboration (§IV-B): if this provider already voted on
                // this label, fetch a *different* provider; if none remains,
                // accept the majority of the votes gathered so far.
                let k = self.shared.config.corroboration.max(1);
                let mut chosen = idx;
                if k > 1 {
                    if let Some(entry) = self.votes.get(&(qid, label.clone())) {
                        if entry.contains_key(&self.catalog().get(idx).source) {
                            let alt = self.alternate_provider(&label, entry);
                            match alt {
                                Some(a) => chosen = a,
                                None => {
                                    self.finalize_votes(ctx, qid, &label);
                                    continue;
                                }
                            }
                        }
                    }
                }
                let spec = self.catalog().get(chosen).clone();
                // Bookkeeping: chasing a label whose previous value expired.
                {
                    let q = self.queries.get_mut(&qid).expect("query exists"); // lint: allow(panic) — qid drawn from queries.keys(); local queries are never removed
                    if q.assignment.get(&label).is_some()
                        && !q.assignment.value_at(&label, now).is_known()
                    {
                        q.counters.label_expiries += 1;
                        q.assignment.clear(&label);
                    }
                }

                // 1. Fresh trusted cached label (shared by someone else)?
                if strategy.label_sharing() {
                    if let Some(c) = self.labels.get(&label) {
                        if self.label_usable(c, now)
                            && self.shared.config.trust.accepts(c.annotator)
                        {
                            let (value, sampled_at, validity) = (c.value, c.sampled_at, c.validity);
                            let q = self.queries.get_mut(&qid).expect("query exists"); // lint: allow(panic) — qid drawn from queries.keys(); local queries are never removed
                            q.record_label(&label, value, sampled_at, validity);
                            q.counters.labels_from_shares += 1;
                            continue;
                        }
                    }
                }
                // 2. Fresh object in the local content store?
                if let Some(stored) = self.content.get_fresh(&spec.name, now) {
                    let object = stored.value.clone();
                    self.annotate_object(ctx, &object);
                    let q = self.queries.get_mut(&qid).expect("query exists"); // lint: allow(panic) — qid drawn from queries.keys(); local queries are never removed
                    if !q.assignment.value_at(&label, now).is_known() && k == 1 {
                        // Annotation failed to resolve the label (cannot
                        // happen with covering objects); avoid spinning.
                        break;
                    }
                    // Under corroboration an unresolved label just gained a
                    // vote — loop to fetch the next distinct provider.
                    continue;
                }
                // 3. We are the source: sample locally, free of charge.
                if spec.source == me {
                    self.stats.local_samples += 1;
                    if ctx.obs_enabled() {
                        ctx.emit(EventKind::LocalSample {
                            name: spec.name.to_string(),
                            query: Some(qid.0),
                        });
                    }
                    let object = self.sample_and_store(ctx, chosen, Some(qid.0));
                    let q = self.queries.get_mut(&qid).expect("query exists"); // lint: allow(panic) — qid drawn from queries.keys(); local queries are never removed
                    q.counters.labels_from_local += 1;
                    self.annotate_object(ctx, &object);
                    continue;
                }
                // 4. Fetch over the network. The request carries every
                // still-unknown label this object can resolve, so that an
                // intermediate node may answer with labels only if it can
                // supply all of them.
                let q_ref = self.queries.get(&qid).expect("query exists"); // lint: allow(panic) — qid drawn from queries.keys(); local queries are never removed
                let mut wanted: Vec<Label> = spec
                    .covers
                    .iter()
                    .filter(|l| !q_ref.assignment.value_at(l, now).is_known())
                    .filter(|l| self.plans[&qid].1.contains(*l))
                    .cloned()
                    .collect();
                if !wanted.contains(&label) {
                    wanted.push(label.clone());
                }
                // The selected source may be unreachable right now (crashed
                // or partitioned away, with no alternate provider). Don't
                // register an interest or pretend a fetch is in flight:
                // leave the query pending so every tick re-plans until a
                // route exists again, then send immediately on recovery.
                let Some(hop) = ctx.next_hop_toward(spec.source) else {
                    break;
                };
                let first = self.pit.register(
                    &spec.name,
                    Requester::Local,
                    (qid, wanted.clone()),
                    now + self.shared.config.interest_lifetime,
                );
                let q = self.queries.get_mut(&qid).expect("query exists"); // lint: allow(panic) — qid drawn from queries.keys(); local queries are never removed
                q.outstanding = Some(Outstanding {
                    name: spec.name.clone(),
                    wanted: wanted.clone(),
                    sent_at: now,
                });
                q.counters.requests_sent += 1;
                if first {
                    if ctx.obs_enabled() {
                        let (term, cond) = self.locate_predicate(qid, &label);
                        ctx.emit(EventKind::RequestSend {
                            query: qid.0,
                            name: spec.name.to_string(),
                            hop: hop.index() as u32,
                            term,
                            cond,
                        });
                    }
                    ctx.send(
                        hop,
                        AthenaMsg::Request {
                            name: spec.name.clone(),
                            wanted,
                            qid,
                            origin: me,
                            kind: RequestKind::Fetch,
                        },
                    );
                }
                break;
            }
            // Final check after the burst of local progress.
            let q = self.queries.get_mut(&qid).expect("query exists"); // lint: allow(panic) — qid drawn from queries.keys(); local queries are never removed
            q.check(now);
        }
        self.fold_finished_into_load();
        self.emit_query_outcomes(ctx);
        if self.has_pending_work(now) {
            self.arm_tick(ctx);
        }
    }

    /// Re-evaluates the admission gate for `qid` inside the retrieval
    /// loop. Returns `false` while the query is shed or still deferred; a
    /// deferral that ripens re-faces the gate with *fresh* estimates.
    fn admission_allows(
        &mut self,
        ctx: &mut Context<'_, AthenaMsg>,
        qid: QueryId,
        now: SimTime,
    ) -> bool {
        let tries = match self.admission.get(&qid) {
            None => return true,
            Some(AdmissionState::Shed) => return false,
            Some(&AdmissionState::Deferred { until, tries }) => {
                if now < until {
                    return false;
                }
                tries
            }
        };
        let Some(q) = self.queries.get(&qid) else {
            return true;
        };
        if q.status.is_final() {
            return false;
        }
        let (expr, deadline_at) = (q.expr.clone(), q.deadline_at);
        self.admit(ctx, qid, &expr, deadline_at, tries)
    }

    /// The admission gate, at issue (`tries == 0`) and when a deferral
    /// ripens. In adaptive mode with an
    /// [`AdmissionPolicy`](dde_sched::adaptive::AdmissionPolicy) it predicts
    /// the plan's cost, asks the policy, emits `admission`, and records a
    /// defer or shed; `qid` must not count as active (at issue it is not
    /// in the query table yet, on re-gate it is deferred). An admitted
    /// query — every query without a policy — emits its `plan` and floods
    /// its announce. Returns whether the query was admitted.
    fn admit(
        &mut self,
        ctx: &mut Context<'_, AthenaMsg>,
        qid: QueryId,
        expr: &Dnf,
        deadline_at: SimTime,
        tries: u32,
    ) -> bool {
        let now = ctx.now();
        let me = ctx.node();
        if let Some(st) = self.adaptive.as_ref() {
            if let Some(policy) = st.config.admission {
                let predicted = self.predicted_plan_bytes(expr, me, ctx.topology());
                let active = self.active_admitted();
                let slack = deadline_at.saturating_since(now);
                let verdict = policy.verdict(predicted, active, &st.load, slack, tries);
                if ctx.obs_enabled() {
                    ctx.emit(EventKind::Admission {
                        query: qid.0,
                        verdict: verdict.name(),
                        predicted_bytes: predicted,
                    });
                }
                match verdict {
                    AdmissionVerdict::Admit => {
                        self.admission.remove(&qid);
                    }
                    AdmissionVerdict::Defer => {
                        self.stats.admission_deferred += 1;
                        let until = now + policy.defer_for;
                        let tries = tries + 1;
                        self.admission
                            .insert(qid, AdmissionState::Deferred { until, tries });
                        return false;
                    }
                    AdmissionVerdict::Shed => {
                        self.stats.admission_shed += 1;
                        self.admission.insert(qid, AdmissionState::Shed);
                        return false;
                    }
                }
            }
        }
        if ctx.obs_enabled() {
            let (rationale, expected_bytes) = self.plan_rationale(expr, ctx);
            let candidates = self.plans.get(&qid).map_or(0, |(c, _)| c.len());
            ctx.emit(EventKind::Plan {
                query: qid.0,
                strategy: self.shared.config.strategy.code(),
                candidates: candidates as u64,
                expected_bytes,
                rationale,
            });
        }
        Self::flood_announce(ctx, qid, me, expr, deadline_at, None);
        true
    }

    /// How many local queries are admitted and not yet decided — the
    /// `active` input of [`AdmissionPolicy::verdict`]. Deferred and shed
    /// queries consume no retrieval resources, so they do not count.
    fn active_admitted(&self) -> usize {
        self.queries
            .iter()
            .filter(|(qid, q)| !q.status.is_final() && !self.admission.contains_key(qid))
            .count()
    }

    /// Folds the accumulated actual bytes of freshly finalized local
    /// queries into the load estimator, once per query. Runs whether or
    /// not a sink is attached — observed and unobserved adaptive runs
    /// must evolve identically.
    fn fold_finished_into_load(&mut self) {
        if self.adaptive.is_none() {
            return;
        }
        let newly: Vec<QueryId> = self
            .queries
            .iter()
            .filter(|(qid, q)| q.status.is_final() && !self.load_folded.contains(qid))
            .map(|(qid, _)| *qid)
            .collect();
        for qid in newly {
            self.load_folded.insert(qid);
            let bytes = self.ingress_bytes.get(&qid).copied().unwrap_or(0);
            if let Some(st) = self.adaptive.as_mut() {
                st.load.observe_decision(bytes);
            }
        }
    }

    /// §V-B triage: whether a background push of `name` toward `hop` is
    /// redundant against what was recently pushed on that link. "Sending 10
    /// pictures of that same bridge … does not offer 10-times more
    /// information": marginal utility is `1 − max_similarity` to the
    /// recently delivered set, judged by shared name prefixes.
    fn triage_redundant(
        &mut self,
        ctx: &mut Context<'_, AthenaMsg>,
        hop: NodeId,
        name: &Name,
        now: SimTime,
    ) -> bool {
        let Some(threshold) = self.shared.config.triage_threshold else {
            return false;
        };
        const WINDOW: SimDuration = SimDuration::from_secs(60);
        let recent = self.recent_bg.entry(hop).or_default();
        recent.retain(|(_, at)| now.saturating_since(*at) < WINDOW);
        let max_sim = recent
            .iter()
            .map(|(n, _)| n.similarity(name))
            .fold(0.0, f64::max);
        if 1.0 - max_sim < threshold {
            self.stats.triage_drops += 1;
            if ctx.obs_enabled() {
                ctx.emit(EventKind::TriageDrop {
                    name: name.to_string(),
                    hop: hop.index() as u32,
                });
            }
            return true;
        }
        recent.push((name.clone(), now));
        false
    }

    /// Re-forwards a request toward `name`'s source after the in-flight
    /// request may have been consumed by a partial PIT satisfaction —
    /// restores the invariant that pending interests imply a request in
    /// flight.
    fn reforward_request(
        &mut self,
        ctx: &mut Context<'_, AthenaMsg>,
        name: &Name,
        wanted: Vec<Label>,
    ) {
        let Some(spec) = self.catalog().by_name(name) else {
            return;
        };
        let source = spec.source;
        if source == ctx.node() {
            return; // we are the source; data will be produced locally
        }
        if let Some(hop) = ctx.next_hop_toward(source) {
            self.stats.requests_forwarded += 1;
            ctx.send(
                hop,
                AthenaMsg::Request {
                    name: name.clone(),
                    wanted,
                    qid: QueryId(u64::MAX), // synthetic repair request
                    origin: ctx.node(),
                    kind: RequestKind::Fetch,
                },
            );
        }
    }

    /// Whittles every interest pending on `name` by `covered`: an interest
    /// wanting a covered label is served and stays pending only for its
    /// uncovered labels. Returns the served neighbour requesters, in
    /// interest order with each interest's attribution tag, and the
    /// surviving labels to re-request — empty unless some interest was
    /// emptied, since that one may have been the interest whose request
    /// was in flight (answered upstream without forwarding).
    fn whittle_interests(
        &mut self,
        name: &Name,
        covered: impl Fn(&Label) -> bool,
    ) -> (Vec<(NodeId, Option<QueryId>)>, Vec<Label>) {
        let mut served = Vec::new();
        let mut kept: Vec<Label> = Vec::new();
        let mut any_emptied = false;
        for i in self.pit.take(name) {
            let (qid_i, mut wanted_i) = i.query;
            if wanted_i.iter().any(&covered) {
                if let Requester::Neighbor(nb) = i.requester {
                    served.push((nb, qid_tag(qid_i)));
                }
                wanted_i.retain(|l| !covered(l));
            }
            if wanted_i.is_empty() {
                any_emptied = true;
            } else {
                for l in &wanted_i {
                    if !kept.contains(l) {
                        kept.push(l.clone());
                    }
                }
                self.pit
                    .register(name, i.requester, (qid_i, wanted_i), i.expires_at);
            }
        }
        if !any_emptied {
            kept.clear();
        }
        (served, kept)
    }

    /// Serves or forwards an incoming object request.
    #[allow(clippy::too_many_arguments)]
    fn handle_request(
        &mut self,
        ctx: &mut Context<'_, AthenaMsg>,
        from: NodeId,
        name: Name,
        wanted: Vec<Label>,
        qid: QueryId,
        origin: NodeId,
        kind: RequestKind,
    ) {
        let now = ctx.now();
        let me = ctx.node();
        let headroom = self.shared.config.serve_headroom;
        // Cheapest first (§II-C): fresh trusted *labels* in place of the
        // object (§VI-D) — "several orders of magnitude resource savings".
        // Usable labels answer their share of the request immediately; only
        // the remainder (if any) keeps traveling as an object request.
        let mut wanted = wanted;
        if self.shared.config.strategy.label_sharing() && !wanted.is_empty() {
            let usable: Vec<Label> = wanted
                .iter()
                .filter(|l| {
                    self.labels.get(*l).is_some_and(|c| {
                        self.label_usable(c, now) && self.shared.config.trust.accepts(c.annotator)
                    })
                })
                .cloned()
                .collect();
            if !usable.is_empty() {
                self.stats.label_hits += 1;
                if ctx.obs_enabled() {
                    ctx.emit(EventKind::LabelHit {
                        requester: from.index() as u32,
                        labels: usable.len() as u64,
                        query: qid_attr(qid),
                    });
                }
                for l in &usable {
                    let c = self.labels.get(l).expect("checked above").clone(); // lint: allow(panic) — presence and usability checked just above
                    ctx.send(
                        from,
                        AthenaMsg::LabelShare {
                            label: l.clone(),
                            value: c.value,
                            sampled_at: c.sampled_at,
                            validity: c.validity,
                            annotator: c.annotator,
                            based_on: c.based_on,
                            for_query: qid_tag(qid),
                        },
                    );
                }
                wanted.retain(|l| !usable.contains(l));
                if wanted.is_empty() {
                    return;
                }
            }
        }
        // Fresh cached object with enough remaining validity to survive the
        // trip and the requester's decision?
        if let Some(stored) = self.content.get_fresh(&name, now) {
            if stored.expires_at() >= now + headroom {
                let object = stored.value.clone();
                self.stats.cache_hits += 1;
                if ctx.obs_enabled() {
                    ctx.emit(EventKind::CacheHit {
                        name: name.to_string(),
                        requester: from.index() as u32,
                        query: qid_attr(qid),
                    });
                }
                ctx.send(
                    from,
                    AthenaMsg::Data {
                        object,
                        push_to: None,
                        for_query: qid_tag(qid),
                    },
                );
                return;
            }
        }
        // Approximate substitution (§V-A): a fresh cached object whose name
        // shares a long-enough prefix — e.g. another camera over the same
        // road segment — unless the name space region is critical (§V-C).
        if let Some(min_shared) = self.shared.config.approx_min_shared {
            if self.shared.config.criticality.classify(&name) != Criticality::Critical {
                if let Some((_, stored)) =
                    self.content
                        .closest_fresh(&name, now + headroom, min_shared)
                {
                    // The name-similarity proxy is checked against ground
                    // truth coverage so a bad namespace design cannot send
                    // useless evidence on a long trip.
                    if wanted.iter().all(|l| stored.value.covers_label(l)) {
                        let object = stored.value.clone();
                        self.stats.approx_hits += 1;
                        if ctx.obs_enabled() {
                            ctx.emit(EventKind::ApproxHit {
                                name: name.to_string(),
                                substitute: object.name.to_string(),
                                query: qid_attr(qid),
                            });
                        }
                        ctx.send(
                            from,
                            AthenaMsg::Data {
                                object,
                                push_to: None,
                                for_query: qid_tag(qid),
                            },
                        );
                        return;
                    }
                }
            }
        }
        let Some(idx) = self.catalog().index_of(&name) else {
            return; // unknown object: drop
        };
        let source = self.catalog().get(idx).source;
        // We are the source: sample fresh and reply.
        if source == me {
            let object = self.sample_and_store(ctx, idx, qid_attr(qid));
            ctx.send(
                from,
                AthenaMsg::Data {
                    object,
                    push_to: None,
                    for_query: qid_tag(qid),
                },
            );
            return;
        }
        // Prefetch requests are not forwarded (§VI-B).
        if kind == RequestKind::Prefetch {
            return;
        }
        if ctx.obs_enabled() {
            let forwarded_to = ctx
                .next_hop_toward(source)
                .filter(|h| *h != from)
                .map(|h| h.index() as u32);
            ctx.emit(EventKind::CacheMiss {
                name: name.to_string(),
                forwarded_to,
                query: qid_attr(qid),
            });
        }
        // Register the interest; forward only the first.
        let first = self.pit.register(
            &name,
            Requester::Neighbor(from),
            (qid, wanted.clone()),
            now + self.shared.config.interest_lifetime,
        );
        if first {
            if let Some(hop) = ctx.next_hop_toward(source) {
                if hop != from {
                    self.stats.requests_forwarded += 1;
                    ctx.send(
                        hop,
                        AthenaMsg::Request {
                            name,
                            wanted,
                            qid,
                            origin,
                            kind,
                        },
                    );
                }
            }
        }
    }

    /// Handles arriving data: cache, serve interests, annotate, continue a
    /// prefetch push. `for_query` is the sender's attribution tag — the
    /// decision the object is traveling for, when the sender knew it.
    fn handle_data(
        &mut self,
        ctx: &mut Context<'_, AthenaMsg>,
        object: EvidenceObject,
        push_to: Option<NodeId>,
        for_query: Option<QueryId>,
    ) {
        let me = ctx.node();
        self.content.insert(
            &object.name,
            object.clone(),
            object.size,
            object.sampled_at,
            object.validity,
        );

        // Collect distinct neighbor requesters from the PIT, remembering
        // which decision each neighbor's interest serves (for attribution
        // of the forwarded copies).
        let interests = self.pit.take(&object.name);
        let mut neighbor_targets: BTreeSet<NodeId> = BTreeSet::new();
        let mut nb_query: BTreeMap<NodeId, QueryId> = BTreeMap::new();
        let mut interest_query: Option<QueryId> = None;
        let mut local_interested = false;
        for i in &interests {
            let (qid_i, _) = &i.query;
            if interest_query.is_none() {
                interest_query = qid_tag(*qid_i);
            }
            match i.requester {
                Requester::Local => local_interested = true,
                Requester::Neighbor(nb) => {
                    neighbor_targets.insert(nb);
                    if let Some(tag) = qid_tag(*qid_i) {
                        nb_query.entry(nb).or_insert(tag);
                    }
                }
            }
        }
        if ctx.obs_enabled() {
            ctx.emit(EventKind::CacheStore {
                name: object.name.to_string(),
                bytes: object.size,
                validity_us: object.validity.as_micros(),
                query: for_query.or(interest_query).map(|q| q.0),
            });
        }
        // Continue a prefetch push toward its destination.
        let mut push_hop: Option<(NodeId, NodeId)> = None; // (next hop, final dst)
        if let Some(dst) = push_to {
            if dst != me {
                if let Some(hop) = ctx.next_hop_toward(dst) {
                    push_hop = Some((hop, dst));
                }
            }
        }
        for nb in &neighbor_targets {
            let continues_push = push_hop.map(|(hop, _)| hop == *nb).unwrap_or(false);
            self.stats.data_forwarded += 1;
            ctx.send(
                *nb,
                AthenaMsg::Data {
                    object: object.clone(),
                    push_to: if continues_push { push_to } else { None },
                    for_query: nb_query.get(nb).copied().or(for_query),
                },
            );
            if continues_push {
                push_hop = None; // the forwarded copy carries the push onward
            }
        }
        if let Some((hop, dst)) = push_hop {
            let now = ctx.now();
            if !self.triage_redundant(ctx, hop, &object.name, now) {
                ctx.send(
                    hop,
                    AthenaMsg::Data {
                        object: object.clone(),
                        push_to: Some(dst),
                        for_query,
                    },
                );
            }
        }
        // Adaptive load signal: evidence bytes arriving for local queries
        // accumulate per query and are folded into the load estimator when
        // the decision completes — the same Deliver-with-attribution the
        // cost ledger charges. Local delivery itself happens via the
        // annotation below.
        if self.adaptive.is_some() && local_interested {
            let mut local_qids: BTreeSet<QueryId> = BTreeSet::new();
            for i in &interests {
                if i.requester == Requester::Local {
                    let (qid_i, _) = &i.query;
                    if qid_i.0 != u64::MAX {
                        local_qids.insert(*qid_i);
                    }
                }
            }
            for q in local_qids {
                *self.ingress_bytes.entry(q).or_insert(0) += object.size;
            }
        }

        // The object may also satisfy interests registered under *other*
        // names — a panorama or an approximate substitute covers the same
        // label as the exact object someone asked for.
        let mut served_label_targets: BTreeSet<NodeId> = neighbor_targets.clone();
        for label in &object.covers {
            let provider_names: Vec<Name> = self
                .catalog()
                .providers_of(label)
                .iter()
                .map(|&i| self.catalog().get(i).name.clone())
                .filter(|n| *n != object.name)
                .collect();
            for name in provider_names {
                // The object resolves whatever subset of each interest's
                // labels it covers; forward it, then re-request the rest.
                let (served, reforward) = self.whittle_interests(&name, |l| object.covers_label(l));
                for (nb, tag) in served {
                    if served_label_targets.insert(nb) {
                        self.stats.data_forwarded += 1;
                        ctx.send(
                            nb,
                            AthenaMsg::Data {
                                object: object.clone(),
                                push_to: None,
                                for_query: tag,
                            },
                        );
                    }
                }
                if !reforward.is_empty() {
                    self.reforward_request(ctx, &name, reforward);
                }
            }
        }
        // Annotate for any local query that cares (origin-side evaluation).
        self.annotate_object(ctx, &object);
        self.advance_queries(ctx);
    }

    /// Handles a shared label: cache, apply, serve matching interests,
    /// forward toward the data source.
    #[allow(clippy::too_many_arguments)]
    fn handle_label_share(
        &mut self,
        ctx: &mut Context<'_, AthenaMsg>,
        from: NodeId,
        label: Label,
        value: bool,
        sampled_at: SimTime,
        validity: SimDuration,
        annotator: NodeId,
        based_on: Name,
        for_query: Option<QueryId>,
    ) {
        let now = ctx.now();
        let me = ctx.node();
        self.apply_shared_label(
            &label, value, sampled_at, validity, annotator, &based_on, now,
        );

        // Serve pending interests that wanted an object *for this label*.
        if self.shared.config.trust.accepts(annotator) {
            let provider_names: Vec<Name> = self
                .catalog()
                .providers_of(&label)
                .iter()
                .map(|&i| self.catalog().get(i).name.clone())
                .collect();
            for name in provider_names {
                // Local interests are satisfied via apply_shared_label;
                // neighbours get the share, in node order.
                let (served, reforward) = self.whittle_interests(&name, |l| *l == label);
                if !reforward.is_empty() {
                    self.reforward_request(ctx, &name, reforward);
                }
                let mut targets: BTreeMap<NodeId, Option<QueryId>> = BTreeMap::new();
                for (nb, tag) in served {
                    targets.entry(nb).or_insert(tag);
                }
                for (nb, nb_query) in targets {
                    self.stats.labels_forwarded += 1;
                    ctx.send(
                        nb,
                        AthenaMsg::LabelShare {
                            label: label.clone(),
                            value,
                            sampled_at,
                            validity,
                            annotator,
                            based_on: based_on.clone(),
                            for_query: nb_query.or(for_query),
                        },
                    );
                }
            }
        }

        // Propagate toward the data source so future requests en route can
        // be served (§VI-D).
        if let Some(spec) = self.catalog().by_name(&based_on) {
            if spec.source != me {
                if let Some(hop) = ctx.next_hop_toward(spec.source) {
                    if hop != from {
                        ctx.send(
                            hop,
                            AthenaMsg::LabelShare {
                                label,
                                value,
                                sampled_at,
                                validity,
                                annotator,
                                based_on,
                                for_query,
                            },
                        );
                    }
                }
            }
        }
        self.advance_queries(ctx);
    }

    /// Processes the background prefetch queue: one source-side push per
    /// tick, and only when no local foreground fetch is outstanding
    /// ("the prefetch queue is only processed in the background", §VI-A).
    fn process_prefetch(&mut self, ctx: &mut Context<'_, AthenaMsg>) {
        let now = ctx.now();
        let me = ctx.node();
        let foreground_busy = self
            .queries
            .values()
            .any(|q| !q.status.is_final() && q.outstanding.is_some());
        if foreground_busy {
            return;
        }
        while let Some(task) = self.prefetch_queue.pop_front() {
            if task.deadline_at <= now {
                continue; // stale task
            }
            let (spec_name, spec_validity, spec_source) = {
                let spec = self.catalog().get(task.object_idx);
                (spec.name.clone(), spec.validity, spec.source)
            };
            debug_assert_eq!(spec_source, me);
            if task.origin == me {
                continue; // our own upcoming query; nothing to push to
            }
            let Some(hop) = ctx.next_hop_toward(task.origin) else {
                continue;
            };
            // Dedup: skip if we pushed this object on this link recently
            // (within its validity).
            let key = (spec_name, hop);
            if let Some(&last) = self.recent_pushes.get(&key) {
                if now.saturating_since(last) < spec_validity {
                    continue;
                }
            }
            let name = key.0.clone();
            if self.triage_redundant(ctx, hop, &name, now) {
                continue; // a very similar view was just pushed this way
            }
            let object = self.sample_and_store(ctx, task.object_idx, Some(task.qid.0));
            self.recent_pushes.insert(key, now);
            self.stats.prefetch_pushes += 1;
            if ctx.obs_enabled() {
                ctx.emit(EventKind::PrefetchPush {
                    name: object.name.to_string(),
                    toward: hop.index() as u32,
                    query: Some(task.qid.0),
                });
            }
            ctx.send(
                hop,
                AthenaMsg::Data {
                    object,
                    push_to: Some(task.origin),
                    for_query: Some(task.qid),
                },
            );
            break; // one push per tick keeps prefetch in the background
        }
    }
}

impl AthenaNode {
    /// Floods `qid`'s decision structure to every neighbour but `skip`
    /// (`Query_Init` step iv, and its relay by `Query_Recv`).
    fn flood_announce(
        ctx: &mut Context<'_, AthenaMsg>,
        qid: QueryId,
        origin: NodeId,
        expr: &Dnf,
        deadline_at: SimTime,
        skip: Option<NodeId>,
    ) {
        let neighbors: Vec<NodeId> = ctx
            .topology()
            .neighbors(ctx.node())
            .filter(|n| Some(*n) != skip)
            .collect();
        for nb in neighbors {
            ctx.send(
                nb,
                AthenaMsg::QueryAnnounce {
                    qid,
                    origin,
                    expr: expr.clone(),
                    deadline_at,
                },
            );
        }
    }

    /// Floods the decision structure of a query that has not been issued
    /// yet, giving sources a prefetching head start (§VIII).
    fn announce_only(&mut self, ctx: &mut Context<'_, AthenaMsg>, inst: QueryInstance) {
        let qid = QueryId(inst.id);
        if !self.seen_announces.insert(qid) {
            return;
        }
        let deadline_at = inst.issue_at + inst.deadline;
        Self::flood_announce(ctx, qid, ctx.node(), &inst.expr, deadline_at, None);
    }
}

impl Protocol for AthenaNode {
    type Msg = AthenaMsg;
    type Ext = AthenaEvent;

    fn on_external(&mut self, ctx: &mut Context<'_, AthenaMsg>, event: AthenaEvent) {
        let inst = match event {
            AthenaEvent::Issue(inst) => inst,
            AthenaEvent::AnnounceOnly(inst) => {
                self.announce_only(ctx, inst);
                return;
            }
        };
        let now = ctx.now();
        let me = ctx.node();
        debug_assert_eq!(inst.origin, me, "query delivered to wrong node");
        let qid = QueryId(inst.id);
        let labels = inst.expr.labels();
        let candidates =
            self.shared
                .config
                .strategy
                .candidates(&labels, self.catalog(), me, ctx.topology());
        let state = QueryState::new(qid, inst.expr, now, inst.deadline);
        let deadline_at = state.deadline_at;
        if ctx.obs_enabled() {
            ctx.emit(EventKind::QueryInit {
                query: qid.0,
                origin: me.index() as u32,
            });
        }
        self.plans.insert(qid, (candidates, labels));
        self.seen_announces.insert(qid);
        // Admission gate (adaptive mode): the policy rules before any
        // announce or fetch leaves this node, and before the query itself
        // counts as active. Gated queries still get their state and
        // deadline timer, so reporting counts them against resolution like
        // any other miss.
        self.admit(ctx, qid, &state.expr, deadline_at, 0);
        self.queries.insert(qid, state);
        // Deadline timer: tag = qid + 1 (0 is the tick).
        ctx.set_timer_at(deadline_at, qid.0 + 1);
        self.advance_queries(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, AthenaMsg>, from: NodeId, msg: AthenaMsg) {
        match msg {
            AthenaMsg::QueryAnnounce {
                qid,
                origin,
                expr,
                deadline_at,
            } => {
                if !self.seen_announces.insert(qid) {
                    return;
                }
                self.stats.announces_relayed += 1;
                let me = ctx.node();
                Self::flood_announce(ctx, qid, origin, &expr, deadline_at, Some(from));
                if self.shared.config.prefetch_enabled() && ctx.now() < deadline_at {
                    let labels = expr.labels();
                    let candidates = self.shared.config.strategy.candidates(
                        &labels,
                        self.catalog(),
                        origin,
                        ctx.topology(),
                    );
                    for idx in candidates {
                        if self.catalog().get(idx).source == me {
                            self.prefetch_queue.push_back(PushTask {
                                object_idx: idx,
                                origin,
                                qid,
                                deadline_at,
                            });
                        }
                    }
                    if !self.prefetch_queue.is_empty() {
                        self.arm_tick(ctx);
                    }
                }
            }
            AthenaMsg::Request {
                name,
                wanted,
                qid,
                origin,
                kind,
            } => {
                self.handle_request(ctx, from, name, wanted, qid, origin, kind);
            }
            AthenaMsg::Data {
                object,
                push_to,
                for_query,
            } => {
                self.handle_data(ctx, object, push_to, for_query);
            }
            AthenaMsg::LabelShare {
                label,
                value,
                sampled_at,
                validity,
                annotator,
                based_on,
                for_query,
            } => {
                self.handle_label_share(
                    ctx, from, label, value, sampled_at, validity, annotator, based_on, for_query,
                );
            }
        }
    }

    /// Crash recovery (fault injection): volatile forwarding state is gone;
    /// caches survive or not per [`NodeConfig::crash_wipes_cache`]. Open
    /// queries restart their retrieval loop — the in-flight fetch is
    /// forgotten (its reply, if any, was dropped while we were down),
    /// deadline timers are re-armed (timers that fired during the outage
    /// were swallowed), and the decision structure is re-announced so
    /// sources can resume prefetching.
    fn on_recover(&mut self, ctx: &mut Context<'_, AthenaMsg>) {
        let now = ctx.now();
        let me = ctx.node();
        self.pit = Pit::new();
        self.prefetch_queue.clear();
        self.recent_pushes.clear();
        self.recent_bg.clear();
        self.votes.clear();
        self.tick_armed = false;
        if self.shared.config.crash_wipes_cache {
            self.content = ContentStore::new(self.shared.config.cache_capacity);
            self.labels.clear();
        }
        for (qid, q) in self.queries.iter_mut() {
            if q.check(now).is_final() {
                continue;
            }
            q.outstanding = None;
            // Queries the admission gate is holding back were never
            // announced; they re-face the gate in the retrieval loop
            // instead of being re-announced here.
            if self.admission.contains_key(qid) {
                continue;
            }
            Self::flood_announce(ctx, *qid, me, &q.expr, q.deadline_at, None);
            ctx.set_timer_at(q.deadline_at, qid.0 + 1);
        }
        self.advance_queries(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, AthenaMsg>, tag: u64) {
        if tag == TICK_TAG {
            self.tick_armed = false;
            self.pit.expire(ctx.now());
            self.advance_queries(ctx);
            self.process_prefetch(ctx);
            if self.has_pending_work(ctx.now()) {
                self.arm_tick(ctx);
            }
        } else {
            // Deadline for query (tag - 1).
            let qid = QueryId(tag - 1);
            if let Some(q) = self.queries.get_mut(&qid) {
                q.check(ctx.now());
            }
            self.fold_finished_into_load();
            self.emit_query_outcomes(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::GroundTruthAnnotator;
    use dde_logic::dnf::{Dnf, Term};
    use dde_netsim::shard::ShardedSimulator;
    use dde_netsim::topology::{LinkSpec, Topology};
    use dde_obs::{MemorySink, SharedSink};
    use dde_sched::adaptive::AdmissionPolicy;
    use dde_workload::catalog::ObjectSpec;
    use dde_workload::scenario::QueryInstance;
    use dde_workload::world::DynamicsClass;

    /// A 4-node star — leaf 0, hub 1, leaf 2, source-leaf 3 — with two
    /// labels: `x` covered by a cheap camera and a wide shot (both hosted
    /// at node 3); `y` covered only by the wide shot. Requests from either
    /// leaf transit the hub, which is where caching/label effects show.
    fn harness(config: NodeConfig) -> (ShardedSimulator<AthenaNode>, Arc<SharedWorld>) {
        let mut topology = Topology::new(4);
        topology.add_link(NodeId(0), NodeId(1), LinkSpec::mbps1());
        topology.add_link(NodeId(1), NodeId(2), LinkSpec::mbps1());
        topology.add_link(NodeId(1), NodeId(3), LinkSpec::mbps1());
        topology.rebuild_routes();
        let slow = SimDuration::from_secs(600);
        let mut world = WorldModel::new(4);
        world.register(Label::new("x"), DynamicsClass::Slow, slow, 1.0);
        world.register(Label::new("y"), DynamicsClass::Slow, slow, 1.0);
        let mut catalog = Catalog::new();
        catalog.add(ObjectSpec {
            name: "/city/seg/x/cam/a".parse().unwrap(),
            covers: vec![Label::new("x")],
            size: 250_000,
            source: NodeId(3),
            class: DynamicsClass::Slow,
            validity: slow,
        });
        catalog.add(ObjectSpec {
            name: "/city/seg/x/cam/wide".parse().unwrap(),
            covers: vec![Label::new("x"), Label::new("y")],
            size: 450_000,
            source: NodeId(3),
            class: DynamicsClass::Slow,
            validity: slow,
        });
        let shared = Arc::new(SharedWorld {
            catalog,
            world,
            config,
        });
        let nodes: Vec<AthenaNode> = (0..4)
            .map(|_| AthenaNode::new(Arc::clone(&shared), Arc::new(GroundTruthAnnotator)))
            .collect();
        (ShardedSimulator::new(topology, nodes, 1, 1), shared)
    }

    fn query(id: u64, origin: usize, labels: &[&str]) -> QueryInstance {
        QueryInstance {
            id,
            origin: NodeId(origin),
            expr: Dnf::from_terms(vec![Term::all_of(labels.iter().copied())]),
            deadline: SimDuration::from_secs(60),
            issue_at: SimTime::ZERO,
        }
    }

    #[test]
    fn local_source_resolves_without_network() {
        let (mut sim, _) = harness(NodeConfig::new(Strategy::Lvf));
        sim.schedule_external(SimTime::ZERO, NodeId(3), query(0, 3, &["x"]).into());
        sim.run();
        let node = sim.node(NodeId(3));
        let q = node.queries().next().unwrap();
        assert!(matches!(
            q.status,
            crate::query::QueryStatus::Decided { .. }
        ));
        assert_eq!(q.counters.requests_sent, 0, "co-located evidence is free");
        assert!(node.stats.local_samples >= 1);
        assert_eq!(sim.metrics().kind("data").count, 0);
    }

    #[test]
    fn remote_fetch_travels_hop_by_hop() {
        let (mut sim, _) = harness(NodeConfig::new(Strategy::Lvf));
        sim.schedule_external(SimTime::ZERO, NodeId(0), query(0, 0, &["x"]).into());
        sim.run();
        let q = sim.node(NodeId(0)).queries().next().unwrap();
        assert!(matches!(
            q.status,
            crate::query::QueryStatus::Decided { .. }
        ));
        // Data crossed both hops: the forwarder relayed it.
        assert!(sim.node(NodeId(1)).stats.requests_forwarded >= 1);
        assert!(sim.node(NodeId(1)).stats.data_forwarded >= 1);
        // ...and cached a copy along the way.
        assert!(sim
            .node(NodeId(1))
            .content_store()
            .peek(&"/city/seg/x/cam/a".parse().unwrap())
            .is_some());
    }

    #[test]
    fn forwarder_cache_serves_second_query() {
        let (mut sim, _) = harness(NodeConfig::new(Strategy::Lvf));
        sim.schedule_external(SimTime::ZERO, NodeId(0), query(0, 0, &["x"]).into());
        // Leaf 2 asks later for the same label; the hub cached the transit
        // copy of the first fetch and answers directly.
        sim.schedule_external(
            SimTime::from_secs(20),
            NodeId(2),
            query(1, 2, &["x"]).into(),
        );
        sim.run();
        let q1 = sim.node(NodeId(2)).queries().next().unwrap();
        assert!(matches!(
            q1.status,
            crate::query::QueryStatus::Decided { .. }
        ));
        assert!(sim.node(NodeId(1)).stats.cache_hits >= 1);
        // First fetch: 3→1, 1→0. Second: 1→2 from cache. Three data sends.
        assert_eq!(sim.metrics().kind("data").count, 3);
    }

    #[test]
    fn pit_aggregates_concurrent_fetches() {
        let (mut sim, _) = harness(NodeConfig::new(Strategy::Lvf));
        // Both leaves want the same object at the same time; their requests
        // meet at the hub, whose PIT forwards only one upstream.
        sim.schedule_external(SimTime::ZERO, NodeId(0), query(0, 0, &["x"]).into());
        sim.schedule_external(SimTime::ZERO, NodeId(2), query(1, 2, &["x"]).into());
        sim.run();
        for n in [0usize, 2] {
            let q = sim.node(NodeId(n)).queries().next().unwrap();
            assert!(matches!(
                q.status,
                crate::query::QueryStatus::Decided { .. }
            ));
        }
        // The source transmitted once (3→1); the hub fanned out to both
        // leaves: 3 data transmissions total, not 4.
        assert_eq!(sim.metrics().kind("data").count, 3);
    }

    #[test]
    fn label_sharing_serves_request_with_label() {
        let (mut sim, _) = harness(NodeConfig::new(Strategy::LvfLabelShare));
        // Leaf 2 resolves x first and (lvfl) shares the label toward the
        // source; the hub caches it in transit.
        sim.schedule_external(SimTime::ZERO, NodeId(2), query(0, 2, &["x"]).into());
        // Leaf 0 asks later; its request stops at the hub's cached label.
        sim.schedule_external(
            SimTime::from_secs(30),
            NodeId(0),
            query(1, 0, &["x"]).into(),
        );
        sim.run();
        let q1 = sim.node(NodeId(0)).queries().next().unwrap();
        assert!(matches!(
            q1.status,
            crate::query::QueryStatus::Decided { .. }
        ));
        assert!(
            sim.node(NodeId(1)).stats.label_hits >= 1,
            "the hub should answer with its cached label"
        );
        assert_eq!(
            q1.counters.labels_from_shares, 1,
            "leaf 0 learned x from a shared label"
        );
        // Only the first query moved object bytes (3→1, 1→2).
        assert_eq!(sim.metrics().kind("data").count, 2);
        assert!(sim.metrics().kind("label").count >= 1);
    }

    #[test]
    fn headroom_refuses_nearly_expired_cache() {
        // With an absurd headroom the hub's cache never serves: the second
        // leaf's request goes all the way to the source (4 data sends,
        // versus 3 with the default headroom — see
        // forwarder_cache_serves_second_query).
        let mut config = NodeConfig::new(Strategy::Lvf);
        config.serve_headroom = SimDuration::from_secs(1_000_000); // absurd
        let (mut sim, _) = harness(config);
        sim.schedule_external(SimTime::ZERO, NodeId(0), query(0, 0, &["x"]).into());
        sim.schedule_external(
            SimTime::from_secs(20),
            NodeId(2),
            query(1, 2, &["x"]).into(),
        );
        sim.run();
        assert_eq!(sim.metrics().kind("data").count, 4);
        assert_eq!(sim.node(NodeId(1)).stats.cache_hits, 0);
    }

    #[test]
    fn wanted_labels_from_panorama_resolve_together() {
        let (mut sim, _) = harness(NodeConfig::new(Strategy::Lvf));
        // One query needing both labels: the cover picks the wide camera
        // (600 KB for two labels beats 250 + 600).
        sim.schedule_external(SimTime::ZERO, NodeId(0), query(0, 0, &["x", "y"]).into());
        sim.run();
        let q = sim.node(NodeId(0)).queries().next().unwrap();
        assert!(matches!(
            q.status,
            crate::query::QueryStatus::Decided { .. }
        ));
        assert_eq!(
            q.counters.requests_sent, 1,
            "one wide fetch should resolve both labels"
        );
    }

    #[test]
    fn deadline_timer_finalizes_unresolvable_query() {
        let (mut sim, _) = harness(NodeConfig::new(Strategy::Lvf));
        // A label nobody provides: the query can never resolve.
        sim.schedule_external(SimTime::ZERO, NodeId(0), query(0, 0, &["ghost"]).into());
        sim.run();
        let q = sim.node(NodeId(0)).queries().next().unwrap();
        assert_eq!(q.status, crate::query::QueryStatus::Missed);
        assert_eq!(sim.metrics().kind("data").count, 0);
    }

    /// An admission gate that rules against any query issued while another
    /// local query is active (zero budget, zero overload threshold) and
    /// admits when none is; `max_defers == 0` sheds instead of deferring.
    fn gated(max_defers: u32) -> NodeConfig {
        let mut config = NodeConfig::new(Strategy::Lvf);
        config.adaptive = Some(AdaptiveConfig {
            admission: Some(AdmissionPolicy {
                budget_bytes: 0,
                overload_bytes: 0,
                min_active: 1,
                defer_for: SimDuration::from_secs(5),
                max_defers,
            }),
            ..AdaptiveConfig::default()
        });
        config
    }

    /// Runs queries 0 (`x`) and 1 (`y`), both issued at leaf 0 at time
    /// zero, under `config`; returns the simulator and node 0's records
    /// that concern query 1.
    fn run_gated(config: NodeConfig) -> (ShardedSimulator<AthenaNode>, Vec<EventKind>) {
        let (mut sim, _) = harness(config);
        let sink = SharedSink::new(MemorySink::new());
        sim.set_sink(Box::new(sink.clone()));
        sim.schedule_external(SimTime::ZERO, NodeId(0), query(0, 0, &["x"]).into());
        sim.schedule_external(SimTime::ZERO, NodeId(0), query(1, 0, &["y"]).into());
        sim.run();
        let events = sink.with(|m| {
            m.events()
                .iter()
                .filter(|r| r.node == 0)
                .map(|r| r.kind.clone())
                .filter(|k| match k {
                    EventKind::Admission { query, .. } | EventKind::Plan { query, .. } => {
                        *query == 1
                    }
                    EventKind::Transmit { msg, query, .. } => {
                        *msg == "announce" && *query == Some(1)
                    }
                    _ => false,
                })
                .collect()
        });
        (sim, events)
    }

    fn tag(kind: &EventKind) -> &'static str {
        match kind {
            EventKind::Admission { verdict, .. } => verdict,
            other => other.kind_name(),
        }
    }

    #[test]
    fn deferred_query_announces_once_when_admitted() {
        let (sim, events) = run_gated(gated(3));
        let tags: Vec<&str> = events.iter().map(tag).collect();
        // Deferred at issue (query 0 is active), admitted once query 0 has
        // decided: `admission` precedes `plan`, and the single announce
        // (leaf 0 has one neighbour) leaves only after the admit.
        let admit = tags.iter().position(|t| *t == "admit").expect("admitted");
        assert_eq!(tags[0], "defer", "{tags:?}");
        assert!(tags[..admit].iter().all(|t| *t == "defer"), "{tags:?}");
        assert_eq!(tags[admit + 1..], ["plan", "transmit"], "{tags:?}");
        let node = sim.node(NodeId(0));
        assert_eq!(node.stats.admission_deferred, admit as u64);
        assert!(node.admission.is_empty(), "admitted queries leave the map");
        assert!(node
            .queries()
            .all(|q| q.status.is_final() && q.status != crate::query::QueryStatus::Missed));
    }

    #[test]
    fn shed_query_never_announces() {
        let (sim, events) = run_gated(gated(0));
        let tags: Vec<&str> = events.iter().map(tag).collect();
        assert_eq!(tags, ["shed"]);
        let node = sim.node(NodeId(0));
        assert_eq!(node.stats.admission_shed, 1);
        let q1 = node.queries().find(|q| q.id == QueryId(1)).unwrap();
        assert_eq!(q1.status, crate::query::QueryStatus::Missed);
        assert_eq!(q1.counters.requests_sent, 0);
    }

    #[test]
    fn prefetch_config_default_off() {
        let config = NodeConfig::new(Strategy::Lvf);
        assert!(!config.prefetch_enabled());
        let mut on = NodeConfig::new(Strategy::Comprehensive);
        on.prefetch = Some(true);
        assert!(on.prefetch_enabled());
    }

    #[test]
    fn cached_label_freshness() {
        let c = CachedLabel {
            value: true,
            sampled_at: SimTime::from_secs(10),
            validity: SimDuration::from_secs(5),
            annotator: NodeId(0),
            based_on: "/x".parse().unwrap(),
        };
        assert!(c.is_fresh_at(SimTime::from_secs(15)));
        assert!(!c.is_fresh_at(SimTime::from_secs(16)));
    }

    #[test]
    fn reliability_score_defaults_to_optimistic() {
        let (sim, _) = harness(NodeConfig::new(Strategy::Lvf));
        let node = sim.node(NodeId(0));
        assert_eq!(node.reliability_of(NodeId(3)), (0, 0));
        assert_eq!(node.reliability_score(NodeId(3)), 1.0);
    }
}
