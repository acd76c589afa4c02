//! The discrete-event simulation engine: conservative parallel execution
//! over topology regions.
//!
//! [`ShardedSimulator`] partitions the topology into regions
//! ([`crate::partition`]), pins each region to a worker thread, and
//! advances the whole simulation in **barrier windows**: every window
//! `[start, end)` starts at the globally earliest pending event and ends
//! at `start + lookahead` (clamped by the next scheduled fault and the
//! caller's deadline), where the lookahead is the minimum latency over any
//! boundary link. A message crossing a region boundary departs no earlier
//! than `start` and spends at least the lookahead in flight, so it cannot
//! arrive inside the window that produced it — each region can process its
//! window independently and boundary deliveries are exchanged at the
//! barrier.
//!
//! # Why a given seed is byte-identical for any thread count
//!
//! Thread interleaving influences nothing observable:
//!
//! - **Event order.** Each region's heap orders events by
//!   `(time, `[`EventKey`]`)`, where the key is derived from simulation
//!   state only (event class, owning node/link, a per-owner occurrence
//!   counter) — never from a global insertion sequence. Restricting the
//!   global `(time, key)` order to one region's events yields the same
//!   relative order under any partitioning, and handlers only touch their
//!   own node's state and their own node's outgoing links, so cross-node
//!   order within a window is immaterial.
//! - **Trace order.** Records are tagged with a [`MergeKey`] (timestamp,
//!   event key, per-event emission index) and sorted per window by
//!   [`ShardMerger`] before reaching the caller's sink.
//! - **Loss sampling.** Instead of a shared RNG (whose draw order would
//!   depend on the partition), loss is a counter-based hash of
//!   `(seed, link, transmission index)` — stateless and
//!   partition-independent.
//! - **Faults.** The coordinator owns the master topology and applies all
//!   faults scheduled for an instant atomically at a barrier, then ships
//!   purge/recover side effects to the owning regions.
//! - **Metrics.** Per-region counters are pure sums, folded with
//!   [`Metrics::absorb`].

use crate::fault::{FaultEvent, FaultSchedule};
use crate::metrics::Metrics;
use crate::partition::Partition;
use crate::sim::{Command, Context, LinkState, MediumMode, Protocol, WireMessage};
use crate::topology::{NodeId, Topology};
use dde_logic::time::{SimDuration, SimTime};
use dde_obs::merge::{MergeKey, ShardMerger};
use dde_obs::{EventKind, NullSink, Sink, TraceRecord};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;

/// Event class ranks: at equal timestamps, classes dispatch in this order.
const CLASS_START: u64 = 0;
const CLASS_FAULT: u64 = 1;
const CLASS_EXTERNAL: u64 = 2;
const CLASS_TIMER: u64 = 3;
const CLASS_LINK_FREE: u64 = 4;
const CLASS_DELIVER: u64 = 5;

/// A stable, partition-independent identity for a scheduled event.
///
/// Same-timestamp events order by this key instead of a heap insertion
/// sequence, so the dispatch order is a property of the *simulation*, not
/// of which thread inserted what first. Identity components per class:
///
/// | class       | `a`          | `b`            | `c`                  |
/// |-------------|--------------|----------------|----------------------|
/// | start       | node         | 0              | 0                    |
/// | fault       | install idx  | purge from + 1 | purge to / node + 1  |
/// | external    | install idx  | 0              | 0                    |
/// | timer       | node         | per-node seq   | 0                    |
/// | link-free   | from         | to             | per-link tx seq      |
/// | deliver     | from         | to             | per-link tx seq      |
///
/// Every counter involved (timer seq, tx seq, install idx) is owned by a
/// single node, link, or the coordinator, so its values do not depend on
/// the partitioning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Event class rank (see the table above).
    pub class: u64,
    /// First identity component.
    pub a: u64,
    /// Second identity component.
    pub b: u64,
    /// Third identity component.
    pub c: u64,
}

impl EventKey {
    fn merge_key(&self, at: SimTime, emit: u64) -> MergeKey {
        [at.as_micros(), self.class, self.a, self.b, self.c, emit]
    }

    /// Key for a node's start event.
    pub fn start(node: NodeId) -> EventKey {
        EventKey {
            class: CLASS_START,
            a: node.index() as u64,
            b: 0,
            c: 0,
        }
    }

    /// Key for a coordinator-side fault record, identified by install
    /// index alone.
    pub fn fault_global(idx: u64) -> EventKey {
        EventKey {
            class: CLASS_FAULT,
            a: idx,
            b: 0,
            c: 0,
        }
    }

    /// Key for a delegated link-purge fault action.
    pub fn fault_purge(idx: u64, from: NodeId, to: NodeId) -> EventKey {
        EventKey {
            class: CLASS_FAULT,
            a: idx,
            b: from.index() as u64 + 1,
            c: to.index() as u64 + 1,
        }
    }

    /// Key for a delegated node-recovery fault action.
    pub fn fault_recover(idx: u64, node: NodeId) -> EventKey {
        EventKey {
            class: CLASS_FAULT,
            a: idx,
            b: 0,
            c: node.index() as u64 + 1,
        }
    }

    /// Key for an external stimulus, identified by install index.
    pub fn external(idx: u64) -> EventKey {
        EventKey {
            class: CLASS_EXTERNAL,
            a: idx,
            b: 0,
            c: 0,
        }
    }

    /// Key for a node-owned timer, identified by the per-node sequence.
    pub fn timer(node: NodeId, seq: u64) -> EventKey {
        EventKey {
            class: CLASS_TIMER,
            a: node.index() as u64,
            b: seq,
            c: 0,
        }
    }

    /// Key for a link-free event, identified by the per-link
    /// transmission sequence.
    pub fn link_free(from: NodeId, to: NodeId, txn: u64) -> EventKey {
        EventKey {
            class: CLASS_LINK_FREE,
            a: from.index() as u64,
            b: to.index() as u64,
            c: txn,
        }
    }

    /// Key for a message delivery, identified by the per-link
    /// transmission sequence.
    pub fn deliver(from: NodeId, to: NodeId, txn: u64) -> EventKey {
        EventKey {
            class: CLASS_DELIVER,
            a: from.index() as u64,
            b: to.index() as u64,
            c: txn,
        }
    }
}

/// Stateless counter-based loss draw in `[0, 1)`: a splitmix64 chain over
/// `(seed, from, to, transmission index)`.
fn loss_unit(seed: u64, from: NodeId, to: NodeId, txn: u64) -> f64 {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    let mut h = mix(seed);
    h = mix(h ^ from.index() as u64);
    h = mix(h ^ to.index() as u64);
    h = mix(h ^ txn);
    (h >> 11) as f64 / (1u64 << 53) as f64
}

enum REvent<P: Protocol> {
    Start {
        node: NodeId,
    },
    Deliver {
        to: NodeId,
        from: NodeId,
        msg: P::Msg,
    },
    Timer {
        node: NodeId,
        tag: u64,
    },
    External {
        node: NodeId,
        ext: P::Ext,
    },
    LinkFree {
        from: NodeId,
        to: NodeId,
    },
}

struct RScheduled<P: Protocol> {
    at: SimTime,
    key: EventKey,
    event: REvent<P>,
}

impl<P: Protocol> PartialEq for RScheduled<P> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key
    }
}
impl<P: Protocol> Eq for RScheduled<P> {}
impl<P: Protocol> PartialOrd for RScheduled<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<P: Protocol> Ord for RScheduled<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        (other.at, other.key).cmp(&(self.at, self.key))
    }
}

/// A region-local sink that tags every record with the merge key of the
/// event being dispatched, buffering for the barrier merge.
#[derive(Default)]
struct KeyedSink {
    enabled: bool,
    at: SimTime,
    key: EventKey,
    emit: u64,
    out: Vec<(MergeKey, TraceRecord)>,
}

impl KeyedSink {
    fn begin(&mut self, at: SimTime, key: EventKey) {
        self.at = at;
        self.key = key;
        self.emit = 0;
    }
}

impl Sink for KeyedSink {
    fn enabled(&self) -> bool {
        self.enabled
    }

    fn record(&mut self, rec: &TraceRecord) {
        let key = self.key.merge_key(self.at, self.emit);
        self.emit += 1;
        self.out.push((key, rec.clone()));
    }
}

/// A boundary delivery in flight between regions.
struct CrossDeliver<M> {
    at: SimTime,
    from: NodeId,
    to: NodeId,
    txn: u64,
    msg: M,
}

/// A fault side effect the coordinator delegates to the owning region.
enum FaultAction {
    /// Clear the never-sent queues of the directed link `from → to`.
    Purge { idx: u64, from: NodeId, to: NodeId },
    /// Run [`Protocol::on_recover`] on `node`.
    Recover { idx: u64, node: NodeId },
}

/// One barrier window's worth of work for a region.
struct WindowCmd<P: Protocol> {
    start: SimTime,
    /// Exclusive upper bound on event timestamps this window.
    end: SimTime,
    topology: Arc<Topology>,
    node_up: Arc<Vec<bool>>,
    actions: Vec<FaultAction>,
    inbox: Vec<CrossDeliver<P::Msg>>,
}

/// A region's results for one window.
struct WindowOut<M> {
    region: u32,
    outbox: Vec<CrossDeliver<M>>,
    trace: Vec<(MergeKey, TraceRecord)>,
    next_at: Option<SimTime>,
    events: u64,
}

/// One topology region: the nodes it owns, their outgoing link
/// transmitters, and a stable-key event heap.
struct Region<P: Protocol> {
    id: u32,
    topology: Arc<Topology>,
    node_up: Arc<Vec<bool>>,
    region_of: Arc<Vec<u32>>,
    /// Indexed by global node id; `Some` only for nodes this region owns.
    nodes: Vec<Option<P>>,
    heap: BinaryHeap<RScheduled<P>>,
    links: BTreeMap<(NodeId, NodeId), LinkState<P::Msg>>,
    node_tx_busy: Vec<u32>,
    timer_seq: Vec<u64>,
    tx_seq: BTreeMap<(NodeId, NodeId), u64>,
    metrics: Metrics,
    sink: KeyedSink,
    outbox: Vec<CrossDeliver<P::Msg>>,
    now: SimTime,
    window_end: SimTime,
    events: u64,
    medium: MediumMode,
    seed: u64,
}

impl<P: Protocol> Region<P> {
    fn emit(&mut self, node: NodeId, kind: EventKind) {
        if self.sink.enabled {
            self.sink.record(&TraceRecord {
                at: self.now,
                node: node.index() as u32,
                kind,
            });
        }
    }

    fn run_window(&mut self, mut cmd: WindowCmd<P>) -> WindowOut<P::Msg> {
        self.topology = cmd.topology;
        self.node_up = cmd.node_up;
        self.window_end = cmd.end;
        self.events = 0;
        if self.now < cmd.start {
            self.now = cmd.start;
        }
        for action in cmd.actions {
            self.apply_action(cmd.start, action);
        }
        // Inbox batches are concatenated in region order by the
        // coordinator; re-sorting by the stable identity makes the heap's
        // input independent of that assembly order (R8). Dispatch order is
        // already fixed by the heap's `(at, key)` ordering either way.
        cmd.inbox
            .sort_by_key(|m| (m.at, m.from.index(), m.to.index(), m.txn));
        for inc in cmd.inbox {
            debug_assert!(inc.at >= cmd.start, "boundary delivery arrived late");
            self.heap.push(RScheduled {
                at: inc.at,
                key: EventKey::deliver(inc.from, inc.to, inc.txn),
                event: REvent::Deliver {
                    to: inc.to,
                    from: inc.from,
                    msg: inc.msg,
                },
            });
        }
        while self
            .heap
            .peek()
            .is_some_and(|head| head.at < self.window_end)
        {
            let scheduled = self.heap.pop().expect("peeked entry exists"); // lint: allow(panic) — peek above guarantees an entry
            self.step(scheduled);
        }
        WindowOut {
            region: self.id,
            outbox: std::mem::take(&mut self.outbox),
            trace: std::mem::take(&mut self.sink.out),
            next_at: self.heap.peek().map(|head| head.at),
            events: self.events,
        }
    }

    fn apply_action(&mut self, at: SimTime, action: FaultAction) {
        debug_assert!(at >= self.now);
        self.now = at;
        match action {
            FaultAction::Purge { idx, from, to } => {
                self.sink.begin(at, EventKey::fault_purge(idx, from, to));
                self.purge_link_queues(from, to);
            }
            FaultAction::Recover { idx, node } => {
                self.sink.begin(at, EventKey::fault_recover(idx, node));
                let mut commands = Vec::new();
                {
                    let mut ctx = Context::new(
                        self.now,
                        node,
                        &self.topology,
                        &mut commands,
                        &mut self.sink,
                    );
                    self.nodes[node.index()]
                        .as_mut()
                        .expect("recover action routed to the owning region") // lint: allow(panic) — coordinator routes by region_of
                        .on_recover(&mut ctx);
                }
                self.process_commands(node, commands);
            }
        }
    }

    fn step(&mut self, scheduled: RScheduled<P>) {
        let RScheduled { at, key, event } = scheduled;
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.events += 1;
        self.sink.begin(at, key);

        if let REvent::LinkFree { from, to } = event {
            self.link_freed(from, to);
            return;
        }
        let node_id = match &event {
            REvent::Start { node } | REvent::Timer { node, .. } | REvent::External { node, .. } => {
                *node
            }
            REvent::Deliver { to, .. } => *to,
            REvent::LinkFree { .. } => unreachable!("handled above"),
        };
        if let REvent::Deliver { from, to, .. } = &event {
            // The link went down (by fault) while the message was in
            // flight: it never arrives.
            if !self.topology.is_link_enabled(*from, *to) {
                self.metrics.messages_dropped += 1;
                self.metrics.messages_dropped_by_fault += 1;
                let (from, to) = (*from, *to);
                self.emit(
                    to,
                    EventKind::Drop {
                        from: from.index() as u32,
                        to: to.index() as u32,
                        reason: "link-down",
                    },
                );
                return;
            }
        }
        if !self.node_up[node_id.index()] {
            if let REvent::Deliver { from, to, .. } = &event {
                self.metrics.messages_dropped += 1;
                if !self.topology.is_node_enabled(node_id) {
                    self.metrics.messages_dropped_by_fault += 1;
                }
                let (from, to) = (*from, *to);
                self.emit(
                    to,
                    EventKind::Drop {
                        from: from.index() as u32,
                        to: to.index() as u32,
                        reason: "node-down",
                    },
                );
            }
            return;
        }
        if let REvent::Deliver { from, to, msg } = &event {
            let kind = msg.kind();
            let (from, to) = (*from, *to);
            self.emit(
                to,
                EventKind::Deliver {
                    from: from.index() as u32,
                    to: to.index() as u32,
                    msg: kind,
                    query: msg.attribution(),
                },
            );
        }

        let mut commands = Vec::new();
        {
            let mut ctx = Context::new(
                self.now,
                node_id,
                &self.topology,
                &mut commands,
                &mut self.sink,
            );
            let node = self.nodes[node_id.index()]
                .as_mut()
                .expect("event dispatched to a node this region owns"); // lint: allow(panic) — scheduling routes by region_of
            match event {
                REvent::Start { .. } => node.on_start(&mut ctx),
                REvent::Deliver { from, msg, .. } => {
                    self.metrics.messages_delivered += 1;
                    node.on_message(&mut ctx, from, msg)
                }
                REvent::Timer { tag, .. } => node.on_timer(&mut ctx, tag),
                REvent::External { ext, .. } => node.on_external(&mut ctx, ext),
                REvent::LinkFree { .. } => unreachable!("handled above"),
            }
        }
        self.process_commands(node_id, commands);
    }

    fn process_commands(&mut self, node_id: NodeId, commands: Vec<Command<P::Msg>>) {
        for cmd in commands {
            match cmd {
                Command::Send { to, msg } => self.transmit(node_id, to, msg),
                Command::Timer { at, tag } => {
                    let seq = self.timer_seq[node_id.index()];
                    self.timer_seq[node_id.index()] += 1;
                    self.heap.push(RScheduled {
                        at,
                        key: EventKey::timer(node_id, seq),
                        event: REvent::Timer { node: node_id, tag },
                    });
                }
            }
        }
    }

    fn transmit(&mut self, from: NodeId, to: NodeId, msg: P::Msg) {
        let node_blocked =
            self.medium == MediumMode::HalfDuplexTx && self.node_tx_busy[from.index()] > 0;
        let link = self.links.entry((from, to)).or_default();
        if link.busy || node_blocked {
            if msg.background() {
                link.background.push_back(msg);
            } else {
                link.foreground.push_back(msg);
            }
        } else {
            self.start_transmission(from, to, msg);
        }
    }

    fn start_transmission(&mut self, from: NodeId, to: NodeId, msg: P::Msg) {
        let Some(spec) = self.topology.link(from, to) else {
            // Context::try_send checks adjacency, so this is unreachable
            // from well-formed command streams; degrade to a counted drop
            // rather than a panic (same policy as the send path).
            debug_assert!(false, "transmission on non-existent link {from}->{to}");
            self.metrics.messages_lost += 1;
            self.emit(
                from,
                EventKind::Drop {
                    from: from.index() as u32,
                    to: to.index() as u32,
                    reason: "not-neighbor",
                },
            );
            return;
        };
        let bytes = msg.wire_size();
        let depart = self.now + spec.transmission_time(bytes);
        self.links.entry((from, to)).or_default().busy = true;
        self.node_tx_busy[from.index()] += 1;
        self.metrics.record_send(from, to, bytes, msg.kind());
        self.emit(
            from,
            EventKind::Transmit {
                from: from.index() as u32,
                to: to.index() as u32,
                msg: msg.kind(),
                bytes,
                background: msg.background(),
                query: msg.attribution(),
            },
        );
        let txn = {
            let counter = self.tx_seq.entry((from, to)).or_insert(0);
            let txn = *counter;
            *counter += 1;
            txn
        };
        let lost = spec.loss > 0.0 && loss_unit(self.seed, from, to, txn) < spec.loss;
        if !lost {
            let arrival = depart + spec.latency;
            if self.region_of[to.index()] == self.id {
                self.heap.push(RScheduled {
                    at: arrival,
                    key: EventKey::deliver(from, to, txn),
                    event: REvent::Deliver { to, from, msg },
                });
            } else {
                // Conservative lookahead at work: a boundary delivery can
                // never land inside the window that produced it.
                debug_assert!(arrival >= self.window_end, "lookahead violation");
                self.outbox.push(CrossDeliver {
                    at: arrival,
                    from,
                    to,
                    txn,
                    msg,
                });
            }
        } else {
            self.metrics.messages_lost += 1;
            self.emit(
                from,
                EventKind::Loss {
                    from: from.index() as u32,
                    to: to.index() as u32,
                    msg: msg.kind(),
                    bytes,
                    query: msg.attribution(),
                },
            );
        }
        self.heap.push(RScheduled {
            at: depart,
            key: EventKey::link_free(from, to, txn),
            event: REvent::LinkFree { from, to },
        });
    }

    fn link_freed(&mut self, from: NodeId, to: NodeId) {
        self.links.entry((from, to)).or_default().busy = false;
        self.node_tx_busy[from.index()] = self.node_tx_busy[from.index()].saturating_sub(1);
        match self.medium {
            MediumMode::FullDuplex => {
                let link = self.links.entry((from, to)).or_default();
                let next = link
                    .foreground
                    .pop_front()
                    .or_else(|| link.background.pop_front());
                if let Some(msg) = next {
                    self.start_transmission(from, to, msg);
                }
            }
            MediumMode::HalfDuplexTx => {
                if self.node_tx_busy[from.index()] > 0 {
                    return; // radio already claimed again
                }
                let neighbors: Vec<NodeId> = self.topology.neighbors(from).collect();
                // Foreground from any link first, then background.
                for foreground in [true, false] {
                    for &nb in &neighbors {
                        let Some(link) = self.links.get_mut(&(from, nb)) else {
                            continue;
                        };
                        if link.busy {
                            continue;
                        }
                        let next = if foreground {
                            link.foreground.pop_front()
                        } else {
                            link.background.pop_front()
                        };
                        if let Some(msg) = next {
                            self.start_transmission(from, nb, msg);
                            return;
                        }
                    }
                }
            }
        }
    }

    fn purge_link_queues(&mut self, from: NodeId, to: NodeId) {
        if let Some(link) = self.links.get_mut(&(from, to)) {
            let purged = (link.foreground.len() + link.background.len()) as u64;
            link.foreground.clear();
            link.background.clear();
            self.metrics.messages_purged_by_fault += purged;
            if purged > 0 {
                self.emit(
                    from,
                    EventKind::Purge {
                        from: from.index() as u32,
                        to: to.index() as u32,
                        count: purged,
                    },
                );
            }
        }
    }
}

/// A fault installed by the coordinator, in global install order.
struct InstalledFault {
    at: SimTime,
    idx: u64,
    event: FaultEvent,
}

/// The discrete-event simulator.
///
/// Construct, `set_medium`/`set_sink`, `install_faults`,
/// `schedule_external`, then [`run`](ShardedSimulator::run) or
/// [`run_until`](ShardedSimulator::run_until). With `threads == 1`
/// everything runs inline on the calling thread; with more threads each
/// region runs on its own scoped worker for the duration of the run. The
/// outcome is the same either way.
///
/// # Examples
///
/// A two-node ping-pong:
///
/// ```
/// use dde_netsim::prelude::*;
///
/// struct Ping { count: u32 }
///
/// #[derive(Debug)]
/// struct Ball;
/// impl WireMessage for Ball {
///     fn wire_size(&self) -> u64 { 100 }
/// }
///
/// impl Protocol for Ping {
///     type Msg = Ball;
///     type Ext = ();
///     fn on_start(&mut self, ctx: &mut Context<'_, Ball>) {
///         if ctx.node() == NodeId(0) {
///             ctx.send(NodeId(1), Ball);
///         }
///     }
///     fn on_message(&mut self, ctx: &mut Context<'_, Ball>, from: NodeId, _msg: Ball) {
///         self.count += 1;
///         if self.count < 3 {
///             ctx.send(from, Ball);
///         }
///     }
/// }
///
/// for threads in [1, 2] {
///     let topo = Topology::line(2, LinkSpec::mbps1());
///     let nodes = vec![Ping { count: 0 }, Ping { count: 0 }];
///     let mut sim = ShardedSimulator::new(topo, nodes, 7, threads);
///     sim.run();
///     // The ball bounces until each side has seen it 3 times: 5 deliveries.
///     assert_eq!(sim.metrics().messages_delivered, 5);
/// }
/// ```
pub struct ShardedSimulator<P: Protocol> {
    topology: Arc<Topology>,
    node_up: Arc<Vec<bool>>,
    partition: Partition,
    regions: Vec<Region<P>>,
    inboxes: Vec<Vec<CrossDeliver<P::Msg>>>,
    faults: Vec<InstalledFault>,
    fault_cursor: usize,
    fault_seq: u64,
    ext_seq: u64,
    now: SimTime,
    events_processed: u64,
    merger: ShardMerger,
    sink: Box<dyn Sink>,
    medium: MediumMode,
}

impl<P: Protocol> std::fmt::Debug for ShardedSimulator<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSimulator")
            .field("regions", &self.regions.len())
            .field("now", &self.now)
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

impl<P: Protocol> ShardedSimulator<P> {
    /// Creates a sharded simulator over `topology` with one protocol
    /// instance per node, partitioned into (at most) `threads` regions.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len() != topology.len()`, on an empty topology, or
    /// if a boundary link has zero latency (no conservative lookahead).
    pub fn new(mut topology: Topology, nodes: Vec<P>, seed: u64, threads: usize) -> Self {
        assert_eq!(
            nodes.len(),
            topology.len(),
            "need exactly one protocol instance per topology node"
        );
        topology.ensure_routes();
        let partition = Partition::build(&topology, threads.max(1), seed);
        let n = nodes.len();
        let topology = Arc::new(topology);
        let node_up = Arc::new(vec![true; n]);
        let region_of = Arc::new(partition.region_map().to_vec());
        let mut slots: Vec<Option<P>> = nodes.into_iter().map(Some).collect();
        let mut regions = Vec::with_capacity(partition.count());
        for r in 0..partition.count() {
            let mut owned: Vec<Option<P>> = (0..n).map(|_| None).collect();
            let mut heap = BinaryHeap::new();
            for node in partition.nodes_in(r) {
                owned[node.index()] = slots[node.index()].take();
                heap.push(RScheduled {
                    at: SimTime::ZERO,
                    key: EventKey::start(*node),
                    event: REvent::Start { node: *node },
                });
            }
            regions.push(Region {
                id: r as u32,
                topology: Arc::clone(&topology),
                node_up: Arc::clone(&node_up),
                region_of: Arc::clone(&region_of),
                nodes: owned,
                heap,
                links: BTreeMap::new(),
                node_tx_busy: vec![0; n],
                timer_seq: vec![0; n],
                tx_seq: BTreeMap::new(),
                metrics: Metrics::new(),
                sink: KeyedSink::default(),
                outbox: Vec::new(),
                now: SimTime::ZERO,
                window_end: SimTime::ZERO,
                events: 0,
                medium: MediumMode::FullDuplex,
                seed,
            });
        }
        let inboxes = (0..regions.len()).map(|_| Vec::new()).collect();
        ShardedSimulator {
            topology,
            node_up,
            partition,
            regions,
            inboxes,
            faults: Vec::new(),
            fault_cursor: 0,
            fault_seq: 0,
            ext_seq: 0,
            now: SimTime::ZERO,
            events_processed: 0,
            merger: ShardMerger::new(),
            sink: Box::new(NullSink),
            medium: MediumMode::FullDuplex,
        }
    }

    /// The partition driving this run (region layout and lookahead).
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Number of regions (== effective worker threads).
    pub fn threads(&self) -> usize {
        self.partition.count()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far (region events plus one per
    /// installed fault transition).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Aggregated traffic counters, folded over all regions.
    pub fn metrics(&self) -> Metrics {
        let mut total = Metrics::new();
        for region in &self.regions {
            total.absorb(&region.metrics);
        }
        total
    }

    /// The topology the simulation runs over.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Selects how node transmitters share the medium. Must be called
    /// before any traffic flows.
    pub fn set_medium(&mut self, medium: MediumMode) {
        debug_assert_eq!(self.metrics().messages_sent, 0, "set_medium before traffic");
        self.medium = medium;
        for region in &mut self.regions {
            region.medium = medium;
        }
    }

    /// Installs a trace sink. Records reach it strictly ordered by merge
    /// key (timestamp first), once per barrier window.
    pub fn set_sink(&mut self, sink: Box<dyn Sink>) {
        self.sink = sink;
    }

    /// The active trace sink (e.g. to flush it after a run).
    pub fn sink_mut(&mut self) -> &mut dyn Sink {
        &mut *self.sink
    }

    /// Removes and returns the active sink, restoring the null sink.
    pub fn take_sink(&mut self) -> Box<dyn Sink> {
        std::mem::replace(&mut self.sink, Box::new(NullSink))
    }

    /// Schedules an external stimulus (e.g. a user query) for `node` at
    /// absolute time `at`. Externals dispatch in install order at equal
    /// timestamps.
    pub fn schedule_external(&mut self, at: SimTime, node: NodeId, ext: P::Ext) {
        assert!(node.index() < self.node_up.len(), "node out of range");
        let at = at.max(self.now);
        let idx = self.ext_seq;
        self.ext_seq += 1;
        let region = self.partition.region_of(node);
        self.regions[region].heap.push(RScheduled {
            at,
            key: EventKey::external(idx),
            event: REvent::External { node, ext },
        });
    }

    /// Installs every event of a [`FaultSchedule`]. All faults scheduled
    /// for one instant are applied atomically at a barrier, in install
    /// order, before any same-instant protocol events run.
    ///
    /// May be called multiple times **before** the run; schedules merge in
    /// `(time, install order)`.
    ///
    /// # Panics
    ///
    /// Panics if called after the run started, if any event is scheduled
    /// in the past, or if one names an unknown node or link.
    pub fn install_faults(&mut self, schedule: &FaultSchedule) {
        assert_eq!(
            self.fault_cursor, 0,
            "install_faults before running the sharded simulator"
        );
        for f in schedule.events() {
            assert!(f.at >= self.now, "fault scheduled in the past: {f:?}");
            let valid = |n: NodeId| n.index() < self.node_up.len();
            match f.event {
                FaultEvent::NodeCrash(n) | FaultEvent::NodeRecover(n) => {
                    assert!(valid(n), "fault names unknown node {n}");
                }
                FaultEvent::LinkDown(a, b) | FaultEvent::LinkUp(a, b) => {
                    assert!(valid(a) && valid(b), "fault names unknown link {a}-{b}");
                    assert!(
                        self.topology.has_link(a, b),
                        "fault names non-existent link {a}-{b}"
                    );
                }
            }
            let idx = self.fault_seq;
            self.fault_seq += 1;
            self.faults.push(InstalledFault {
                at: f.at,
                idx,
                event: f.event,
            });
        }
        // Stable by time; install order breaks ties (idx is append order,
        // and sort_by is stable).
        self.faults.sort_by_key(|f| f.at);
    }

    /// Emits a coordinator-side fault record into the merge buffer.
    fn emit_fault(&mut self, at: SimTime, idx: u64, node: NodeId, kind: EventKind) {
        if self.sink.enabled() {
            let key = EventKey::fault_global(idx);
            self.merger.push(
                key.merge_key(at, 0),
                TraceRecord {
                    at,
                    node: node.index() as u32,
                    kind,
                },
            );
        }
    }

    /// Applies every fault scheduled for instant `at` to the master
    /// topology/up-state, returning per-region side-effect actions.
    fn apply_fault_batch(&mut self, at: SimTime) -> Vec<Vec<FaultAction>> {
        // Size by the partition, not `self.regions`: the threaded driver
        // lends the regions out to workers, leaving `self.regions` empty.
        let mut actions: Vec<Vec<FaultAction>> =
            (0..self.partition.count()).map(|_| Vec::new()).collect();
        let mut topo = (*self.topology).clone();
        let mut up = (*self.node_up).clone();
        while self
            .faults
            .get(self.fault_cursor)
            .is_some_and(|f| f.at == at)
        {
            let InstalledFault { idx, event, .. } = self.faults[self.fault_cursor];
            self.fault_cursor += 1;
            self.events_processed += 1;
            match event {
                FaultEvent::NodeCrash(n) => {
                    if !up[n.index()] {
                        continue; // already down: idempotent
                    }
                    self.emit_fault(
                        at,
                        idx,
                        n,
                        EventKind::Fault {
                            fault: "node-crash",
                            node: n.index() as u32,
                            peer: None,
                        },
                    );
                    up[n.index()] = false;
                    topo.set_node_enabled(n, false);
                    topo.rebuild_routes();
                    let neighbors: Vec<NodeId> = topo.neighbors(n).collect();
                    let region = self.partition.region_of(n);
                    for nb in neighbors {
                        actions[region].push(FaultAction::Purge {
                            idx,
                            from: n,
                            to: nb,
                        });
                    }
                }
                FaultEvent::NodeRecover(n) => {
                    if up[n.index()] {
                        continue; // already up: idempotent
                    }
                    self.emit_fault(
                        at,
                        idx,
                        n,
                        EventKind::Fault {
                            fault: "node-recover",
                            node: n.index() as u32,
                            peer: None,
                        },
                    );
                    up[n.index()] = true;
                    topo.set_node_enabled(n, true);
                    topo.rebuild_routes();
                    actions[self.partition.region_of(n)]
                        .push(FaultAction::Recover { idx, node: n });
                }
                FaultEvent::LinkDown(a, b) => {
                    if topo.set_link_enabled(a, b, false) {
                        self.emit_fault(
                            at,
                            idx,
                            a,
                            EventKind::Fault {
                                fault: "link-down",
                                node: a.index() as u32,
                                peer: Some(b.index() as u32),
                            },
                        );
                        topo.rebuild_routes();
                        actions[self.partition.region_of(a)].push(FaultAction::Purge {
                            idx,
                            from: a,
                            to: b,
                        });
                        actions[self.partition.region_of(b)].push(FaultAction::Purge {
                            idx,
                            from: b,
                            to: a,
                        });
                    }
                }
                FaultEvent::LinkUp(a, b) => {
                    if topo.set_link_enabled(a, b, true) {
                        self.emit_fault(
                            at,
                            idx,
                            a,
                            EventKind::Fault {
                                fault: "link-up",
                                node: a.index() as u32,
                                peer: Some(b.index() as u32),
                            },
                        );
                        topo.rebuild_routes();
                    }
                }
            }
        }
        self.topology = Arc::new(topo);
        self.node_up = Arc::new(up);
        actions
    }

    /// Plans the next barrier window: picks `[start, end)`, applies any
    /// faults at `start`, and assembles one [`WindowCmd`] per region.
    /// Returns `None` when nothing remains before `deadline`.
    fn plan_window(
        &mut self,
        deadline: Option<SimTime>,
        region_next: &[Option<SimTime>],
    ) -> Option<Vec<WindowCmd<P>>> {
        let regions_min = region_next.iter().flatten().min().copied();
        let inbox_min = self.inboxes.iter().flatten().map(|c| c.at).min();
        let fault_next = self.faults.get(self.fault_cursor).map(|f| f.at);
        let start = [regions_min, inbox_min, fault_next]
            .into_iter()
            .flatten()
            .min()?;
        if deadline.is_some_and(|d| start > d) {
            return None;
        }
        debug_assert!(start >= self.now, "window start went backwards");
        self.now = start;

        let actions = if fault_next == Some(start) {
            self.apply_fault_batch(start)
        } else {
            // Partition count, not `self.regions.len()`: the threaded
            // driver lends the regions out while planning windows.
            (0..self.partition.count()).map(|_| Vec::new()).collect()
        };

        // Window end: the tightest of lookahead, the next fault barrier,
        // and the caller's deadline (inclusive, hence + 1µs).
        let mut end = SimTime::MAX;
        if self.partition.count() > 1 {
            if let Some(lookahead) = self.partition.lookahead() {
                end = end.min(start.saturating_add(lookahead));
            }
        }
        if let Some(f) = self.faults.get(self.fault_cursor) {
            end = end.min(f.at);
        }
        if let Some(d) = deadline {
            end = end.min(d.saturating_add(SimDuration::from_micros(1)));
        }
        debug_assert!(end > start, "empty barrier window");

        let mut actions = actions;
        let cmds = (0..self.partition.count())
            .map(|r| WindowCmd {
                start,
                end,
                topology: Arc::clone(&self.topology),
                node_up: Arc::clone(&self.node_up),
                actions: std::mem::take(&mut actions[r]),
                inbox: std::mem::take(&mut self.inboxes[r]),
            })
            .collect();
        Some(cmds)
    }

    /// Folds one region's window output back into coordinator state.
    fn collect_out(&mut self, mut out: WindowOut<P::Msg>, region_next: &mut [Option<SimTime>]) {
        region_next[out.region as usize] = out.next_at;
        self.events_processed += out.events;
        // One region's outbox is produced in its own deterministic event
        // order, but sorting by the stable delivery identity here means
        // the inbox contents never depend on emission order at all (R8).
        out.outbox
            .sort_by_key(|m| (m.at, m.from.index(), m.to.index(), m.txn));
        for cd in out.outbox {
            let region = self.partition.region_of(cd.to);
            self.inboxes[region].push(cd);
        }
        self.merger.absorb(out.trace);
    }
}

impl<P: Protocol + Send> ShardedSimulator<P>
where
    P::Msg: Send,
    P::Ext: Send,
{
    /// Runs until the event queue drains. Returns the number of events
    /// processed by this call.
    ///
    /// # Panics
    ///
    /// Panics after 100 million events as a runaway-protocol backstop; use
    /// [`run_until`](ShardedSimulator::run_until) for open-ended
    /// workloads.
    pub fn run(&mut self) -> u64 {
        self.run_until_opt(None)
    }

    /// Runs until simulated time would exceed `deadline` (events at
    /// exactly `deadline` are processed) or the queue drains. Returns the
    /// number of events processed by this call.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.run_until_opt(Some(deadline))
    }

    fn run_until_opt(&mut self, deadline: Option<SimTime>) -> u64 {
        let before = self.events_processed;
        let enabled = self.sink.enabled();
        for region in &mut self.regions {
            region.sink.enabled = enabled;
        }
        if self.regions.len() == 1 {
            self.run_windows_inline(deadline);
        } else {
            self.run_windows_threaded(deadline);
        }
        if let Some(d) = deadline {
            if self.now < d {
                self.now = d;
            }
        }
        self.events_processed - before
    }

    fn run_windows_inline(&mut self, deadline: Option<SimTime>) {
        loop {
            let region_next: Vec<Option<SimTime>> = self
                .regions
                .iter()
                .map(|r| r.heap.peek().map(|h| h.at))
                .collect();
            let mut region_next = region_next;
            let Some(cmds) = self.plan_window(deadline, &region_next) else {
                break;
            };
            for (r, cmd) in cmds.into_iter().enumerate() {
                let out = self.regions[r].run_window(cmd);
                self.collect_out(out, &mut region_next);
            }
            self.merger.flush_into(&mut *self.sink);
            assert!(
                self.events_processed < 100_000_000,
                "runaway simulation: 1e8 events processed"
            );
        }
    }

    fn run_windows_threaded(&mut self, deadline: Option<SimTime>) {
        let regions = std::mem::take(&mut self.regions);
        let count = regions.len();
        let mut region_next: Vec<Option<SimTime>> = regions
            .iter()
            .map(|r| r.heap.peek().map(|h| h.at))
            .collect();
        // Every window gets exactly one reply per worker: its results, or
        // the payload of a handler panic. Re-raising that payload here makes
        // the panic surface from `run` with its original message; without
        // the reply, the recv loop below would wait forever on a dead
        // worker while its siblings keep the channel open.
        let (out_tx, out_rx) = mpsc::channel::<std::thread::Result<WindowOut<P::Msg>>>();
        let mut returned = std::thread::scope(|scope| {
            let mut cmd_txs = Vec::with_capacity(count);
            let mut handles = Vec::with_capacity(count);
            for mut region in regions {
                let (cmd_tx, cmd_rx) = mpsc::channel::<WindowCmd<P>>();
                cmd_txs.push(cmd_tx);
                let out_tx = out_tx.clone();
                handles.push(scope.spawn(move || {
                    while let Ok(cmd) = cmd_rx.recv() {
                        let out = panic::catch_unwind(AssertUnwindSafe(|| region.run_window(cmd)));
                        let failed = out.is_err();
                        if out_tx.send(out).is_err() || failed {
                            break;
                        }
                    }
                    region
                }));
            }
            loop {
                let Some(cmds) = self.plan_window(deadline, &region_next) else {
                    break;
                };
                // One command per worker, or the recv loop below would
                // wait forever on a window nobody was asked to run.
                assert_eq!(cmds.len(), count, "window command per region");
                for (tx, cmd) in cmd_txs.iter().zip(cmds) {
                    tx.send(cmd).expect("region worker alive"); // lint: allow(panic) — workers outlive the loop by construction
                }
                for _ in 0..count {
                    let reply = out_rx.recv().expect("region worker reply"); // lint: allow(panic) — each worker sends exactly one reply per window
                    match reply {
                        Ok(out) => self.collect_out(out, &mut region_next),
                        // Unwinding drops `cmd_txs`, so the other workers
                        // exit and the scope can join them.
                        Err(payload) => panic::resume_unwind(payload),
                    }
                }
                self.merger.flush_into(&mut *self.sink);
                assert!(
                    self.events_processed < 100_000_000,
                    "runaway simulation: 1e8 events processed"
                );
            }
            drop(cmd_txs);
            handles
                .into_iter()
                .map(|h| h.join().expect("region worker panicked")) // lint: allow(panic) — a worker panic is already fatal
                .collect::<Vec<_>>()
        });
        // Workers were spawned and joined in region order.
        debug_assert!(returned.iter().enumerate().all(|(i, r)| r.id as usize == i));
        self.regions = std::mem::take(&mut returned);
    }
}

impl<P: Protocol> ShardedSimulator<P> {
    /// Shared access to a node's protocol state.
    pub fn node(&self, id: NodeId) -> &P {
        self.regions[self.partition.region_of(id)].nodes[id.index()]
            .as_ref()
            .expect("region owns its partition's nodes") // lint: allow(panic) — construction places every node
    }

    /// Exclusive access to a node's protocol state.
    pub fn node_mut(&mut self, id: NodeId) -> &mut P {
        let region = self.partition.region_of(id);
        self.regions[region].nodes[id.index()]
            .as_mut()
            .expect("region owns its partition's nodes") // lint: allow(panic) — construction places every node
    }

    /// Iterates over all protocol instances in global node-id order.
    pub fn nodes(&self) -> impl Iterator<Item = &P> {
        (0..self.node_up.len()).map(move |i| self.node(NodeId(i)))
    }

    /// Consumes the simulator, returning the protocol instances in global
    /// node-id order.
    pub fn into_nodes(mut self) -> Vec<P> {
        let mut out = Vec::with_capacity(self.node_up.len());
        for i in 0..self.node_up.len() {
            let region = self.partition.region_of(NodeId(i));
            out.push(
                self.regions[region].nodes[i]
                    .take()
                    .expect("region owns its partition's nodes"), // lint: allow(panic) — construction places every node
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkSpec;

    #[derive(Debug, Clone)]
    struct Ball {
        hops: u32,
    }
    impl WireMessage for Ball {
        fn wire_size(&self) -> u64 {
            100
        }
        fn kind(&self) -> &'static str {
            "ball"
        }
    }

    /// Forwards a token around: node 0 serves, everyone echoes until the
    /// hop budget is spent.
    struct Echo {
        seen: u32,
        budget: u32,
    }
    impl Protocol for Echo {
        type Msg = Ball;
        type Ext = u32;
        fn on_start(&mut self, ctx: &mut Context<'_, Ball>) {
            if ctx.node() == NodeId(0) {
                let peers: Vec<NodeId> = ctx.topology().neighbors(NodeId(0)).collect();
                for p in peers {
                    ctx.send(p, Ball { hops: 0 });
                }
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Ball>, from: NodeId, msg: Ball) {
            self.seen += 1;
            if msg.hops < self.budget {
                ctx.send(from, Ball { hops: msg.hops + 1 });
            }
        }
        fn on_external(&mut self, ctx: &mut Context<'_, Ball>, hops: u32) {
            let node = ctx.node();
            let peers: Vec<NodeId> = ctx.topology().neighbors(node).collect();
            for p in peers {
                ctx.send(p, Ball { hops });
            }
        }
    }

    fn echo_nodes(n: usize, budget: u32) -> Vec<Echo> {
        (0..n).map(|_| Echo { seen: 0, budget }).collect()
    }

    fn ring_topology(n: usize) -> Topology {
        let mut t = Topology::new(n);
        for i in 0..n {
            t.add_link(NodeId(i), NodeId((i + 1) % n), LinkSpec::mbps1());
        }
        t
    }

    /// A full observable signature of a run: trace bytes via a memory
    /// sink, plus the aggregate counters.
    fn sharded_signature(threads: usize, seed: u64) -> (Vec<TraceRecord>, Metrics, u64, Vec<u32>) {
        let topo = ring_topology(8);
        let mut sim = ShardedSimulator::new(topo, echo_nodes(8, 6), seed, threads);
        let shared = dde_obs::SharedSink::new(dde_obs::MemorySink::new());
        let handle = shared.clone();
        sim.set_sink(Box::new(shared));
        sim.schedule_external(SimTime::from_millis(5), NodeId(3), 2);
        sim.run_until(SimTime::from_secs(5));
        let events = sim.events_processed();
        let metrics = sim.metrics();
        let seen: Vec<u32> = sim.nodes().map(|n| n.seen).collect();
        (handle.with(|m| m.events().to_vec()), metrics, events, seen)
    }

    #[test]
    fn identical_across_thread_counts() {
        let (trace1, metrics1, events1, seen1) = sharded_signature(1, 7);
        assert!(!trace1.is_empty());
        for threads in [2, 3, 4, 8] {
            let (trace, metrics, events, seen) = sharded_signature(threads, 7);
            assert_eq!(trace, trace1, "trace differs at {threads} threads");
            assert_eq!(events, events1, "event count differs at {threads} threads");
            assert_eq!(seen, seen1, "node state differs at {threads} threads");
            assert_eq!(metrics.messages_sent, metrics1.messages_sent);
            assert_eq!(metrics.messages_delivered, metrics1.messages_delivered);
            assert_eq!(metrics.bytes_sent, metrics1.bytes_sent);
        }
    }

    #[test]
    fn matches_classic_on_quiescent_workload() {
        // "Classic" is the sequential reference: one region, run inline on
        // the calling thread. Multi-region runs must agree with it, and it
        // must agree with the hand count.
        let topo = ring_topology(6);
        let mut classic = ShardedSimulator::new(topo.clone(), echo_nodes(6, 4), 3, 1);
        classic.run();
        // Node 0 serves both ring neighbours; each rally runs hops 0..=4,
        // so 5 deliveries of 100 B per rally.
        assert_eq!(classic.metrics().messages_delivered, 10);
        assert_eq!(classic.metrics().bytes_sent, 1_000);
        let seen: Vec<u32> = classic.nodes().map(|n| n.seen).collect();
        assert_eq!(seen, vec![4, 3, 0, 0, 0, 3]);
        for threads in [2, 4] {
            let mut sharded = ShardedSimulator::new(topo.clone(), echo_nodes(6, 4), 3, threads);
            sharded.run();
            assert_eq!(
                sharded.metrics().messages_delivered,
                classic.metrics().messages_delivered
            );
            assert_eq!(sharded.metrics().bytes_sent, classic.metrics().bytes_sent);
            let a: Vec<u32> = sharded.nodes().map(|n| n.seen).collect();
            assert_eq!(a, seen);
        }
    }

    #[test]
    fn faults_are_identical_across_thread_counts() {
        let run = |threads: usize| {
            let topo = ring_topology(8);
            let mut sim = ShardedSimulator::new(topo, echo_nodes(8, 40), 9, threads);
            let shared = dde_obs::SharedSink::new(dde_obs::MemorySink::new());
            let handle = shared.clone();
            sim.set_sink(Box::new(shared));
            let mut faults = FaultSchedule::new();
            faults.crash_at(SimTime::from_millis(20), NodeId(2));
            faults.recover_at(SimTime::from_millis(400), NodeId(2));
            faults.link_down_at(SimTime::from_millis(30), NodeId(5), NodeId(6));
            faults.link_up_at(SimTime::from_millis(500), NodeId(5), NodeId(6));
            sim.install_faults(&faults);
            sim.run_until(SimTime::from_secs(2));
            (
                handle.with(|m| m.events().to_vec()),
                sim.events_processed(),
                sim.metrics().messages_dropped_by_fault,
                sim.metrics().messages_purged_by_fault,
            )
        };
        let base = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), base, "fault run differs at {threads} threads");
        }
    }

    #[test]
    fn region_queue_order_is_insertion_independent() {
        // Satellite check: same-timestamp events pop in stable-key order
        // no matter the order they were pushed in — unlike a `(time, seq)`
        // heap, whose tie-break is the insertion sequence itself.
        let at = SimTime::from_millis(1);
        let keys = [
            EventKey {
                class: CLASS_DELIVER,
                a: 1,
                b: 2,
                c: 0,
            },
            EventKey {
                class: CLASS_TIMER,
                a: 4,
                b: 0,
                c: 0,
            },
            EventKey {
                class: CLASS_EXTERNAL,
                a: 0,
                b: 0,
                c: 0,
            },
            EventKey {
                class: CLASS_LINK_FREE,
                a: 1,
                b: 2,
                c: 0,
            },
        ];
        let pop_order = |insert: &[usize]| {
            let mut heap: BinaryHeap<RScheduled<Echo>> = BinaryHeap::new();
            for &i in insert {
                heap.push(RScheduled {
                    at,
                    key: keys[i],
                    event: REvent::Timer {
                        node: NodeId(0),
                        tag: i as u64,
                    },
                });
            }
            let mut order = Vec::new();
            while let Some(s) = heap.pop() {
                order.push(s.key);
            }
            order
        };
        let a = pop_order(&[0, 1, 2, 3]);
        let b = pop_order(&[3, 2, 1, 0]);
        let c = pop_order(&[2, 0, 3, 1]);
        assert_eq!(a, b);
        assert_eq!(a, c);
        // And the order is the key order: external < timer < link-free <
        // deliver at one instant.
        let mut sorted = keys.to_vec();
        sorted.sort();
        assert_eq!(a, sorted);
    }

    #[test]
    fn loss_hash_is_deterministic_and_uniform_ish() {
        let a = loss_unit(7, NodeId(1), NodeId(2), 0);
        assert_eq!(a, loss_unit(7, NodeId(1), NodeId(2), 0));
        assert_ne!(a, loss_unit(7, NodeId(1), NodeId(2), 1));
        assert_ne!(a, loss_unit(8, NodeId(1), NodeId(2), 0));
        let draws: Vec<f64> = (0..1000)
            .map(|i| loss_unit(1, NodeId(0), NodeId(1), i))
            .collect();
        assert!(draws.iter().all(|d| (0.0..1.0).contains(d)));
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean} far from 0.5");
    }

    #[test]
    fn lossy_links_are_seed_stable_across_thread_counts() {
        let run = |threads: usize| {
            let mut topo = Topology::new(4);
            for i in 0..3 {
                topo.add_link(NodeId(i), NodeId(i + 1), LinkSpec::mbps1().loss(0.3));
            }
            let mut sim = ShardedSimulator::new(topo, echo_nodes(4, 30), 11, threads);
            sim.run_until(SimTime::from_secs(2));
            (
                sim.metrics().messages_lost,
                sim.metrics().messages_delivered,
            )
        };
        let base = run(1);
        assert!(base.0 > 0, "losses should occur at 30%");
        for threads in [2, 4] {
            assert_eq!(run(threads), base);
        }
    }

    #[test]
    fn half_duplex_matches_classic_counters() {
        // Sequential (one-region) reference vs. multi-region runs.
        let topo = Topology::star(5, LinkSpec::mbps1());
        let mut classic = ShardedSimulator::new(topo.clone(), echo_nodes(5, 10), 2, 1);
        classic.set_medium(MediumMode::HalfDuplexTx);
        classic.run();
        // The hub serves four leaves; each rally runs hops 0..=10.
        assert_eq!(classic.metrics().messages_delivered, 44);
        assert_eq!(classic.metrics().bytes_sent, 4_400);
        for threads in [2, 3] {
            let mut sharded = ShardedSimulator::new(topo.clone(), echo_nodes(5, 10), 2, threads);
            sharded.set_medium(MediumMode::HalfDuplexTx);
            sharded.run();
            assert_eq!(
                sharded.metrics().messages_delivered,
                classic.metrics().messages_delivered
            );
            assert_eq!(sharded.metrics().bytes_sent, classic.metrics().bytes_sent);
        }
    }
}
