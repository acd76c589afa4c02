//! Property tests for the fault-injection subsystem: arbitrary valid
//! fault schedules must leave the simulator terminating, conserving its
//! message accounting, and never routing through a crashed node or a
//! downed link.

use dde_netsim::fault::{FaultEvent, FaultSchedule};
use dde_netsim::prelude::{SimDuration, SimTime};
use dde_netsim::shard::ShardedSimulator;
use dde_netsim::sim::{Context, Protocol, WireMessage};
use dde_netsim::topology::{LinkSpec, NodeId, Topology};
use proptest::prelude::*;

const N: usize = 6;
const HORIZON_MS: u64 = 5_000;

/// A generated fault action: (time ms, kind 0..4, index).
type RawFault = (u64, usize, usize);

/// Interprets raw tuples as a valid schedule over a ring of `N` nodes:
/// node indices wrap, link faults land on real ring edges.
fn schedule_from(raw: &[RawFault]) -> FaultSchedule {
    let mut schedule = FaultSchedule::new();
    for &(ms, kind, idx) in raw {
        let at = SimTime::from_millis(ms);
        let node = NodeId(idx % N);
        let edge = (NodeId(idx % N), NodeId((idx + 1) % N));
        match kind % 4 {
            0 => schedule.push(at, FaultEvent::NodeCrash(node)),
            1 => schedule.push(at, FaultEvent::NodeRecover(node)),
            2 => schedule.push(at, FaultEvent::LinkDown(edge.0, edge.1)),
            _ => schedule.push(at, FaultEvent::LinkUp(edge.0, edge.1)),
        };
    }
    schedule
}

/// A small multi-hop traffic generator: every 100 ms each node picks a few
/// far destinations and routes a packet toward them hop by hop, using the
/// (fault-aware) routing table at every step.
struct Chatter;

#[derive(Debug, Clone)]
struct Packet {
    dst: NodeId,
}

impl WireMessage for Packet {
    fn wire_size(&self) -> u64 {
        2_000
    }
}

impl Protocol for Chatter {
    type Msg = Packet;
    type Ext = ();

    fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
        ctx.set_timer(SimDuration::from_millis(100), 0);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Packet>, _tag: u64) {
        let me = ctx.node();
        for offset in [1usize, N / 2] {
            let dst = NodeId((me.index() + offset) % N);
            if dst != me {
                if let Some(hop) = ctx.next_hop_toward(dst) {
                    ctx.send(hop, Packet { dst });
                }
            }
        }
        if ctx.now() < SimTime::from_millis(HORIZON_MS) {
            ctx.set_timer(SimDuration::from_millis(100), 0);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Packet>, _from: NodeId, msg: Packet) {
        if msg.dst != ctx.node() {
            if let Some(hop) = ctx.next_hop_toward(msg.dst) {
                ctx.send(hop, msg);
            }
        }
    }
}

fn raw_faults() -> impl Strategy<Value = Vec<RawFault>> {
    prop::collection::vec((0u64..HORIZON_MS, 0usize..4, 0usize..3 * N), 0..16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any valid schedule terminates and conserves message accounting:
    /// every message sent is eventually delivered, lost on the medium, or
    /// dropped (at a down link/node). Purged-before-send messages are
    /// tracked separately and never counted as sent.
    #[test]
    fn schedules_terminate_and_conserve_messages(raw in raw_faults()) {
        let schedule = schedule_from(&raw);
        for threads in [1, 2] {
            let nodes = (0..N).map(|_| Chatter).collect();
            let topo = Topology::ring(N, LinkSpec::mbps1());
            let mut sim = ShardedSimulator::new(topo, nodes, 42, threads);
            sim.install_faults(&schedule);
            sim.run_until(SimTime::from_millis(HORIZON_MS * 2));
            let m = sim.metrics();
            prop_assert_eq!(
                m.messages_sent,
                m.messages_delivered + m.messages_lost + m.messages_dropped,
                "conservation broke at {} threads: {:?}",
                threads,
                m
            );
            prop_assert!(m.messages_dropped_by_fault <= m.messages_dropped);
            if schedule.is_empty() {
                prop_assert_eq!(m.messages_dropped_by_fault, 0);
                prop_assert_eq!(m.messages_purged_by_fault, 0);
            }
        }
    }

    /// After every fault transition, the routing table never steers through
    /// a disabled node or link: each hop is enabled end to end.
    #[test]
    fn routes_never_cross_down_elements(raw in raw_faults()) {
        let mut topo = Topology::ring(N, LinkSpec::mbps1());
        for fault in schedule_from(&raw).events() {
            match fault.event {
                FaultEvent::NodeCrash(n) => {
                    topo.set_node_enabled(n, false);
                }
                FaultEvent::NodeRecover(n) => {
                    topo.set_node_enabled(n, true);
                }
                FaultEvent::LinkDown(a, b) => {
                    topo.set_link_enabled(a, b, false);
                }
                FaultEvent::LinkUp(a, b) => {
                    topo.set_link_enabled(a, b, true);
                }
            }
            topo.rebuild_routes();
            for a in topo.nodes() {
                for b in topo.nodes() {
                    if a == b {
                        continue; // self-routes have no hop to validate
                    }
                    let Some(hop) = topo.next_hop(a, b) else { continue };
                    prop_assert!(
                        topo.is_node_enabled(hop),
                        "route {:?}->{:?} goes through down node {:?}", a, b, hop
                    );
                    prop_assert!(
                        topo.is_link_usable(a, hop),
                        "route {:?}->{:?} uses down link {:?}->{:?}", a, b, a, hop
                    );
                    // Full path check: every intermediate hop is alive.
                    if let Some(path) = topo.path(a, b) {
                        for w in path.windows(2) {
                            prop_assert!(topo.is_link_usable(w[0], w[1]));
                        }
                    }
                }
            }
        }
    }

    /// The schedule container itself keeps events time-ordered no matter
    /// the insertion order.
    #[test]
    fn schedule_stays_time_sorted(raw in raw_faults()) {
        let schedule = schedule_from(&raw);
        for w in schedule.events().windows(2) {
            prop_assert!(w[0].at <= w[1].at, "schedule out of order");
        }
        prop_assert_eq!(schedule.len(), raw.len());
    }
}
