//! Deterministic fault injection: node churn and link outages.
//!
//! A [`FaultSchedule`] is a seeded, replayable timeline of
//! [`FaultEvent`]s that the [`ShardedSimulator`](crate::shard::ShardedSimulator)
//! applies at exact simulated instants. Because the schedule is plain data built
//! ahead of a run (optionally from a seeded generator such as
//! [`FaultSchedule::uniform_churn`]), the same schedule plus the same
//! simulation seed reproduces the same run bit-for-bit — faults included.
//! An **empty** schedule leaves the simulator's behavior untouched.
//!
//! The paper's motivating scenarios (§I, disaster response) assume nodes
//! and links that come and go; this module is the measurement instrument
//! for how gracefully each retrieval strategy degrades under that churn.

use crate::topology::{NodeId, Topology};
use dde_logic::time::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A single fault transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultEvent {
    /// The node halts: it stops processing events and all traffic queued
    /// at or addressed to it is dropped.
    NodeCrash(NodeId),
    /// The node comes back up and resumes processing.
    NodeRecover(NodeId),
    /// The (undirected) link between the two nodes stops carrying traffic.
    LinkDown(NodeId, NodeId),
    /// The link is restored.
    LinkUp(NodeId, NodeId),
}

/// A [`FaultEvent`] stamped with the instant at which it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimedFault {
    /// When the transition takes effect.
    pub at: SimTime,
    /// What happens.
    pub event: FaultEvent,
}

/// A replayable timeline of fault events.
///
/// Events are kept sorted by time; events at the same instant apply in
/// insertion order. Schedules are plain data — [`Clone`], [`PartialEq`] —
/// so a run's fault plan can be stored alongside its seed and replayed.
///
/// # Examples
///
/// ```
/// use dde_netsim::fault::{FaultEvent, FaultSchedule};
/// use dde_netsim::topology::NodeId;
/// use dde_logic::time::SimTime;
///
/// let mut faults = FaultSchedule::new();
/// faults.crash_at(SimTime::from_secs(2), NodeId(3));
/// faults.recover_at(SimTime::from_secs(5), NodeId(3));
/// assert_eq!(faults.len(), 2);
/// assert_eq!(faults.events()[0].event, FaultEvent::NodeCrash(NodeId(3)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    events: Vec<TimedFault>,
}

impl FaultSchedule {
    /// Creates an empty schedule (a strict no-op when installed).
    pub fn new() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// `true` if the schedule contains no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The events in firing order (time-sorted, stable for ties).
    pub fn events(&self) -> &[TimedFault] {
        &self.events
    }

    /// Adds an event, keeping the timeline time-sorted. Events with equal
    /// timestamps retain their insertion order.
    pub fn push(&mut self, at: SimTime, event: FaultEvent) -> &mut Self {
        let idx = self.events.partition_point(|f| f.at <= at);
        self.events.insert(idx, TimedFault { at, event });
        self
    }

    /// Schedules a node crash.
    pub fn crash_at(&mut self, at: SimTime, node: NodeId) -> &mut Self {
        self.push(at, FaultEvent::NodeCrash(node))
    }

    /// Schedules a node recovery.
    pub fn recover_at(&mut self, at: SimTime, node: NodeId) -> &mut Self {
        self.push(at, FaultEvent::NodeRecover(node))
    }

    /// Schedules a link outage.
    pub fn link_down_at(&mut self, at: SimTime, a: NodeId, b: NodeId) -> &mut Self {
        self.push(at, FaultEvent::LinkDown(a, b))
    }

    /// Schedules a link restoration.
    pub fn link_up_at(&mut self, at: SimTime, a: NodeId, b: NodeId) -> &mut Self {
        self.push(at, FaultEvent::LinkUp(a, b))
    }

    /// Appends every event of `other`, keeping the result time-sorted.
    pub fn merge(&mut self, other: &FaultSchedule) -> &mut Self {
        for f in &other.events {
            self.push(f.at, f.event);
        }
        self
    }

    /// The instant of the last scheduled event, if any.
    pub fn last_event_at(&self) -> Option<SimTime> {
        self.events.last().map(|f| f.at)
    }

    /// Generates a seeded random churn schedule: each of `nodes` nodes
    /// independently crashes with probability `rate` at a uniform instant
    /// in `[0, horizon)` and recovers `downtime` later.
    ///
    /// One crash/recover cycle per churned node keeps the schedule easy to
    /// reason about while still exercising every recovery path; call the
    /// generator multiple times with different seeds and
    /// [`merge`](FaultSchedule::merge) the results for denser churn.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not within `[0, 1]` or `horizon` is zero while
    /// `rate > 0`.
    pub fn uniform_churn(
        nodes: usize,
        rate: f64,
        horizon: SimTime,
        downtime: SimDuration,
        seed: u64,
    ) -> FaultSchedule {
        assert!((0.0..=1.0).contains(&rate), "churn rate must be in [0,1]");
        let mut schedule = FaultSchedule::new();
        if rate == 0.0 || nodes == 0 {
            return schedule;
        }
        assert!(
            horizon > SimTime::ZERO,
            "churn horizon must be positive when rate > 0"
        );
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC4A5_11FE);
        for n in 0..nodes {
            if rng.gen::<f64>() >= rate {
                continue;
            }
            let at = SimTime::from_micros(rng.gen_range(0..horizon.as_micros()));
            schedule.crash_at(at, NodeId(n));
            schedule.recover_at(at.saturating_add(downtime), NodeId(n));
        }
        schedule
    }

    /// Generates a partition at `at`: every physical link with exactly one
    /// endpoint in `side` goes down, splitting the network into `side` and
    /// its complement.
    pub fn partition_at(topology: &Topology, at: SimTime, side: &[NodeId]) -> FaultSchedule {
        let mut schedule = FaultSchedule::new();
        for (a, b) in Self::cut_links(topology, side) {
            schedule.link_down_at(at, a, b);
        }
        schedule
    }

    /// Generates the healing counterpart of [`FaultSchedule::partition_at`]:
    /// every cut-crossing link comes back up at `at`.
    pub fn heal_partition_at(topology: &Topology, at: SimTime, side: &[NodeId]) -> FaultSchedule {
        let mut schedule = FaultSchedule::new();
        for (a, b) in Self::cut_links(topology, side) {
            schedule.link_up_at(at, a, b);
        }
        schedule
    }

    /// Physical links crossing the cut defined by `side`, in canonical
    /// (low, high) order.
    fn cut_links(topology: &Topology, side: &[NodeId]) -> Vec<(NodeId, NodeId)> {
        let in_side = |n: NodeId| side.contains(&n);
        let mut links = Vec::new();
        for a in 0..topology.len() {
            let a = NodeId(a);
            for b in topology.neighbors(a) {
                if a.0 < b.0 && in_side(a) != in_side(b) {
                    links.push((a, b));
                }
            }
        }
        links
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkSpec;

    #[test]
    fn push_keeps_time_order_and_ties_stable() {
        let mut s = FaultSchedule::new();
        let t1 = SimTime::from_secs(1);
        let t2 = SimTime::from_secs(2);
        s.crash_at(t2, NodeId(0));
        s.crash_at(t1, NodeId(1));
        s.recover_at(t2, NodeId(1)); // same instant as the first push
        let evs: Vec<_> = s.events().iter().map(|f| (f.at, f.event)).collect();
        assert_eq!(
            evs,
            vec![
                (t1, FaultEvent::NodeCrash(NodeId(1))),
                (t2, FaultEvent::NodeCrash(NodeId(0))),
                (t2, FaultEvent::NodeRecover(NodeId(1))),
            ]
        );
        assert_eq!(s.last_event_at(), Some(t2));
    }

    #[test]
    fn uniform_churn_is_reproducible_and_rate_sensitive() {
        let horizon = SimTime::from_secs(30);
        let down = SimDuration::from_secs(5);
        let a = FaultSchedule::uniform_churn(50, 0.3, horizon, down, 7);
        let b = FaultSchedule::uniform_churn(50, 0.3, horizon, down, 7);
        assert_eq!(a, b, "same seed must yield identical schedules");
        let c = FaultSchedule::uniform_churn(50, 0.3, horizon, down, 8);
        assert_ne!(a, c, "different seeds should differ");
        assert!(FaultSchedule::uniform_churn(50, 0.0, horizon, down, 7).is_empty());
        let full = FaultSchedule::uniform_churn(50, 1.0, horizon, down, 7);
        assert_eq!(full.len(), 100, "rate 1.0 churns every node once");
        // Every crash precedes its recovery and falls within the horizon.
        for f in full.events() {
            if let FaultEvent::NodeCrash(_) = f.event {
                assert!(f.at < horizon);
            }
        }
    }

    #[test]
    fn partition_covers_exactly_the_cut() {
        let topo = Topology::line(4, LinkSpec::mbps1());
        let at = SimTime::from_secs(3);
        let down = FaultSchedule::partition_at(&topo, at, &[NodeId(0), NodeId(1)]);
        assert_eq!(
            down.events(),
            &[TimedFault {
                at,
                event: FaultEvent::LinkDown(NodeId(1), NodeId(2)),
            }]
        );
        let up =
            FaultSchedule::heal_partition_at(&topo, SimTime::from_secs(6), &[NodeId(0), NodeId(1)]);
        assert_eq!(up.len(), 1);
        assert_eq!(
            up.events()[0].event,
            FaultEvent::LinkUp(NodeId(1), NodeId(2))
        );
    }
}
