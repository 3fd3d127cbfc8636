//! Heartbeat-based membership and directory ownership.
//!
//! Liveness: every non-crashed node beacons [`crate::service::CacheRpc::Heartbeat`]
//! messages around a gossip ring; deliveries feed a shared suspicion
//! table (the directory service's membership view). A node whose last
//! heard beacon ages past `suspect_after` becomes [`NodeState::Suspect`];
//! past `down_after` it is declared [`NodeState::Down`], which is the
//! only transition that triggers repartitioning. A rejoin resets the
//! node straight to [`NodeState::Alive`].
//!
//! Ownership: [`Partitioner`] assigns every sample's *directory shard*
//! by rendezvous (highest-random-weight) hashing over the live node
//! set. Rendezvous hashing moves only the entries owned by a departed
//! node (minimal disruption) and is a pure function of
//! `(sample, live set)`, so repartition results are deterministic.

use icache_obs::{Obs, Observable, TraceEvent};
use icache_types::{splitmix64, NodeId, NodeState, SampleId, SimDuration, SimTime};

/// Failure-detector timing. `None` in the service config disables churn
/// machinery entirely (static membership, the compatibility default).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeartbeatConfig {
    /// Beacon period per node.
    pub interval: SimDuration,
    /// Silence after which a node becomes suspect.
    pub suspect_after: SimDuration,
    /// Silence after which a suspect is declared down.
    pub down_after: SimDuration,
    /// How long a client waits on an unresponsive peer before falling
    /// back to storage.
    pub rpc_timeout: SimDuration,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            interval: SimDuration::from_millis(10),
            suspect_after: SimDuration::from_millis(25),
            down_after: SimDuration::from_millis(60),
            rpc_timeout: SimDuration::from_millis(5),
        }
    }
}

/// The shared membership table: per-node state driven by heartbeat
/// receipt times.
#[derive(Debug)]
pub struct Membership {
    states: Vec<NodeState>,
    last_heard: Vec<SimTime>,
    /// Crashed nodes stop beaconing; the detector discovers this only
    /// through silence.
    crashed: Vec<bool>,
    config: HeartbeatConfig,
    version: u64,
    obs: MembershipObs,
}

icache_obs::obs_handles! {
    struct MembershipObs {
        alive_transitions: Counter = SVC_MEMBERSHIP_ALIVE_TRANSITIONS,
        suspects: Counter = SVC_MEMBERSHIP_SUSPECTS,
        downs: Counter = SVC_MEMBERSHIP_DOWNS,
    }
}

impl Observable for Membership {
    fn set_obs(&mut self, obs: Obs) {
        self.obs = MembershipObs::new(obs);
    }
}

impl Membership {
    /// All `n` nodes alive at time zero.
    pub fn new(n: usize, config: HeartbeatConfig) -> Self {
        Membership {
            states: vec![NodeState::Alive; n],
            last_heard: vec![SimTime::ZERO; n],
            crashed: vec![false; n],
            config,
            version: 0,
            obs: MembershipObs::new(Obs::noop()),
        }
    }

    /// The detector's timing parameters.
    pub fn config(&self) -> HeartbeatConfig {
        self.config
    }

    /// Current state of `node`.
    pub fn state(&self, node: NodeId) -> NodeState {
        self.states[node.0 as usize]
    }

    /// Whether `node` participates in ownership (not declared down).
    pub fn is_live(&self, node: NodeId) -> bool {
        self.states[node.0 as usize].is_live()
    }

    /// Whether `node` has crashed (stopped beaconing), regardless of
    /// whether the detector has noticed yet.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed[node.0 as usize]
    }

    /// Nodes not declared down, ascending.
    pub fn live(&self) -> Vec<NodeId> {
        (0..self.states.len() as u32)
            .map(NodeId)
            .filter(|n| self.is_live(*n))
            .collect()
    }

    /// Monotonic version, bumped on every state transition.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Record a crash: the node stops beaconing. Its state is *not*
    /// changed here — only silence observed by [`Membership::advance`]
    /// moves it through suspect to down.
    pub fn crash(&mut self, node: NodeId) {
        self.crashed[node.0 as usize] = true;
    }

    /// Record a delivered heartbeat (or any proof of life) from `node`.
    pub fn note_heard(&mut self, node: NodeId, at: SimTime) {
        let i = node.0 as usize;
        if at > self.last_heard[i] {
            self.last_heard[i] = at;
        }
        // A beacon that arrives before the down threshold clears a
        // suspicion without any repartitioning.
        if self.states[i] == NodeState::Suspect && !self.crashed[i] {
            self.transition(node, NodeState::Alive);
        }
    }

    /// Rejoin `node`: beaconing resumes and the node is alive again.
    /// Returns true when the state actually changed (the caller then
    /// repartitions).
    pub fn rejoin(&mut self, node: NodeId, now: SimTime) -> bool {
        let i = node.0 as usize;
        self.crashed[i] = false;
        self.last_heard[i] = now;
        if self.states[i] != NodeState::Alive {
            self.transition(node, NodeState::Alive);
            true
        } else {
            false
        }
    }

    /// Graceful departure: the node is declared down immediately (no
    /// suspicion window). Returns true when the state changed.
    pub fn leave(&mut self, node: NodeId) -> bool {
        let i = node.0 as usize;
        self.crashed[i] = true;
        if self.states[i] != NodeState::Down {
            self.transition(node, NodeState::Down);
            true
        } else {
            false
        }
    }

    /// Age every node's last-heard time against `now` and apply the
    /// suspect/down thresholds. Returns the nodes newly declared down
    /// (the caller repartitions when non-empty).
    pub fn advance(&mut self, now: SimTime) -> Vec<NodeId> {
        let mut newly_down = Vec::new();
        for i in 0..self.states.len() {
            let node = NodeId(i as u32);
            let silence = now.saturating_since(self.last_heard[i]);
            match self.states[i] {
                NodeState::Alive if silence > self.config.suspect_after => {
                    self.transition(node, NodeState::Suspect);
                }
                NodeState::Suspect if silence > self.config.down_after => {
                    self.transition(node, NodeState::Down);
                    newly_down.push(node);
                }
                _ => {}
            }
        }
        newly_down
    }

    fn transition(&mut self, node: NodeId, to: NodeState) {
        let i = node.0 as usize;
        if self.states[i] == to {
            return;
        }
        self.states[i] = to;
        self.version += 1;
        match to {
            NodeState::Alive => &self.obs.alive_transitions,
            NodeState::Suspect => &self.obs.suspects,
            NodeState::Down => &self.obs.downs,
        }
        .inc();
        self.obs.emit(TraceEvent::MembershipChange {
            node: node.0 as u64,
            state: to.name(),
        });
    }
}

/// Rendezvous-hash ownership of directory shards over the live node set.
#[derive(Debug, Clone)]
pub struct Partitioner {
    live: Vec<NodeId>,
    version: u64,
}

impl Partitioner {
    /// Ownership over `live` nodes (must be non-empty and is kept
    /// sorted; `version` tags the partition map for traces).
    pub fn new(mut live: Vec<NodeId>, version: u64) -> Self {
        live.sort_unstable();
        Partitioner { live, version }
    }

    /// The nodes this map distributes over.
    pub fn live(&self) -> &[NodeId] {
        &self.live
    }

    /// The partition-map version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The directory shard responsible for `sample`: the live node with
    /// the highest rendezvous weight. Falls back to the lowest live node
    /// id on the (never observed) event of a full weight tie.
    pub fn owner(&self, sample: SampleId) -> NodeId {
        self.live
            .iter()
            .copied()
            .max_by_key(|n| (rendezvous_weight(sample, *n), std::cmp::Reverse(n.0)))
            .unwrap_or(NodeId(0))
    }
}

/// Highest-random-weight score for `(sample, node)`.
fn rendezvous_weight(sample: SampleId, node: NodeId) -> u64 {
    splitmix64(sample.0 ^ (u64::from(node.0) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector() -> Membership {
        Membership::new(3, HeartbeatConfig::default())
    }

    #[test]
    fn silence_walks_alive_suspect_down() {
        let mut m = detector();
        m.crash(NodeId(1));
        // Nodes 0 and 2 keep beaconing.
        let t1 = SimTime::ZERO + SimDuration::from_millis(30);
        m.note_heard(NodeId(0), t1);
        m.note_heard(NodeId(2), t1);
        assert!(m.advance(t1).is_empty());
        assert_eq!(m.state(NodeId(1)), NodeState::Suspect);
        assert!(m.is_live(NodeId(1)), "suspects still own their shards");

        let t2 = SimTime::ZERO + SimDuration::from_millis(70);
        m.note_heard(NodeId(0), t2);
        m.note_heard(NodeId(2), t2);
        assert_eq!(m.advance(t2), vec![NodeId(1)]);
        assert_eq!(m.state(NodeId(1)), NodeState::Down);
        assert_eq!(m.live(), vec![NodeId(0), NodeId(2)]);
        assert!(m.version() >= 2);
    }

    #[test]
    fn late_heartbeat_clears_a_suspicion() {
        let mut m = detector();
        let t1 = SimTime::ZERO + SimDuration::from_millis(30);
        m.note_heard(NodeId(0), t1);
        m.note_heard(NodeId(2), t1);
        m.advance(t1);
        assert_eq!(m.state(NodeId(1)), NodeState::Suspect);
        m.note_heard(NodeId(1), t1 + SimDuration::from_millis(1));
        assert_eq!(m.state(NodeId(1)), NodeState::Alive);
    }

    #[test]
    fn rejoin_restores_a_down_node() {
        let mut m = detector();
        m.crash(NodeId(1));
        // Two detector passes: the first ages node 1 into suspicion, the
        // second (past the down threshold) declares it down.
        let late = SimTime::ZERO + SimDuration::from_millis(200);
        m.note_heard(NodeId(0), late);
        m.note_heard(NodeId(2), late);
        m.advance(late);
        assert_eq!(m.state(NodeId(1)), NodeState::Suspect);
        let later = late + SimDuration::from_millis(100);
        m.note_heard(NodeId(0), later);
        m.note_heard(NodeId(2), later);
        m.advance(later);
        assert_eq!(m.state(NodeId(1)), NodeState::Down);
        assert!(m.rejoin(NodeId(1), later + SimDuration::from_millis(1)));
        assert_eq!(m.state(NodeId(1)), NodeState::Alive);
        assert!(!m.is_crashed(NodeId(1)));
        assert_eq!(m.live().len(), 3);
    }

    #[test]
    fn leave_is_an_immediate_down() {
        let mut m = detector();
        assert!(m.leave(NodeId(2)));
        assert_eq!(m.state(NodeId(2)), NodeState::Down);
        assert!(!m.leave(NodeId(2)), "second leave is a no-op");
    }

    #[test]
    fn transitions_are_counted_and_traced() {
        let obs = Obs::new();
        let mut m = detector().with_obs(obs.clone());
        m.crash(NodeId(0));
        let t = SimTime::ZERO + SimDuration::from_millis(100);
        m.note_heard(NodeId(1), t);
        m.note_heard(NodeId(2), t);
        m.advance(t); // 0 -> suspect (then next advance -> down)
        let t2 = t + SimDuration::from_millis(100);
        // Live nodes keep beaconing, so only the crashed node ages out.
        m.note_heard(NodeId(1), t2);
        m.note_heard(NodeId(2), t2);
        m.advance(t2);
        assert_eq!(obs.counter("svc.membership.suspects"), 1);
        assert_eq!(obs.counter("svc.membership.downs"), 1);
        let events: Vec<(String, u64)> = obs.trace_event_counts();
        assert_eq!(events, vec![("membership_change".to_string(), 2)]);
    }

    #[test]
    fn rendezvous_ownership_is_total_and_minimally_disruptive() {
        let all = Partitioner::new(vec![NodeId(0), NodeId(1), NodeId(2)], 0);
        let without_1 = Partitioner::new(vec![NodeId(0), NodeId(2)], 1);
        let mut moved = 0;
        for s in 0..1000u64 {
            let before = all.owner(SampleId(s));
            let after = without_1.owner(SampleId(s));
            assert!(all.live().contains(&before));
            assert!(without_1.live().contains(&after));
            if before != NodeId(1) {
                // Minimal disruption: survivors keep their entries.
                assert_eq!(before, after, "sample {s} moved needlessly");
            } else {
                moved += 1;
            }
        }
        assert!(moved > 200, "node 1 owned a fair share, moved {moved}");
    }

    #[test]
    fn ownership_spreads_across_nodes() {
        let p = Partitioner::new(vec![NodeId(0), NodeId(1), NodeId(2)], 0);
        let mut counts = [0u32; 3];
        for s in 0..3000u64 {
            counts[p.owner(SampleId(s)).0 as usize] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!(*c > 600, "node {i} owns too little: {c}/3000");
        }
    }
}
