//! A deterministic simulated interconnect.
//!
//! Messages travel over directed links with configurable latency and
//! bandwidth, queued FIFO per link and delivered strictly by simulated
//! time (`SimTime`); ties break on a global send sequence number, so
//! delivery order is a pure function of the send history. No wall
//! clocks anywhere — the determinism lint applies to this module.

use crate::service::CacheRpc;
use icache_obs::{Obs, Observable};
use icache_types::{ByteSize, NodeId, SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// Latency/bandwidth of one directed link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Transfer bandwidth in bytes/second.
    pub bandwidth: f64,
}

impl LinkConfig {
    /// Time for `bytes` to traverse this link.
    pub fn transfer_time(&self, bytes: ByteSize) -> SimDuration {
        self.latency + SimDuration::from_secs_f64(bytes.as_f64() / self.bandwidth)
    }
}

/// A queued message: one [`CacheRpc`] in flight between two nodes.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// When the message entered the link queue.
    pub sent_at: SimTime,
    /// When the message reaches the receiver.
    pub deliver_at: SimTime,
    /// Global send sequence number (the deterministic tiebreak).
    pub seq: u64,
    /// The request being carried.
    pub rpc: CacheRpc,
}

/// The simulated network: per-link FIFO queues over the `SimTime` clock.
///
/// Two planes share the fabric. *Control* messages (directory traffic,
/// heartbeats, membership) are metadata-sized and ride the control link
/// profile; *data* transfers (peer cache reads) are charged the data
/// link profile via [`SimNet::transfer`]. Per-link overrides let churn
/// experiments slow individual paths down.
#[derive(Debug)]
pub struct SimNet {
    control: LinkConfig,
    data: LinkConfig,
    overrides: BTreeMap<(u32, u32), LinkConfig>,
    queues: BTreeMap<(u32, u32), VecDeque<Envelope>>,
    /// When each link's tail transfer finishes (used only when
    /// `serialize` is set — back-to-back sends then queue behind each
    /// other instead of overlapping).
    busy: BTreeMap<(u32, u32), SimTime>,
    serialize: bool,
    next_seq: u64,
    obs: NetObs,
}

icache_obs::obs_handles! {
    struct NetObs {
        sent: Counter = SVC_NET_SENT,
        delivered: Counter = SVC_NET_DELIVERED,
        transfers: Counter = SVC_NET_TRANSFERS,
        bytes: Counter = SVC_NET_BYTES,
    }
}

impl Observable for SimNet {
    fn set_obs(&mut self, obs: Obs) {
        self.obs = NetObs::new(obs);
    }
}

impl SimNet {
    /// A fabric with the given control/data link profiles.
    pub fn new(control: LinkConfig, data: LinkConfig) -> Self {
        SimNet {
            control,
            data,
            overrides: BTreeMap::new(),
            queues: BTreeMap::new(),
            busy: BTreeMap::new(),
            serialize: false,
            next_seq: 0,
            obs: NetObs::new(Obs::noop()),
        }
    }

    /// Override the data-link profile of one directed link.
    pub fn set_link(&mut self, from: NodeId, to: NodeId, link: LinkConfig) {
        self.overrides.insert((from.0, to.0), link);
    }

    /// Serialize transfers per link: a send may not start before the
    /// link's previous transfer finished. Off by default (links are
    /// modelled as uncontended).
    pub fn set_serialize(&mut self, on: bool) {
        self.serialize = on;
    }

    /// The data-link profile between two nodes (override or default).
    pub fn data_link(&self, from: NodeId, to: NodeId) -> LinkConfig {
        self.overrides
            .get(&(from.0, to.0))
            .copied()
            .unwrap_or(self.data)
    }

    /// Messages queued but not yet delivered.
    pub fn in_flight(&self) -> usize {
        self.queues.values().map(|q| q.len()).sum()
    }

    /// Queue a control-plane request; returns its delivery time.
    pub fn send(&mut self, from: NodeId, to: NodeId, rpc: CacheRpc, now: SimTime) -> SimTime {
        let link = self.control;
        let key = (from.0, to.0);
        let start = if self.serialize {
            now.max(self.busy.get(&key).copied().unwrap_or(SimTime::ZERO))
        } else {
            now
        };
        let deliver_at = start + link.transfer_time(rpc.request_bytes());
        if self.serialize {
            self.busy.insert(key, deliver_at);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.obs.sent.inc();
        self.queues.entry(key).or_default().push_back(Envelope {
            from,
            to,
            sent_at: now,
            deliver_at,
            seq,
            rpc,
        });
        deliver_at
    }

    /// Send a control-plane request and deliver it in the same step:
    /// the synchronous request/reply path of the service (the caller
    /// blocks on the reply anyway, so the message never sits in a
    /// queue). Returns the delivery time. Counts as one sent and one
    /// delivered message.
    pub fn express(&mut self, from: NodeId, to: NodeId, rpc: CacheRpc, now: SimTime) -> SimTime {
        let _ = rpc;
        let key = (from.0, to.0);
        let start = if self.serialize {
            now.max(self.busy.get(&key).copied().unwrap_or(SimTime::ZERO))
        } else {
            now
        };
        let deliver_at = start + self.control.latency;
        if self.serialize {
            self.busy.insert(key, deliver_at);
        }
        self.next_seq += 1;
        self.obs.sent.inc();
        self.obs.delivered.inc();
        deliver_at
    }

    /// Charge a data-plane payload transfer on the `from → to` link and
    /// return its completion time. This is the peer-read path: latency
    /// plus `bytes / bandwidth`, optionally serialized behind earlier
    /// transfers on the same link.
    pub fn transfer(&mut self, from: NodeId, to: NodeId, bytes: ByteSize, now: SimTime) -> SimTime {
        let link = self.data_link(from, to);
        let key = (from.0, to.0);
        let start = if self.serialize {
            now.max(self.busy.get(&key).copied().unwrap_or(SimTime::ZERO))
        } else {
            now
        };
        let done = start + link.transfer_time(bytes);
        if self.serialize {
            self.busy.insert(key, done);
        }
        self.obs.transfers.inc();
        self.obs.bytes.add(bytes.as_u64());
        done
    }

    /// Deliver every queued message due by `now`, ordered by
    /// `(deliver_at, seq)` — a deterministic merge of the per-link FIFO
    /// queues.
    pub fn deliver_due(&mut self, now: SimTime) -> Vec<Envelope> {
        let mut due: Vec<Envelope> = Vec::new();
        for q in self.queues.values_mut() {
            while q.front().is_some_and(|e| e.deliver_at <= now) {
                if let Some(e) = q.pop_front() {
                    due.push(e);
                }
            }
        }
        due.sort_by_key(|e| (e.deliver_at, e.seq));
        self.obs.delivered.add(due.len() as u64);
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icache_types::SampleId;

    fn net() -> SimNet {
        SimNet::new(
            LinkConfig {
                latency: SimDuration::from_micros(10),
                bandwidth: 1e9,
            },
            LinkConfig {
                latency: SimDuration::from_micros(80),
                bandwidth: 1.25e9,
            },
        )
    }

    #[test]
    fn control_sends_arrive_after_latency_in_fifo_order() {
        let mut n = net();
        let t0 = SimTime::ZERO;
        let a = n.send(NodeId(0), NodeId(1), CacheRpc::Heartbeat { version: 0 }, t0);
        let b = n.send(
            NodeId(0),
            NodeId(1),
            CacheRpc::Lookup {
                sample: SampleId(1),
            },
            t0,
        );
        assert_eq!(a, t0 + SimDuration::from_micros(10));
        assert_eq!(a, b, "uncontended links overlap");
        assert_eq!(n.in_flight(), 2);
        let due = n.deliver_due(a);
        assert_eq!(due.len(), 2);
        assert!(due[0].seq < due[1].seq, "FIFO by send sequence");
        assert_eq!(n.in_flight(), 0);
    }

    #[test]
    fn undelivered_messages_wait_for_their_time() {
        let mut n = net();
        let t = n.send(
            NodeId(1),
            NodeId(0),
            CacheRpc::Heartbeat { version: 1 },
            SimTime::ZERO,
        );
        assert!(n.deliver_due(SimTime::from_nanos(9_999)).is_empty());
        assert_eq!(n.deliver_due(t).len(), 1);
    }

    #[test]
    fn data_transfer_charges_latency_plus_bandwidth() {
        let mut n = net();
        let done = n.transfer(
            NodeId(1),
            NodeId(0),
            ByteSize::new(1_250_000),
            SimTime::ZERO,
        );
        // 80 µs latency + 1.25 MB / 1.25 GB/s = 80 µs + 1 ms.
        assert_eq!(
            done,
            SimTime::ZERO + SimDuration::from_micros(80) + SimDuration::from_millis(1)
        );
    }

    #[test]
    fn serialized_links_queue_back_to_back() {
        let mut n = net();
        n.set_serialize(true);
        let first = n.transfer(
            NodeId(0),
            NodeId(1),
            ByteSize::new(1_250_000),
            SimTime::ZERO,
        );
        let second = n.transfer(
            NodeId(0),
            NodeId(1),
            ByteSize::new(1_250_000),
            SimTime::ZERO,
        );
        assert!(second > first, "second transfer waits for the link");
        // The reverse direction is a different link and does not queue.
        let reverse = n.transfer(
            NodeId(1),
            NodeId(0),
            ByteSize::new(1_250_000),
            SimTime::ZERO,
        );
        assert_eq!(reverse, first);
    }

    #[test]
    fn per_link_overrides_slow_one_path_only() {
        let mut n = net();
        n.set_link(
            NodeId(0),
            NodeId(1),
            LinkConfig {
                latency: SimDuration::from_millis(5),
                bandwidth: 1.25e9,
            },
        );
        let slow = n.transfer(NodeId(0), NodeId(1), ByteSize::new(0), SimTime::ZERO);
        let fast = n.transfer(NodeId(1), NodeId(0), ByteSize::new(0), SimTime::ZERO);
        assert_eq!(slow, SimTime::ZERO + SimDuration::from_millis(5));
        assert_eq!(fast, SimTime::ZERO + SimDuration::from_micros(80));
    }

    #[test]
    fn net_counters_flow_into_the_installed_obs() {
        let obs = Obs::new();
        let mut n = net().with_obs(obs.clone());
        n.send(
            NodeId(0),
            NodeId(1),
            CacheRpc::Heartbeat { version: 0 },
            SimTime::ZERO,
        );
        n.transfer(NodeId(0), NodeId(1), ByteSize::new(100), SimTime::ZERO);
        n.deliver_due(SimTime::ZERO + SimDuration::from_secs_f64(1.0));
        assert_eq!(obs.counter("svc.net.sent"), 1);
        assert_eq!(obs.counter("svc.net.delivered"), 1);
        assert_eq!(obs.counter("svc.net.transfers"), 1);
        assert_eq!(obs.counter("svc.net.bytes"), 100);
    }
}
