//! One node of the sharded cache service.
//!
//! A `ServiceNode` bundles what one machine hosts: its cache manager
//! (absent while crashed) and its directory shard. All access goes
//! through `ServiceNode::handle` — the [`CacheRpc`] dispatch that is
//! the node's entire API — or through the read-only [`NodeHandle`]
//! facade handed out for diagnostics and tests, which replaces the old
//! direct `&[IcacheManager]` access.

use crate::service::{CacheRpc, CacheRpcReply, DirectoryKv, DirectoryOp};
use crate::{CacheStats, CacheSystem, IcacheManager};
use icache_obs::{decl, Counter, Obs, Observable};
use icache_storage::StorageBackend;
use icache_types::{ByteSize, NodeId, NodeState, SampleId, SimTime};

/// A node's `dist.node{i}.*` fetch-classification counters. Resolving
/// the same node index again (a new `Obs`, a rejoin) reaches the same
/// cells, so the counts survive the node's manager.
#[derive(Debug)]
pub(crate) struct NodeCounters {
    pub(crate) local_hits: Counter,
    pub(crate) remote_hits: Counter,
    pub(crate) storage_fetches: Counter,
}

impl NodeCounters {
    fn new(obs: &Obs, node: NodeId) -> Self {
        let i = u64::from(node.0);
        NodeCounters {
            local_hits: obs.member(decl::DIST_NODE_LOCAL_HITS, i),
            remote_hits: obs.member(decl::DIST_NODE_REMOTE_HITS, i),
            storage_fetches: obs.member(decl::DIST_NODE_STORAGE_FETCHES, i),
        }
    }
}

/// One cluster member: manager + directory shard + crash flag.
#[derive(Debug)]
pub(crate) struct ServiceNode {
    pub(crate) id: NodeId,
    /// `None` while the node is crashed (cache contents lost).
    pub(crate) manager: Option<IcacheManager>,
    /// This node's slice of the sample→node directory.
    pub(crate) shard: DirectoryKv,
    /// Crashed nodes ignore every message until they rejoin.
    pub(crate) crashed: bool,
    pub(crate) counters: NodeCounters,
}

impl ServiceNode {
    pub(crate) fn new(id: NodeId, manager: IcacheManager, obs: &Obs) -> Self {
        ServiceNode {
            id,
            manager: Some(manager),
            shard: DirectoryKv::new(),
            crashed: false,
            counters: NodeCounters::new(obs, id),
        }
    }

    /// Point the manager, the directory shard and the node's own
    /// counters at `obs`.
    pub(crate) fn set_obs(&mut self, obs: &Obs) {
        if let Some(m) = self.manager.as_mut() {
            CacheSystem::set_obs(m, obs.clone());
        }
        self.shard.set_obs(obs.clone());
        self.counters = NodeCounters::new(obs, self.id);
    }

    /// Whether the node is up and holding a manager.
    pub(crate) fn is_up(&self) -> bool {
        !self.crashed && self.manager.is_some()
    }

    /// Whether the node's cache holds `id` (false while crashed).
    pub(crate) fn contains_cached(&self, id: SampleId) -> bool {
        self.manager
            .as_ref()
            .is_some_and(|m| !self.crashed && m.contains_cached(id))
    }

    /// Dispatch one request. Crashed nodes never reply — the service
    /// synthesizes [`CacheRpcReply::TimedOut`] on their behalf so the
    /// caller pays the RPC timeout instead of blocking forever.
    pub(crate) fn handle(
        &mut self,
        rpc: CacheRpc,
        now: SimTime,
        storage: &mut dyn StorageBackend,
    ) -> CacheRpcReply {
        if self.crashed {
            return CacheRpcReply::TimedOut;
        }
        match rpc {
            CacheRpc::Lookup { sample } => CacheRpcReply::Owner(self.shard.lookup(sample)),
            CacheRpc::FetchLocal { job, sample, size } => match &mut self.manager {
                Some(m) => CacheRpcReply::Fetched(m.fetch(job, sample, size, now, storage)),
                None => CacheRpcReply::TimedOut,
            },
            CacheRpc::FetchRemote { sample, size, .. } => {
                if self.contains_cached(sample) {
                    CacheRpcReply::RemoteData {
                        sample,
                        bytes: size,
                    }
                } else {
                    CacheRpcReply::NotFound
                }
            }
            CacheRpc::DirectoryUpdate { sample, op } => match op {
                DirectoryOp::Insert(node) => {
                    CacheRpcReply::Updated(self.shard.insert(sample, node))
                }
                DirectoryOp::Remove => match self.shard.remove(sample) {
                    Some(_) => CacheRpcReply::Ack,
                    None => CacheRpcReply::NotFound,
                },
            },
            CacheRpc::Heartbeat { .. } | CacheRpc::Join { .. } | CacheRpc::Leave { .. } => {
                // Liveness and membership are cluster-level concerns; the
                // node merely acknowledges receipt.
                CacheRpcReply::Ack
            }
        }
    }
}

/// Read-only view of one service node, replacing direct manager access.
///
/// Obtained from [`crate::service::CacheService::node`]; everything a
/// diagnostic, test, or report needs from a node flows through here.
#[derive(Debug)]
pub struct NodeHandle<'a> {
    pub(crate) node: &'a ServiceNode,
    pub(crate) state: NodeState,
}

impl NodeHandle<'_> {
    /// The node's cluster id.
    pub fn id(&self) -> NodeId {
        self.node.id
    }

    /// The failure detector's view of this node.
    pub fn state(&self) -> NodeState {
        self.state
    }

    /// Whether the node currently serves traffic (not crashed).
    pub fn is_up(&self) -> bool {
        self.node.is_up()
    }

    /// Whether this node's cache holds `id` right now.
    pub fn contains_cached(&self, id: SampleId) -> bool {
        self.node.contains_cached(id)
    }

    /// The node's cache counters; zeroed while crashed (a crash loses
    /// the process, and with it the in-memory stats).
    pub fn stats(&self) -> CacheStats {
        self.node
            .manager
            .as_ref()
            .map(|m| m.stats())
            .unwrap_or_default()
    }

    /// Bytes resident in this node's cache.
    pub fn used_bytes(&self) -> ByteSize {
        self.node
            .manager
            .as_ref()
            .map(|m| m.used_bytes())
            .unwrap_or(ByteSize::ZERO)
    }

    /// Entries in this node's directory shard.
    pub fn shard_len(&self) -> usize {
        self.node.shard.len()
    }
}
