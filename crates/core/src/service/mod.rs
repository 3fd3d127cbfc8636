//! The sharded cache service: iCache's multi-node mode as a
//! message-passing system.
//!
//! Nodes exchange [`CacheRpc`] messages over a simulated
//! network ([`SimNet`]) with configurable per-link latency and
//! bandwidth, membership is tracked by a heartbeat failure detector
//! ([`Membership`]), and the sample→node directory is sharded across
//! the live nodes by rendezvous hashing ([`Partitioner`]), moving
//! shards (and purging dead residency) whenever membership changes.
//! Crashed nodes can rejoin warm by replaying a small per-node
//! [`RecoveryIndex`] written at epoch ends.
//!
//! Layering, bottom up:
//!
//! - [`rpc`] — the message vocabulary ([`CacheRpc`] / [`CacheRpcReply`]).
//! - [`net`] — the deterministic simulated interconnect ([`SimNet`]).
//! - [`directory`] — one directory shard ([`DirectoryKv`]) and the
//!   [`DirectoryChange`] outcome of an insert.
//! - [`membership`] — heartbeat suspicion and rendezvous ownership.
//! - [`recovery`] — warm-restart index files.
//! - [`node`] — one cluster member and its [`NodeHandle`] view.
//! - [`cluster`] — [`CacheService`], the event loop tying it together.
//!
//! Everything is driven by `SimTime` passed in from the training loop;
//! there are no wall clocks and no background threads, so every run is
//! a pure function of (config, seed, schedule) — including kills,
//! suspicion, repartitions, and recovery.

pub mod cluster;
pub mod directory;
pub mod membership;
pub mod net;
pub mod node;
pub mod recovery;
pub mod rpc;

pub use cluster::{CacheService, ChurnEvent, RemoteFetchKind, ServiceConfig};
pub use directory::{DirectoryChange, DirectoryKv};
pub use membership::{HeartbeatConfig, Membership, Partitioner};
pub use net::{Envelope, LinkConfig, SimNet};
pub use node::NodeHandle;
pub(crate) use node::ServiceNode;
pub use recovery::{RecoveryEntry, RecoveryIndex, RecoveryMode, RecoveryRegion, RecoveryStore};
pub use rpc::{CacheRpc, CacheRpcReply, DirectoryOp};
