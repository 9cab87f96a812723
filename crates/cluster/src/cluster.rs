//! Cluster topology: N shard-serving nodes plus a client node, fully
//! meshed, each node running its own Memcached table and offload
//! context.
//!
//! Keys are partitioned by the [`ShardRouter`]: every node's table is
//! populated only with the keys that route to its shard, so the whole
//! populated key space `[1, nkeys]` is served exactly once across the
//! cluster. A level of indirection — `assignment[shard] -> node stack` —
//! lets failover move a shard to its promoted backup without remapping
//! any other shard's keys.

use crate::router::ShardRouter;
use redn_core::ctx::OffloadCtx;
use redn_kv::memcached::MemcachedServer;
use rnic_sim::config::{HostConfig, LinkConfig, NicConfig, SimConfig};
use rnic_sim::error::{Error, Result};
use rnic_sim::ids::{NodeId, ProcessId};
use rnic_sim::sim::Simulator;

/// Cluster geometry and per-node store sizing.
#[derive(Clone, Copy, Debug)]
pub struct ClusterSpec {
    /// Server nodes (one shard each). At least 2 — replication needs a
    /// backup on a different node.
    pub nodes: usize,
    /// Total populated keys `[1, nkeys]`, partitioned across shards.
    pub nkeys: u64,
    /// Bytes per value.
    pub value_len: u32,
    /// Buckets per node's table.
    pub nbuckets: u64,
    /// In-flight PUT window per put session.
    pub put_depth: u32,
    /// Capacity (records) of each replication journal.
    pub journal_capacity: u64,
}

impl ClusterSpec {
    /// The CI-sized cluster: 4 nodes, a small key space.
    pub fn small() -> ClusterSpec {
        ClusterSpec {
            nodes: 4,
            nkeys: 2048,
            value_len: 16,
            nbuckets: 4096,
            put_depth: 4,
            journal_capacity: 4096,
        }
    }
}

/// One node's serving stack.
pub struct Shard {
    /// The node this stack lives on.
    pub node: NodeId,
    /// Its Memcached table (populated with the shard's key partition).
    pub server: MemcachedServer,
    /// Offload context (owner = the killable serving process).
    pub ctx: OffloadCtx,
    /// The serving process — `kill_process(node, pid)` is the §5.6
    /// crash drill; the node's hull (pid 0) and anything owned by it
    /// survive.
    pub pid: ProcessId,
}

/// A deployed cluster: topology, per-node stacks, and the shard map.
pub struct Cluster {
    /// The client node every session lives on.
    pub client: NodeId,
    /// Per-node serving stacks, index = home shard id.
    pub shards: Vec<Shard>,
    /// Key → shard-id router (shared by every client and controller).
    pub router: ShardRouter,
    /// shard id → index into `shards` currently serving it (identity
    /// until a failover promotes a backup stack).
    pub assignment: Vec<usize>,
    /// The deployed spec.
    pub spec: ClusterSpec,
}

impl Cluster {
    /// Create the topology inside a fresh simulator: one client node,
    /// `spec.nodes` server nodes, full mesh of back-to-back links, and a
    /// populated per-shard table + offload context on every server node.
    pub fn deploy(spec: ClusterSpec) -> Result<(Simulator, Cluster)> {
        let mut sim = Simulator::new(SimConfig::default());
        let cluster = Cluster::deploy_into(&mut sim, spec)?;
        Ok((sim, cluster))
    }

    /// Same as [`Cluster::deploy`] but into an existing simulator.
    pub fn deploy_into(sim: &mut Simulator, spec: ClusterSpec) -> Result<Cluster> {
        if spec.nodes < 2 {
            return Err(Error::InvalidWr(
                "a replicated cluster needs at least 2 server nodes",
            ));
        }
        let client = sim.add_node(
            "cluster-client",
            HostConfig::default(),
            NicConfig::connectx5(),
        );
        let mut nodes = Vec::with_capacity(spec.nodes);
        for i in 0..spec.nodes {
            let name = format!("shard{i}");
            nodes.push(sim.add_node(&name, HostConfig::default(), NicConfig::connectx5()));
        }
        let mut all = nodes.clone();
        all.push(client);
        sim.connect_mesh(&all, LinkConfig::back_to_back());

        let router = ShardRouter::new(0..spec.nodes);
        // Route the key space once, not once per node.
        let owner: Vec<usize> = (1..=spec.nkeys).map(|key| router.route(key)).collect();
        let mut value = vec![0u8; spec.value_len as usize];
        let mut shards = Vec::with_capacity(spec.nodes);
        for (i, &node) in nodes.iter().enumerate() {
            let pid = sim.spawn_process(node, "shard-serve", Some(ProcessId(0)));
            let server = MemcachedServer::create(sim, node, spec.nbuckets, spec.value_len, pid)?;
            // Populate only this shard's partition, with the same value
            // convention as `MemcachedServer::populate` so get paths
            // verify identically.
            for key in (1..=spec.nkeys).filter(|key| owner[(key - 1) as usize] == i) {
                value.fill((key & 0xFF) as u8);
                if !server.table.borrow_mut().insert(sim, key, &value)? {
                    return Err(Error::InvalidWr("shard table full during populate"));
                }
            }
            let ctx = OffloadCtx::builder(node).owner(pid).build(sim)?;
            shards.push(Shard {
                node,
                server,
                ctx,
                pid,
            });
        }
        Ok(Cluster {
            client,
            shards,
            router,
            assignment: (0..spec.nodes).collect(),
            spec,
        })
    }

    /// The shard id owning `key`.
    pub fn shard_for(&self, key: u64) -> usize {
        self.router.route(key)
    }

    /// Index into [`Cluster::shards`] currently serving shard id `s`.
    pub fn serving_stack(&self, s: usize) -> usize {
        self.assignment[s]
    }

    /// The populated keys owned by shard id `s` (in insertion order).
    pub fn owned_keys(&self, s: usize) -> Vec<u64> {
        (1..=self.spec.nkeys)
            .filter(|&k| self.router.route(k) == s)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deploy_partitions_the_key_space() {
        let spec = ClusterSpec {
            nodes: 4,
            nkeys: 512,
            ..ClusterSpec::small()
        };
        let (sim, cluster) = Cluster::deploy(spec).unwrap();
        let mut total = 0;
        for s in 0..4 {
            let keys = cluster.owned_keys(s);
            total += keys.len() as u64;
            assert!(!keys.is_empty(), "shard {s} owns no keys");
            for &k in &keys {
                let stack = &cluster.shards[cluster.serving_stack(s)];
                assert!(
                    stack.server.table.borrow().lookup(k).is_some(),
                    "key {k} missing from its shard table"
                );
            }
        }
        assert_eq!(total, 512, "partition covers the key space exactly once");
        drop(sim);
    }

    #[test]
    fn single_node_cluster_is_rejected() {
        let spec = ClusterSpec {
            nodes: 1,
            ..ClusterSpec::small()
        };
        assert!(Cluster::deploy(spec).is_err());
    }
}
