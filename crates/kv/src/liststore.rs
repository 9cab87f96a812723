//! Server-side linked-list region for the §3.3 / §5.3 list-walk
//! offload.
//!
//! The paper's list-traversal experiments walk NIC-registered linked
//! lists of `[next][key][value]` nodes ([`encode_node_into`]). A
//! [`ListStore`] owns a registered region holding `nlists` disjoint
//! singly-linked lists of `nodes_per_list` nodes each — the list-side
//! counterpart of
//! [`MemcachedServer`](crate::memcached::MemcachedServer)'s cuckoo
//! table, so a heterogeneous [`ServingFleet`](crate::serving::ServingFleet)
//! can deploy hash-get and list-walk services against one NIC.
//!
//! Keys are deterministic ([`ListStore::key_of`]) and values are tagged
//! with the key's low byte, so clients can verify responses without a
//! host round trip.

use redn_core::ctx::{ListWalk, OffloadBuilder, OffloadCtx, TableRegion};
use redn_core::offloads::list::{encode_node_into, NODE_HEADER};
use rnic_sim::error::{Error, Result};
use rnic_sim::ids::{NodeId, ProcessId};
use rnic_sim::mem::{Access, MemoryRegion};
use rnic_sim::sim::Simulator;

/// Keys of list nodes start here — far above the `1..=n` range the
/// Memcached population uses, so a mixed fleet's key spaces never
/// collide.
const LIST_KEY_BASE: u64 = 1 << 32;

/// A registered region of server-side linked lists (see module docs).
pub struct ListStore {
    /// Server node the lists live on.
    pub(crate) node: NodeId,
    /// Owning process (crash semantics, as for the hash table).
    pub(crate) owner: ProcessId,
    /// Value bytes per node.
    pub(crate) value_len: u32,
    /// Number of disjoint lists.
    pub(crate) nlists: u64,
    /// Nodes per list.
    pub nodes_per_list: usize,
    base: u64,
    mr: MemoryRegion,
}

impl ListStore {
    /// Allocate, register, and populate the list region: `nlists`
    /// disjoint lists of `nodes_per_list` nodes, each node carrying
    /// [`ListStore::key_of`] and a value filled with the key's low byte.
    /// A region larger than the node's DRAM, however large, is
    /// `OutOfMemory`.
    pub fn create(
        sim: &mut Simulator,
        node: NodeId,
        nlists: u64,
        nodes_per_list: usize,
        value_len: u32,
        owner: ProcessId,
    ) -> Result<ListStore> {
        if nlists == 0 || nodes_per_list == 0 {
            return Err(Error::InvalidWr("list store needs >= 1 list and node"));
        }
        let node_size = NODE_HEADER + value_len as u64;
        let total = nlists
            .checked_mul(nodes_per_list as u64)
            .and_then(|nodes| nodes.checked_mul(node_size))
            .ok_or(Error::OutOfMemory(node))?;
        let base = sim.alloc(node, total, 64)?;
        let mr = sim.register_mr_owned(node, base, total, Access::all(), owner)?;
        let store = ListStore {
            node,
            owner,
            value_len,
            nlists,
            nodes_per_list,
            base,
            mr,
        };
        let (mut value, mut bytes) = (vec![0; value_len as usize], Vec::new());
        for l in 0..nlists {
            for p in 0..nodes_per_list {
                let addr = store.node_addr(l, p);
                let next = if p + 1 < nodes_per_list {
                    store.node_addr(l, p + 1)
                } else {
                    0
                };
                let key = store.key_of(l, p);
                value.fill((key & 0xFF) as u8);
                encode_node_into(&mut bytes, next, key, &value);
                sim.mem_write(node, addr, &bytes)?;
            }
        }
        Ok(store)
    }

    /// The list region (what a one-sided client READs).
    pub fn mr(&self) -> MemoryRegion {
        self.mr
    }

    /// Bytes per node (`[next][key]` header + value).
    fn node_size(&self) -> u64 {
        NODE_HEADER + self.value_len as u64
    }

    /// Address of node `pos` of list `list`.
    fn node_addr(&self, list: u64, pos: usize) -> u64 {
        (list * self.nodes_per_list as u64 + pos as u64) * self.node_size() + self.base
    }

    /// Head pointer of list `list` — what a client passes as `N0`.
    pub fn head(&self, list: u64) -> u64 {
        assert!(list < self.nlists, "list {list} out of range");
        self.node_addr(list, 0)
    }

    /// The deterministic key stored at (`list`, `pos`): unique across
    /// the store, never zero, above `LIST_KEY_BASE`, and within the
    /// offload's 48-bit operand width.
    pub fn key_of(&self, list: u64, pos: usize) -> u64 {
        assert!(list < self.nlists && pos < self.nodes_per_list);
        LIST_KEY_BASE + list * self.nodes_per_list as u64 + pos as u64 + 1
    }

    /// A list-walk deployment builder pre-granting this store's region
    /// capability through `ctx` (which must live on this store's node,
    /// with this store's owner: `Error::InvalidWr` otherwise). Callers
    /// add the per-client pieces — `respond_to`, `max_nodes`,
    /// `pipeline_depth`, `on_pu` — and `build`/`build_recycled`; the
    /// serving layer uses this to deploy one walk service per client.
    pub fn walk_builder(&self, ctx: &OffloadCtx) -> Result<OffloadBuilder<ListWalk>> {
        if ctx.node() != self.node {
            return Err(Error::InvalidWr(
                "the offload context must live on the store's node",
            ));
        }
        if ctx.owner() != self.owner {
            return Err(Error::InvalidWr(
                "the offload context's owner must match the store's",
            ));
        }
        Ok(ctx
            .list_walk()
            .list(TableRegion::of(&self.mr))
            .value_len(self.value_len))
    }

    /// The request stream for walk client `client` of `nclients`: every
    /// (head, key) pair of the client's disjoint share of the lists,
    /// position-inner so successive requests walk *different* depths —
    /// a pipelined window carries the full mixed-depth traffic shape
    /// rather than a run of identical walks. Fleet walk clients cycle
    /// through this.
    pub fn walk_requests(&self, client: usize, nclients: usize) -> Vec<(u64, u64)> {
        assert!(nclients > 0 && client < nclients);
        let span = self.nlists / nclients as u64;
        assert!(span > 0, "fewer lists than walk clients");
        let base = client as u64 * span;
        let mut reqs = Vec::with_capacity(span as usize * self.nodes_per_list);
        for l in base..base + span {
            for pos in 0..self.nodes_per_list {
                reqs.push((self.head(l), self.key_of(l, pos)));
            }
        }
        reqs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cuckoo::CuckooTable;
    use redn_core::offloads::list::{NODE_OFF_KEY, NODE_OFF_NEXT};
    use rnic_sim::config::{HostConfig, LinkConfig, NicConfig, SimConfig};
    use rnic_sim::cq::CqeStatus;
    use rnic_sim::qp::QpConfig;
    use rnic_sim::wqe::WorkRequest;

    /// The region belongs to the store's owner, as a cuckoo table's does:
    /// once that process dies, a one-sided READ of either faults.
    #[test]
    fn the_region_dies_with_its_owner() {
        let mut sim = Simulator::new(SimConfig::default());
        let c = sim.add_node("client", HostConfig::default(), NicConfig::connectx5());
        let s = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
        sim.connect_nodes(c, s, LinkConfig::back_to_back());
        let owner = sim.spawn_process(s);
        let store = ListStore::create(&mut sim, s, 1, 2, 16, owner).unwrap();
        let table = CuckooTable::create(&mut sim, s, 8, 16, owner).unwrap();
        let cq = sim.create_cq(c, 16).unwrap();
        let qp = sim.create_qp(c, QpConfig::new(cq)).unwrap();
        let scq = sim.create_cq(s, 16).unwrap();
        let sqp = sim.create_qp(s, QpConfig::new(scq)).unwrap();
        sim.connect_qps(qp, sqp).unwrap();
        let buf = sim.alloc(c, 16, 8).unwrap();
        let lkey = sim.register_mr(c, buf, 16, Access::all()).unwrap().lkey;
        sim.kill_process(s, owner);
        let mut read = |mr: MemoryRegion| {
            let wr = WorkRequest::read(buf, lkey, 16, mr.addr, mr.rkey).signaled();
            sim.post_send(qp, wr).unwrap();
            sim.run().unwrap();
            sim.poll_cq(cq, 1).pop().expect("a completion").status
        };
        let (table_read, list_read) = (read(table.mr()), read(store.mr()));
        assert_ne!(table_read, CqeStatus::Success, "the table's owner is dead");
        assert_eq!(list_read, table_read, "so is the list region's");
    }

    #[test]
    fn store_lays_out_disjoint_terminated_lists() {
        let mut sim = Simulator::new(SimConfig::default());
        let s = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
        let store = ListStore::create(&mut sim, s, 4, 3, 32, ProcessId(0)).unwrap();
        let mut seen = std::collections::HashSet::new();
        for l in 0..4u64 {
            let mut addr = store.head(l);
            for p in 0..3usize {
                let key = sim.mem_read_u64(s, addr + NODE_OFF_KEY).unwrap() & 0xFFFF_FFFF_FFFF;
                assert_eq!(key, store.key_of(l, p) & 0xFFFF_FFFF_FFFF);
                assert!(seen.insert(key), "key {key} duplicated");
                addr = sim.mem_read_u64(s, addr + NODE_OFF_NEXT).unwrap();
            }
            assert_eq!(addr, 0, "list {l} must be null-terminated");
        }
    }

    #[test]
    fn a_store_larger_than_any_address_space_is_an_error() {
        let mut sim = Simulator::new(SimConfig::default());
        let s = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
        // nlists × nodes × node size does not fit in a u64 (the product
        // used to overflow).
        let huge = ListStore::create(&mut sim, s, 1 << 62, 4, 64, ProcessId(0));
        assert!(matches!(huge, Err(Error::OutOfMemory(n)) if n == s));
        assert_eq!(sim.mem(s).allocated(), 0);
    }

    #[test]
    fn walk_requests_partition_the_lists() {
        let mut sim = Simulator::new(SimConfig::default());
        let s = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
        let store = ListStore::create(&mut sim, s, 4, 2, 16, ProcessId(0)).unwrap();
        let a = store.walk_requests(0, 2);
        let b = store.walk_requests(1, 2);
        assert_eq!(a.len(), 4);
        assert_eq!(b.len(), 4);
        let heads_a: std::collections::HashSet<u64> = a.iter().map(|r| r.0).collect();
        let heads_b: std::collections::HashSet<u64> = b.iter().map(|r| r.0).collect();
        assert!(heads_a.is_disjoint(&heads_b), "clients share no lists");
    }
}
