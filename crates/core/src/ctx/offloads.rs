//! One fluent, capability-typed deployment builder for every serving
//! offload family.
//!
//! The §3.4/§5 offloads share one frame: a client SEND triggers an
//! instance, its response lands in that instance's client slot, and
//! `pipeline_depth` instances are in flight. [`OffloadBuilder`] holds
//! that frame's parameters — node, owner, port, PU base, depth and
//! response destination — once; its family parameter `F` holds only what
//! the family adds ([`HashGet`]: table, values, variant; [`ListWalk`]:
//! list, value length, unroll, break; [`Replication`]: journals, value
//! length, start slot). A builder collects typed capabilities
//! ([`TableRegion`], [`ValueSource`], [`ClientDest`]) and refuses to
//! deploy until every authority the offload needs has been granted.
//! Obtain one from [`OffloadCtx`](crate::ctx::OffloadCtx)'s
//! `hash_get()`, `list_walk()` or `replication()`.

use rnic_sim::error::{Error, Result};
use rnic_sim::ids::{NodeId, ProcessId};
use rnic_sim::sim::Simulator;

use crate::ctx::caps::{ClientDest, TableRegion, ValueSource};
use crate::ctx::OffloadCtx;
use crate::ir::DeployOpts;
use crate::offloads::hash_lookup::{HashGetOffload, HashGetVariant};
use crate::offloads::list::{ListWalkOffload, RECYCLED_MAX_NODES};
use crate::offloads::replicate::{ReplicationLog, ReplicationOffload};
use crate::offloads::service::FrameSpec;
use crate::program::ConstPool;

/// An offload family deployable through [`OffloadBuilder`]: the
/// parameters the family adds to the shared frame, and how it deploys.
pub trait OffloadFamily: Sized {
    /// The deployed offload.
    type Offload;
    /// The family's parameter rules for the chosen mode, run by
    /// [`OffloadBuilder::check`] before anything is allocated.
    fn check(_b: &OffloadBuilder<Self>, _recycled: bool) -> Result<()> {
        Ok(())
    }
    /// Check the family's capabilities, then the frame's, and deploy —
    /// self-recycling into `recycled`'s pool, or host-armed (the host
    /// stages each instance with
    /// [`arm`](crate::offloads::service::OffloadService::arm)) without
    /// one. Nothing is allocated before both checks pass.
    fn deploy(
        b: OffloadBuilder<Self>,
        sim: &mut Simulator,
        recycled: Option<(&mut ConstPool, DeployOpts)>,
    ) -> Result<Self::Offload>;
}

/// Fluent builder for a serving offload of family `F` (see the module
/// docs).
#[derive(Clone, Copy, Debug)]
pub struct OffloadBuilder<F> {
    node: NodeId,
    owner: ProcessId,
    port: usize,
    pu_base: usize,
    depth: u32,
    dest: Option<ClientDest>,
    family: F,
}

impl<F: OffloadFamily> OffloadBuilder<F> {
    /// A builder on `ctx`'s node and owner, on NIC port 0 and PU base 0,
    /// with the family's default depth.
    pub(crate) fn new(ctx: &OffloadCtx, depth: u32, family: F) -> OffloadBuilder<F> {
        OffloadBuilder {
            node: ctx.node(),
            owner: ctx.owner(),
            port: 0,
            pu_base: 0,
            depth,
            dest: None,
            family,
        }
    }

    /// Grant WRITE authority over the client's response buffer: one slot
    /// per in-flight instance (a value for gets and walks, the acked
    /// record's 8-byte `seq` for replication).
    pub fn respond_to(mut self, dest: ClientDest) -> OffloadBuilder<F> {
        self.dest = Some(dest);
        self
    }

    /// Override the NIC port the offload's queues bind to (default 0).
    pub fn on_port(mut self, port: usize) -> OffloadBuilder<F> {
        self.port = port;
        self
    }

    /// First processing unit this offload's queues occupy; a fleet
    /// deploying one offload per client spreads them over the NIC's PUs
    /// with distinct bases (wraps modulo the NIC's PU count).
    pub fn on_pu(mut self, pu_base: usize) -> OffloadBuilder<F> {
        self.pu_base = pu_base;
        self
    }

    /// Instances the client may keep in flight concurrently (default 1
    /// for gets and walks, the synchronous path; 4 for replication).
    /// Each in-flight instance lands its response in its own slot of the
    /// client's response buffer, which must hold `n` slots, and the
    /// response's immediate tags it so completions match requests.
    pub fn pipeline_depth(mut self, n: u32) -> OffloadBuilder<F> {
        self.depth = n;
        self
    }

    /// Deploy host-armed. The caller connects a client QP to
    /// `offload.tp.qp` and
    /// [`arm`](crate::offloads::service::OffloadService::arm)s instances.
    /// Replication chains are always self-recycling: a typed error.
    pub fn build(self, sim: &mut Simulator) -> Result<F::Offload> {
        self.check(false)?;
        F::deploy(self, sim, None)
    }

    /// Deploy the **self-recycling** variant (§3.4 WQ recycling applied
    /// to serving): all `pipeline_depth` instances are staged once into
    /// a recycled round — pristine response images in `pool`, a
    /// per-round restore chain, threshold fix-ups, a cyclic trigger-RECV
    /// ring — and the NIC re-arms everything itself between rounds.
    /// After this call the host never posts, never rings a doorbell and
    /// never pushes pool bytes for this offload again; it only claims
    /// slots ([`take_instance`](crate::offloads::service::InstanceWindow::take_instance))
    /// and retires them
    /// ([`complete_instance`](crate::offloads::service::InstanceWindow::complete_instance)).
    pub fn build_recycled(self, sim: &mut Simulator, pool: &mut ConstPool) -> Result<F::Offload> {
        self.build_recycled_with(sim, pool, DeployOpts::default())
    }

    /// As [`OffloadBuilder::build_recycled`], with explicit IR deploy
    /// switches (equivalence tests compare `optimize: false` against the
    /// default lowering).
    pub fn build_recycled_with(
        self,
        sim: &mut Simulator,
        pool: &mut ConstPool,
        opts: DeployOpts,
    ) -> Result<F::Offload> {
        self.check(true)?;
        F::deploy(self, sim, Some((pool, opts)))
    }

    /// The family's parameter rules for host-armed or `recycled`
    /// deployment; `build` and `build_recycled*` run it first. A caller
    /// that allocates before deploying (the client endpoint whose slots
    /// [`respond_to`](Self::respond_to) names) runs it before that.
    pub fn check(&self, recycled: bool) -> Result<()> {
        F::check(self, recycled)
    }

    /// The frame check: `errors` are the family's texts for a zero depth
    /// and a missing `respond_to`; `stride` is its response-slot size.
    fn frame(&self, stride: u64, errors: [&'static str; 2]) -> Result<FrameSpec> {
        if self.depth == 0 {
            return Err(Error::InvalidWr(errors[0]));
        }
        Ok(FrameSpec {
            node: self.node,
            owner: self.owner,
            port: self.port,
            pu_base: self.pu_base,
            depth: self.depth,
            dest: self.dest.ok_or(Error::InvalidWr(errors[1]))?,
            stride,
        })
    }
}

/// The text of the first broken rule of `rules` (broken, text) as a
/// typed error.
fn first_broken(rules: &[(bool, &'static str)]) -> Result<()> {
    match rules.iter().find(|(broken, _)| *broken) {
        Some(&(_, text)) => Err(Error::InvalidWr(text)),
        None => Ok(()),
    }
}

/// Hash-table `get` parameters (Fig 9): obtain the builder from
/// [`OffloadCtx::hash_get`](crate::ctx::OffloadCtx::hash_get).
#[derive(Clone, Copy, Debug, Default)]
pub struct HashGet {
    table: Option<TableRegion>,
    values: Option<ValueSource>,
    variant: HashGetVariant,
}

/// Resolved deployment parameters of a hash-get offload (internal).
#[derive(Clone, Copy, Debug)]
pub(crate) struct HashGetSpec {
    pub(crate) frame: FrameSpec,
    pub(crate) table: TableRegion,
    pub(crate) values: ValueSource,
    pub(crate) variant: HashGetVariant,
}

const HASH_GET_FRAME: [&str; 2] = [
    "hash-get pipeline_depth must be >= 1",
    "hash-get deployment needs .respond_to(...)",
];

impl OffloadFamily for HashGet {
    type Offload = HashGetOffload;
    fn check(b: &OffloadBuilder<HashGet>, recycled: bool) -> Result<()> {
        first_broken(&[(
            recycled && b.family.variant == HashGetVariant::Parallel,
            "self-recycling hash-get runs probes on one ring; use Sequential (or Single)",
        )])
    }
    fn deploy(
        b: OffloadBuilder<HashGet>,
        sim: &mut Simulator,
        recycled: Option<(&mut ConstPool, DeployOpts)>,
    ) -> Result<HashGetOffload> {
        let g = b.family;
        let table = g
            .table
            .ok_or(Error::InvalidWr("hash-get deployment needs .table(...)"))?;
        let values = g
            .values
            .ok_or(Error::InvalidWr("hash-get deployment needs .values(...)"))?;
        let spec = HashGetSpec {
            frame: b.frame(values.value_len.max(8) as u64, HASH_GET_FRAME)?,
            table,
            values,
            variant: g.variant,
        };
        match recycled {
            Some((pool, opts)) => HashGetOffload::deploy_recycled(sim, spec, pool, opts),
            None => HashGetOffload::deploy(sim, spec),
        }
    }
}

impl OffloadBuilder<HashGet> {
    /// Grant READ authority over the bucket array.
    pub fn table(mut self, table: TableRegion) -> OffloadBuilder<HashGet> {
        self.family.table = Some(table);
        self
    }

    /// Grant gather authority over the value heap (and fix the value
    /// size).
    pub fn values(mut self, values: ValueSource) -> OffloadBuilder<HashGet> {
        self.family.values = Some(values);
        self
    }

    /// Probe scheduling (Fig 11): single, sequential, or PU-parallel.
    /// Self-recycling probes run back-to-back on one ring, so it rejects
    /// `Parallel`.
    pub fn variant(mut self, variant: HashGetVariant) -> OffloadBuilder<HashGet> {
        self.family.variant = variant;
        self
    }
}

/// Linked-list traversal parameters (Fig 12/13): obtain the builder from
/// [`OffloadCtx::list_walk`](crate::ctx::OffloadCtx::list_walk).
#[derive(Clone, Copy, Debug)]
pub struct ListWalk {
    list: Option<TableRegion>,
    value_len: u32,
    max_nodes: usize,
    break_on_match: bool,
}

impl Default for ListWalk {
    fn default() -> ListWalk {
        ListWalk {
            list: None,
            value_len: 64,
            max_nodes: 8,
            break_on_match: false,
        }
    }
}

/// Resolved deployment parameters of a list-walk offload (internal).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ListWalkSpec {
    pub(crate) frame: FrameSpec,
    pub(crate) list: TableRegion,
    pub(crate) value_len: u32,
    pub(crate) max_nodes: usize,
    pub(crate) break_on_match: bool,
}

const LIST_WALK_FRAME: [&str; 2] = [
    "list-walk pipeline_depth must be >= 1",
    "list-walk deployment needs .respond_to(...)",
];

impl OffloadFamily for ListWalk {
    type Offload = ListWalkOffload;
    fn check(b: &OffloadBuilder<ListWalk>, recycled: bool) -> Result<()> {
        let w = &b.family;
        first_broken(&[
            (w.max_nodes == 0, "list-walk max_nodes must be >= 1"),
            (
                w.break_on_match && b.depth > 1,
                "break_on_match walks suppress completions and are single-instance",
            ),
            (
                recycled && w.break_on_match,
                "break_on_match suppresses completions; recycled walks need absolute counts",
            ),
            (
                recycled && w.max_nodes > RECYCLED_MAX_NODES,
                "recycled list-walk folds the key into the 16-SGE trigger scatter: max_nodes <= 15",
            ),
        ])
    }
    fn deploy(
        b: OffloadBuilder<ListWalk>,
        sim: &mut Simulator,
        recycled: Option<(&mut ConstPool, DeployOpts)>,
    ) -> Result<ListWalkOffload> {
        let w = b.family;
        let list = w
            .list
            .ok_or(Error::InvalidWr("list-walk deployment needs .list(...)"))?;
        let spec = ListWalkSpec {
            frame: b.frame(w.value_len.max(8) as u64, LIST_WALK_FRAME)?,
            list,
            value_len: w.value_len,
            max_nodes: w.max_nodes,
            break_on_match: w.break_on_match,
        };
        match recycled {
            Some((pool, opts)) => ListWalkOffload::deploy_recycled(sim, spec, pool, opts),
            None => ListWalkOffload::deploy(sim, spec),
        }
    }
}

impl OffloadBuilder<ListWalk> {
    /// Grant READ authority over the region holding the list nodes.
    pub fn list(mut self, list: TableRegion) -> OffloadBuilder<ListWalk> {
        self.family.list = Some(list);
        self
    }

    /// Value bytes per node (default 64, the paper's size).
    pub fn value_len(mut self, len: u32) -> OffloadBuilder<ListWalk> {
        self.family.value_len = len;
        self
    }

    /// Maximum nodes walked — the unroll factor (default 8, as in the
    /// paper; at most 15 when self-recycling).
    pub fn max_nodes(mut self, n: usize) -> OffloadBuilder<ListWalk> {
        self.family.max_nodes = n;
        self
    }

    /// Compile the Fig 13 `+break` variant: a match abandons the rest of
    /// the walk. Break offloads suppress response completions, which is
    /// incompatible with the absolute completion counts pipelining and
    /// recycling depend on — they stay single-instance, host-armed.
    pub fn break_on_match(mut self) -> OffloadBuilder<ListWalk> {
        self.family.break_on_match = true;
        self
    }
}

/// Chain-replicated PUT parameters (§3.4 applied to a shard primary's
/// write path): obtain the builder from
/// [`OffloadCtx::replication`](crate::ctx::OffloadCtx::replication). The
/// context's owner owns every primary-side resource, so a
/// `kill_process` of that pid takes the whole chain down — the failover
/// drill.
#[derive(Clone, Debug)]
pub struct Replication {
    pub(crate) journals: Vec<ReplicationLog>,
    pub(crate) value_len: u32,
    pub(crate) start_slot: u64,
}

impl Default for Replication {
    fn default() -> Replication {
        Replication {
            journals: Vec::new(),
            value_len: 16,
            start_slot: 0,
        }
    }
}

const REPLICATION_FRAME: [&str; 2] = [
    "replication pipeline_depth must be >= 1",
    "replication deployment needs .respond_to(...)",
];

impl OffloadFamily for Replication {
    type Offload = ReplicationOffload;
    /// A chain is always self-recycling: host-armed deployment is a
    /// typed error, as its `arm` is.
    fn deploy(
        b: OffloadBuilder<Replication>,
        sim: &mut Simulator,
        recycled: Option<(&mut ConstPool, DeployOpts)>,
    ) -> Result<ReplicationOffload> {
        let Some((pool, opts)) = recycled else {
            return Err(Error::InvalidWr(
                "replication chains are self-recycling; build() is host-armed only",
            ));
        };
        let frame = b.frame(8, REPLICATION_FRAME)?;
        ReplicationOffload::deploy(sim, frame, b.family, pool, opts)
    }
}

impl OffloadBuilder<Replication> {
    /// Add a backup journal the chain forwards every acked PUT to.
    pub fn forward_to(mut self, journal: &ReplicationLog) -> OffloadBuilder<Replication> {
        self.family.journals.push(*journal);
        self
    }

    /// Bytes per value (default 16).
    pub fn value_len(mut self, len: u32) -> OffloadBuilder<Replication> {
        self.family.value_len = len;
        self
    }

    /// First journal slot the chain appends to (default 0). A chain
    /// rebuilt after failover sets this to the number of records already
    /// recovered into the journal, so the sequence continues instead of
    /// overwriting history; the first claimed instance is then
    /// `start_slot` and its record must carry `seq = start_slot + 1`.
    pub fn start_slot(mut self, slot: u64) -> OffloadBuilder<Replication> {
        self.family.start_slot = slot;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnic_sim::config::{HostConfig, NicConfig, SimConfig};
    use rnic_sim::mem::{Access, MemoryRegion};

    /// A zero depth and a missing `respond_to` are each a typed error,
    /// in both modes, before the server allocates a byte.
    fn rejects_before_allocating<F: OffloadFamily + Clone>(
        sim: &mut Simulator,
        ctx: &mut OffloadCtx,
        b: OffloadBuilder<F>,
        dest: ClientDest,
    ) {
        for (depth, respond) in [(0, true), (1, false)] {
            for recycled in [true, false] {
                let before = sim.mem(ctx.node()).allocated();
                let mut b = b.clone().pipeline_depth(depth);
                if respond {
                    b = b.respond_to(dest);
                }
                let err = match recycled {
                    true => b.build_recycled(sim, ctx.pool_mut()).err(),
                    false => b.build(sim).err(),
                };
                assert!(matches!(err, Some(Error::InvalidWr(_))), "got {err:?}");
                assert_eq!(sim.mem(ctx.node()).allocated(), before);
            }
        }
    }

    #[test]
    fn every_family_checks_its_frame_before_allocating() {
        let mut sim = Simulator::new(SimConfig::default());
        let server = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
        let backup = sim.add_node("backup", HostConfig::default(), NicConfig::connectx5());
        let mut region = |len: u64| -> MemoryRegion {
            let addr = sim.alloc(server, len, 64).unwrap();
            sim.register_mr(server, addr, len, Access::all()).unwrap()
        };
        let (table, values, resp) = (region(256), region(1024), region(512));
        let dest = ClientDest::of(&resp);
        let journal = ReplicationLog::create(&mut sim, backup, ProcessId(0), 64, 16).unwrap();
        let mut ctx = OffloadCtx::new(&mut sim, server).unwrap();
        let get = ctx
            .hash_get()
            .table(TableRegion::of(&table))
            .values(ValueSource::of(&values, 64));
        rejects_before_allocating(&mut sim, &mut ctx, get, dest);
        let walk = ctx.list_walk().list(TableRegion::of(&table));
        rejects_before_allocating(&mut sim, &mut ctx, walk, dest);
        let chain = ctx.replication().forward_to(&journal);
        rejects_before_allocating(&mut sim, &mut ctx, chain.clone(), dest);
        // A complete chain still refuses to deploy host-armed.
        let host_armed = chain.respond_to(dest).build(&mut sim).err();
        assert!(matches!(host_armed, Some(Error::InvalidWr(_))));
    }
}
