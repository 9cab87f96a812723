//! Fluent, capability-typed deployment builders for the §5 offloads.
//!
//! These replaced the raw config structs (`HashGetConfig`,
//! `ListWalkConfig`, both since removed) whose loose `u32` key fields
//! were the sharpest edge of the old API. A builder collects typed
//! capabilities
//! ([`TableRegion`], [`ValueSource`], [`ClientDest`]) and refuses to
//! deploy until every authority the offload needs has been granted.

use rnic_sim::error::{Error, Result};
use rnic_sim::ids::{NodeId, ProcessId};
use rnic_sim::sim::Simulator;

use crate::ctx::caps::{ClientDest, TableRegion, ValueSource};
use crate::offloads::hash_lookup::{HashGetOffload, HashGetVariant};
use crate::offloads::list::ListWalkOffload;
use crate::offloads::service::FrameSpec;
use crate::program::ConstPool;

/// Resolved deployment parameters of a hash-get offload (internal; built
/// only by [`HashGetBuilder`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct HashGetSpec {
    pub(crate) frame: FrameSpec,
    pub(crate) table: TableRegion,
    pub(crate) values: ValueSource,
    pub(crate) variant: HashGetVariant,
}

/// Fluent builder for the hash-table `get` offload (Fig 9). Obtain from
/// [`OffloadCtx::hash_get`](crate::ctx::OffloadCtx::hash_get).
#[derive(Clone, Copy, Debug)]
pub struct HashGetBuilder {
    node: NodeId,
    owner: ProcessId,
    port: usize,
    table: Option<TableRegion>,
    values: Option<ValueSource>,
    dest: Option<ClientDest>,
    variant: HashGetVariant,
    pipeline_depth: u32,
    pu_base: usize,
}

impl HashGetBuilder {
    pub(crate) fn new(node: NodeId, owner: ProcessId, port: usize) -> HashGetBuilder {
        HashGetBuilder {
            node,
            owner,
            port,
            table: None,
            values: None,
            dest: None,
            variant: HashGetVariant::Single,
            pipeline_depth: 1,
            pu_base: 0,
        }
    }

    /// Grant READ authority over the bucket array.
    pub fn table(mut self, table: TableRegion) -> HashGetBuilder {
        self.table = Some(table);
        self
    }

    /// Grant gather authority over the value heap (and fix the value
    /// size).
    pub fn values(mut self, values: ValueSource) -> HashGetBuilder {
        self.values = Some(values);
        self
    }

    /// Grant WRITE authority over the client's response buffer.
    pub fn respond_to(mut self, dest: ClientDest) -> HashGetBuilder {
        self.dest = Some(dest);
        self
    }

    /// Probe scheduling (Fig 11): single, sequential, or PU-parallel.
    pub fn variant(mut self, variant: HashGetVariant) -> HashGetBuilder {
        self.variant = variant;
        self
    }

    /// Override the NIC port the offload's queues bind to.
    pub fn on_port(mut self, port: usize) -> HashGetBuilder {
        self.port = port;
        self
    }

    /// Instances the client may keep in flight concurrently (default 1,
    /// the synchronous path). Each in-flight instance gets its own slot
    /// of the client's response buffer, which must therefore hold at
    /// least `n * value_len.max(8)` bytes; the instance id rides the
    /// response's immediate so completions can be matched to requests.
    pub fn pipeline_depth(mut self, n: u32) -> HashGetBuilder {
        self.pipeline_depth = n;
        self
    }

    /// First processing unit this offload's queues occupy; a fleet
    /// deploying one offload per client spreads them over the NIC's PUs
    /// with distinct bases (wraps modulo the NIC's PU count).
    pub fn on_pu(mut self, pu_base: usize) -> HashGetBuilder {
        self.pu_base = pu_base;
        self
    }

    /// Deploy the offload's queues. The caller connects a client QP to
    /// `offload.tp.qp` and [`arm`](HashGetOffload::arm)s instances.
    pub fn build(self, sim: &mut Simulator) -> Result<HashGetOffload> {
        HashGetOffload::deploy(sim, self.resolve()?)
    }

    /// Deploy the **self-recycling** variant (§3.4 WQ recycling applied
    /// to serving): all `pipeline_depth` instances are staged once into a
    /// recycled round — pristine response images in `pool`, a per-round
    /// restore chain, FETCH_ADD threshold fix-ups, a cyclic trigger-RECV
    /// ring — and the NIC re-arms everything itself between rounds. After
    /// this call the host never posts, never rings a doorbell, and never
    /// pushes pool bytes for this offload again; it only claims slots
    /// ([`take_instance`](crate::offloads::service::InstanceWindow::take_instance))
    /// and retires them
    /// ([`complete_instance`](crate::offloads::service::InstanceWindow::complete_instance))
    /// as responses drain. Runs unbounded until halted or the simulation
    /// ends.
    ///
    /// Probes run back-to-back on one ring, so `Parallel` is rejected —
    /// use `Sequential` for two-candidate tables.
    pub fn build_recycled(
        self,
        sim: &mut Simulator,
        pool: &mut ConstPool,
    ) -> Result<HashGetOffload> {
        self.build_recycled_with(sim, pool, crate::ir::DeployOpts::default())
    }

    /// As [`HashGetBuilder::build_recycled`], with explicit IR deploy
    /// switches (equivalence tests compare `optimize: false` against the
    /// default lowering).
    pub fn build_recycled_with(
        self,
        sim: &mut Simulator,
        pool: &mut ConstPool,
        opts: crate::ir::DeployOpts,
    ) -> Result<HashGetOffload> {
        HashGetOffload::deploy_recycled(sim, self.resolve()?, pool, opts)
    }

    fn resolve(&self) -> Result<HashGetSpec> {
        if self.pipeline_depth == 0 {
            return Err(Error::InvalidWr("hash-get pipeline_depth must be >= 1"));
        }
        let table = self
            .table
            .ok_or(Error::InvalidWr("hash-get deployment needs .table(...)"))?;
        let values = self
            .values
            .ok_or(Error::InvalidWr("hash-get deployment needs .values(...)"))?;
        Ok(HashGetSpec {
            frame: FrameSpec {
                node: self.node,
                owner: self.owner,
                port: self.port,
                pu_base: self.pu_base,
                depth: self.pipeline_depth,
                dest: self.dest.ok_or(Error::InvalidWr(
                    "hash-get deployment needs .respond_to(...)",
                ))?,
                stride: values.value_len.max(8) as u64,
            },
            table,
            values,
            variant: self.variant,
        })
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

/// Fluent builder for the linked-list traversal offload (Fig 12/13).
/// Obtain from [`OffloadCtx::list_walk`](crate::ctx::OffloadCtx::list_walk).
#[derive(Clone, Copy, Debug)]
pub struct ListWalkBuilder {
    node: NodeId,
    owner: ProcessId,
    port: usize,
    list: Option<TableRegion>,
    value_len: u32,
    dest: Option<ClientDest>,
    max_nodes: usize,
    break_on_match: bool,
    pipeline_depth: u32,
    pu_base: usize,
}

impl ListWalkBuilder {
    pub(crate) fn new(node: NodeId, owner: ProcessId) -> ListWalkBuilder {
        ListWalkBuilder {
            node,
            owner,
            port: 0,
            list: None,
            value_len: 64,
            dest: None,
            max_nodes: 8,
            break_on_match: false,
            pipeline_depth: 1,
            pu_base: 0,
        }
    }

    /// Grant READ authority over the region holding the list nodes.
    pub fn list(mut self, list: TableRegion) -> ListWalkBuilder {
        self.list = Some(list);
        self
    }

    /// Value bytes per node (default 64, the paper's size).
    pub fn value_len(mut self, len: u32) -> ListWalkBuilder {
        self.value_len = len;
        self
    }

    /// Grant WRITE authority over the client's response buffer.
    pub fn respond_to(mut self, dest: ClientDest) -> ListWalkBuilder {
        self.dest = Some(dest);
        self
    }

    /// Maximum nodes walked — the unroll factor (default 8, as in the
    /// paper).
    pub fn max_nodes(mut self, n: usize) -> ListWalkBuilder {
        self.max_nodes = n;
        self
    }

    /// Compile the Fig 13 `+break` variant: a match abandons the rest of
    /// the walk. Break offloads suppress response completions, which is
    /// incompatible with the absolute completion counts pipelining and
    /// recycling depend on — they stay single-instance, host-armed.
    pub fn break_on_match(mut self) -> ListWalkBuilder {
        self.break_on_match = true;
        self
    }

    /// Override the NIC port the offload's queues bind to.
    pub fn on_port(mut self, port: usize) -> ListWalkBuilder {
        self.port = port;
        self
    }

    /// Instances the client may keep in flight concurrently (default 1,
    /// the synchronous path). Each in-flight instance lands its response
    /// in its own slot of the client's response buffer (which must hold
    /// at least `n * value_len.max(8)` bytes) and carries an instance
    /// tag in the response's immediate, exactly like the hash-get
    /// offload — the two are interchangeable behind
    /// [`OffloadService`](crate::offloads::service::OffloadService).
    pub fn pipeline_depth(mut self, n: u32) -> ListWalkBuilder {
        self.pipeline_depth = n;
        self
    }

    /// First processing unit this offload's queues occupy; a fleet
    /// deploying one offload per client spreads them over the NIC's PUs
    /// with distinct bases (wraps modulo the NIC's PU count).
    pub fn on_pu(mut self, pu_base: usize) -> ListWalkBuilder {
        self.pu_base = pu_base;
        self
    }

    /// Deploy the offload's queues. The caller connects a client QP to
    /// `offload.tp.qp` and [`arm`](ListWalkOffload::arm)s instances.
    pub fn build(self, sim: &mut Simulator) -> Result<ListWalkOffload> {
        ListWalkOffload::deploy(sim, self.resolve()?)
    }

    /// Deploy the **self-recycling** variant (§3.4 WQ recycling applied
    /// to list traversal): all `pipeline_depth` walk instances are staged
    /// once into one recycled ring — per-iteration READ→CAS pairs gated
    /// by `wait_prev`, pristine response images restored per round,
    /// FETCH_ADD threshold fix-ups, a cyclic trigger-RECV ring — and the
    /// NIC re-arms everything itself between rounds. The paper's R3
    /// key-copy WRITE is folded into the trigger RECV's scatter (the
    /// §5.3 16-SGE observation), which caps `max_nodes` at 15.
    pub fn build_recycled(
        self,
        sim: &mut Simulator,
        pool: &mut ConstPool,
    ) -> Result<ListWalkOffload> {
        self.build_recycled_with(sim, pool, crate::ir::DeployOpts::default())
    }

    /// As [`ListWalkBuilder::build_recycled`], with explicit IR deploy
    /// switches (equivalence tests compare `optimize: false` against the
    /// default lowering).
    pub fn build_recycled_with(
        self,
        sim: &mut Simulator,
        pool: &mut ConstPool,
        opts: crate::ir::DeployOpts,
    ) -> Result<ListWalkOffload> {
        ListWalkOffload::deploy_recycled(sim, self.resolve()?, pool, opts)
    }

    fn resolve(&self) -> Result<ListWalkSpec> {
        if self.pipeline_depth == 0 {
            return Err(Error::InvalidWr("list-walk pipeline_depth must be >= 1"));
        }
        if self.max_nodes == 0 {
            return Err(Error::InvalidWr("list-walk max_nodes must be >= 1"));
        }
        if self.break_on_match && self.pipeline_depth > 1 {
            return Err(Error::InvalidWr(
                "break_on_match walks suppress completions and are single-instance",
            ));
        }
        let list = self
            .list
            .ok_or(Error::InvalidWr("list-walk deployment needs .list(...)"))?;
        Ok(ListWalkSpec {
            frame: FrameSpec {
                node: self.node,
                owner: self.owner,
                port: self.port,
                pu_base: self.pu_base,
                depth: self.pipeline_depth,
                dest: self.dest.ok_or(Error::InvalidWr(
                    "list-walk deployment needs .respond_to(...)",
                ))?,
                stride: self.value_len.max(8) as u64,
            },
            list,
            value_len: self.value_len,
            max_nodes: self.max_nodes,
            break_on_match: self.break_on_match,
        })
    }
}
