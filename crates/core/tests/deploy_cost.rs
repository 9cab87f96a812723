//! What deploying a program costs the allocator: a handful of calls per
//! staged WQE, growing linearly with the program, and fewer still for
//! the second program deployed onto the same pool — whose scratch (index,
//! happens-before graph, lowering lists; see DESIGN.md "Deploy cost") is
//! already grown.
//!
//! One `#[test]` only: the counting allocator is process-wide, and the
//! counters only run on the thread that switches them on.

use redn_core::ctx::{ClientDest, OffloadCtx, TableRegion, ValueSource};
use redn_core::offloads::hash_lookup::HashGetVariant;
use redn_core::program::ConstPool;
use rnic_sim::config::{HostConfig, LinkConfig, NicConfig, SimConfig};
use rnic_sim::ids::{NodeId, ProcessId};
use rnic_sim::mem::{Access, MemoryRegion};
use rnic_sim::sim::Simulator;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn note() {
    if COUNTING.with(Cell::get) {
        CALLS.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with its arguments unchanged;
// the bookkeeping touches only const-initialised thread-locals, which
// neither allocate nor run destructors.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const VALUE_LEN: u32 = 64;
const MAX_DEPTH: u64 = 32;

struct Rig {
    sim: Simulator,
    server: NodeId,
    ctx: OffloadCtx,
    /// Server memory the offloads read (bucket table, values, list nodes
    /// — one region serves all three) and the client's response buffer.
    data: MemoryRegion,
    resp: MemoryRegion,
}

fn rig() -> Rig {
    let mut sim = Simulator::new(SimConfig::default());
    let client = sim.add_node("client", HostConfig::default(), NicConfig::connectx5());
    let server = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
    sim.connect_nodes(client, server, LinkConfig::back_to_back());
    let mut region = |node, len| {
        let addr = sim.alloc(node, len, 64).unwrap();
        sim.register_mr(node, addr, len, Access::all()).unwrap()
    };
    let data = region(server, 1 << 16);
    let resp = region(client, MAX_DEPTH * u64::from(VALUE_LEN));
    let ctx = OffloadCtx::builder(server).build(&mut sim).unwrap();
    Rig {
        sim,
        server,
        ctx,
        data,
        resp,
    }
}

impl Rig {
    fn pool(&mut self) -> ConstPool {
        ConstPool::create(&mut self.sim, self.server, 1 << 20, ProcessId(0)).unwrap()
    }

    /// Deploy a recycled hash-get (`nodes` = 0) or `nodes`-node list walk
    /// of pipeline depth `k`; `(allocator calls, WQEs staged)`.
    fn deploy(&mut self, pool: &mut ConstPool, k: u32, nodes: usize) -> (u64, u64) {
        let before = CALLS.with(Cell::get);
        let staged = if nodes == 0 {
            let off = self
                .ctx
                .hash_get()
                .table(TableRegion::of(&self.data))
                .values(ValueSource::of(&self.data, VALUE_LEN))
                .respond_to(ClientDest::of(&self.resp))
                .variant(HashGetVariant::Sequential)
                .pipeline_depth(k)
                .build_recycled(&mut self.sim, pool)
                .unwrap();
            off.ir_report().unwrap().after.total()
        } else {
            let off = self
                .ctx
                .list_walk()
                .list(TableRegion::of(&self.data))
                .value_len(VALUE_LEN)
                .respond_to(ClientDest::of(&self.resp))
                .max_nodes(nodes)
                .pipeline_depth(k)
                .build_recycled(&mut self.sim, pool)
                .unwrap();
            off.ir_report().unwrap().after.total()
        };
        (CALLS.with(Cell::get) - before, staged as u64)
    }
}

#[test]
fn deploy_allocates_little_per_wqe_linearly_and_less_the_second_time() {
    COUNTING.with(|c| c.set(true));
    let mut r = rig();
    // (family, nodes, committed ceiling on allocator calls per staged
    // WQE of a first deploy — trigger point and builder included:
    // measured 223 / 166 = 1.34 and 373 / 454 = 0.82, + 12 %. Eager
    // labels, a `Vec` per graph node and a buffer per constant made it
    // 8.3 and 9.6.)
    for (family, nodes, ceiling) in [("hash-get", 0, 1.5), ("list-walk", 8, 0.92)] {
        let mut pool = r.pool();
        let (first, staged) = r.deploy(&mut pool, 16, nodes);
        let per_wqe = first as f64 / staged as f64;
        assert!(
            per_wqe <= ceiling,
            "{family} K=16: {first} allocator calls for {staged} WQEs = {per_wqe:.2} per WQE"
        );
        // The same program again, onto the same pool: its scratch is grown.
        let (second, _) = r.deploy(&mut pool, 16, nodes);
        assert!(
            second < first,
            "{family}: a second deploy through the same scratch made {second} calls, the first {first}"
        );
        // Twice the program on a fresh pool: twice the calls, not four times.
        let mut fresh = r.pool();
        let (doubled, _) = r.deploy(&mut fresh, 32, nodes);
        assert!(
            doubled as f64 <= 2.2 * first as f64,
            "{family}: {doubled} calls at K=32 against {first} at K=16"
        );
    }
    COUNTING.with(|c| c.set(false));
}
