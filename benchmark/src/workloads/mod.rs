//! The seven workloads. Each is a [`Bench`]: set up once, then run fixed
//! size passes (so every simulated number is a pure function of the
//! seed), a checked pass, and — in the traced run — its ledger rows.

pub mod churn;
pub mod cluster;
pub mod serving;
pub mod turing;

use rnic_sim::config::{HostConfig, LinkConfig, NicConfig, SimConfig};
use rnic_sim::error::{Error, Result};
use rnic_sim::ids::NodeId;
use rnic_sim::sim::{NicUtilization, Simulator};
use rnic_sim::time::Time;

use crate::metrics::Ledger;
use crate::stats;
use crate::stats::Latency;
use crate::trace::{Call, Tracer};

/// Full size, or a few hundred ops for the smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    /// `full` ops at full size, a twentieth (at least `floor`) in a
    /// smoke run.
    pub fn ops(self, full: u64, floor: u64) -> u64 {
        match self {
            Size::Full => full,
            Size::Smoke => (full / 20).max(floor),
        }
    }
}

/// One measured pass: a fixed number of ops through the entry point a
/// user would call.
#[derive(Clone, Copy, Debug)]
pub struct Pass {
    /// Ops reaped by the client.
    pub ops: u64,
    /// Ops that timed out or failed with a typed error.
    pub failed: u64,
    /// Simulated time the pass spanned.
    pub sim_elapsed: Time,
    /// Post (open loop: scheduled) → reap. `None` where the pass cannot
    /// see single ops; the checked pass supplies it then.
    pub latency: Option<Latency>,
}

/// The checked pass: every reaped value compared with what was stored.
#[derive(Clone, Copy, Debug)]
pub struct Check {
    pub attempted: u64,
    /// Time-outs + typed failures + wrong or missing values.
    pub failed: u64,
    pub latency: Option<Latency>,
}

pub trait Bench {
    fn pass(&mut self) -> Result<Pass>;
    fn check(&mut self) -> Result<Check>;
    /// Passes the workload can still run (its journals are finite).
    fn passes_left(&self) -> u64 {
        u64::MAX
    }
    /// Bytes bump-allocated inside the live simulators' DRAM arenas.
    fn sim_dram_bytes(&mut self) -> u64;
    /// The traced run: alternate this workload's passes for `seconds`
    /// and fill in its per-layer rows.
    fn ledger(&mut self, seconds: f64, tr: &mut Tracer, out: &mut Ledger) -> Result<()>;
}

/// Build `workload` from `seed`: testbed, populate, deploy, and the
/// discarded warm-up pass. Set-up calls are spanned on `tr`.
pub fn setup(workload: &str, seed: u64, size: Size, tr: &mut Tracer) -> Result<Box<dyn Bench>> {
    Ok(match workload {
        "get_closed" | "get_fanin" | "get_open" | "tenants_mixed" => {
            Box::new(serving::Serving::setup(workload, seed, size, tr)?)
        }
        "cluster_rw" => Box::new(cluster::ClusterRw::setup(seed, size, tr)?),
        "deploy_churn" => Box::new(churn::Churn::setup(seed, size, tr)?),
        "turing" => Box::new(turing::Turing::setup(seed, size, tr)?),
        _ => return Err(Error::InvalidWr("unknown workload")),
    })
}

/// Every simulator the benchmark builds: one lane, set explicitly (the
/// process is single-threaded), and no event budget shorter than a run.
pub fn sim_config() -> SimConfig {
    SimConfig {
        trace: false,
        max_events: u64::MAX,
        lanes: 1,
    }
}

/// The paper's §5 testbed: a client and a dual-port ConnectX-5 server,
/// back to back.
pub fn testbed() -> (Simulator, NodeId, NodeId) {
    let mut sim = Simulator::new(sim_config());
    let client = sim.add_node("client", HostConfig::default(), NicConfig::connectx5());
    let server = sim.add_node(
        "server",
        HostConfig::default(),
        NicConfig::connectx5().dual_port(),
    );
    sim.connect_nodes(client, server, LinkConfig::back_to_back());
    (sim, client, server)
}

/// Counters of the layers below the serving code, read before and after
/// a pass.
#[derive(Clone)]
pub struct Counters {
    pub now: Time,
    pub events: u64,
    pub verbs: u64,
    pub util: Vec<NicUtilization>,
    pub doorbells: u64,
    pub posts: u64,
}

/// Snapshot the counters of the serving `nodes`.
pub fn counters(sim: &Simulator, nodes: &[NodeId]) -> Counters {
    Counters {
        now: sim.now(),
        events: sim.events_processed(),
        verbs: nodes.iter().map(|&n| sim.verbs_executed(n)).sum(),
        util: nodes.iter().map(|&n| sim.utilization(n)).collect(),
        doorbells: nodes.iter().map(|&n| sim.node_doorbells(n)).sum(),
        posts: nodes.iter().map(|&n| sim.node_posts(n)).sum(),
    }
}

/// The engine, dispatch and modelled-hardware rows for a span of `ops`
/// ops between two snapshots of `nodes`.
pub fn layer_rows(
    sim: &Simulator,
    nodes: &[NodeId],
    before: &Counters,
    after: &Counters,
    ops: u64,
    out: &mut Ledger,
) {
    let ops = ops.max(1) as f64;
    out.set(
        "engine.events_per_op",
        (after.events - before.events) as f64 / ops,
    );
    out.set(
        "sim.verbs_per_op",
        (after.verbs - before.verbs) as f64 / ops,
    );
    // busy ÷ (elapsed × units), averaged over the nodes.
    let elapsed = (after.now - before.now).as_ps().max(1) as f64 * nodes.len() as f64;
    let mut busy = [0.0f64; 5];
    for (i, &node) in nodes.iter().enumerate() {
        let (b, a) = (&before.util[i], &after.util[i]);
        let nic = sim.nic_config(node);
        let ports = nic.ports as f64;
        let parts = [
            ((a.pu_busy - b.pu_busy), nic.total_pus() as f64),
            ((a.fetch_busy - b.fetch_busy), ports),
            ((a.atomic_busy - b.atomic_busy), ports),
            ((a.link_busy - b.link_busy), ports),
            ((a.pcie_busy - b.pcie_busy), 1.0),
        ];
        for (slot, (t, units)) in busy.iter_mut().zip(parts) {
            *slot += t.as_ps() as f64 / units;
        }
    }
    let names = [
        "nic.pu_util",
        "nic.fetch_util",
        "nic.atomic_util",
        "nic.link_util",
        "nic.pcie_util",
    ];
    let mut busiest = 0;
    for (i, name) in names.iter().enumerate() {
        out.set(name, busy[i] / elapsed);
        if busy[i] > busy[busiest] {
            busiest = i;
        }
    }
    out.set("nic.busiest", busiest as f64);
}

/// What the alternating untraced and traced passes of a traced run
/// added up to, and the ledger rows that follow from the laps.
#[derive(Default)]
pub struct Traced {
    pub ops: u64,
    pub events: u64,
    pub wall_ns: f64,
    /// Wall ns per op of each untraced and each traced pass.
    pub plain_ns_per_op: Vec<f64>,
    pub traced_ns_per_op: Vec<f64>,
    /// The first traced pass alone — fixed work, so what is counted over
    /// it repeats exactly however many passes the run had time for:
    /// ops, events, reap calls, useful reap calls, and allocator calls
    /// inside `step`/`run_until`.
    first_counts: Option<[u64; 5]>,
}

impl Traced {
    /// Record one pass of `ops` ops and `events` simulator events;
    /// `tr` is the tracer a traced pass ran under (its laps cover every
    /// traced pass so far, this one included).
    pub fn add(
        &mut self,
        tr: Option<&Tracer>,
        wall_ns: f64,
        ops: u64,
        events: u64,
        reaps: (u64, u64),
    ) {
        let ns_per_op = wall_ns / ops.max(1) as f64;
        let Some(tr) = tr else {
            self.plain_ns_per_op.push(ns_per_op);
            return;
        };
        self.first_counts.get_or_insert_with(|| {
            let sim_allocs = tr.lap(Call::Step).allocs + tr.lap(Call::RunUntil).allocs;
            [ops, events, reaps.0, reaps.1, sim_allocs]
        });
        self.traced_ns_per_op.push(ns_per_op);
        self.wall_ns += wall_ns;
        self.ops += ops;
        self.events += events;
    }

    /// The dispatch, session and tracing rows: the laps of `tr` over
    /// the traced passes' events, ops and wall time.
    pub fn rows(&self, tr: &Tracer, out: &mut Ledger) {
        let ns_in = |calls: &[Call]| calls.iter().map(|&c| tr.lap(c).total_ns).sum::<u64>() as f64;
        let (ops, events) = (self.ops.max(1) as f64, self.events.max(1) as f64);
        let lap_ns = tr.lap_total_ns().max(1) as f64;
        let sim_ns = ns_in(&[Call::Step, Call::RunUntil]);
        out.set("sim.step_ns_per_event", sim_ns / events);
        out.set("sim.host_share", sim_ns / lap_ns);
        out.set(
            "session.post_ns_per_op",
            ns_in(&[Call::GetBurst, Call::WalkBurst]) / ops,
        );
        out.set("session.reap_ns_per_op", ns_in(&[Call::ReapInto]) / ops);
        out.set("trace.driver_share", ns_in(&[Call::Driver]) / lap_ns);
        out.set("trace.coverage_pct", 100.0 * lap_ns / self.wall_ns.max(1.0));
        if let Some([ops, events, reap_calls, reap_useful, sim_allocs]) = self.first_counts {
            out.set(
                "sim.allocs_per_event",
                sim_allocs as f64 / events.max(1) as f64,
            );
            out.set(
                "session.reap_calls_per_op",
                reap_calls as f64 / ops.max(1) as f64,
            );
            out.set(
                "session.reap_useful_share",
                reap_useful as f64 / reap_calls.max(1) as f64,
            );
        }
        if !(self.plain_ns_per_op.is_empty() || self.traced_ns_per_op.is_empty()) {
            let plain = stats::median(&self.plain_ns_per_op);
            let traced = stats::median(&self.traced_ns_per_op);
            out.set("trace.overhead_pct", 100.0 * (traced / plain - 1.0));
        }
    }
}
