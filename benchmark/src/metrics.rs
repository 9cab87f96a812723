//! The names the benchmark reports: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the repo root lists the same
//! names (a test compares them); README.md is the glossary.

/// Which clock a number is on. Simulated time is the paper's claim and
/// repeats exactly for a seed; host time is the simulator's own cost;
/// counts are neither and repeat exactly too.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    Sim,
    Host,
    Count,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Sim => "sim",
            Clock::Host => "host",
            Clock::Count => "count",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub clock: Clock,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher: bool,
    clock: Clock,
    bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        clock,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool, clock: Clock) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        clock,
        bound: None,
    }
}

pub const WORKLOADS: [&str; 7] = [
    "get_closed",
    "get_fanin",
    "get_open",
    "tenants_mixed",
    "cluster_rw",
    "deploy_churn",
    "turing",
];

use Clock::{Count, Host, Sim};

pub const END_TO_END: [Metric; 7] = [
    e2e("sim_ops_per_s", "ops/sim_s", true, Sim, 0.03),
    e2e("sim_p50_us", "sim_us", false, Sim, 0.05),
    e2e("sim_p99_us", "sim_us", false, Sim, 0.05),
    e2e("host_ops_per_s", "ops/s", true, Host, 0.20),
    e2e("host_allocs_per_op", "count", false, Count, 0.10),
    e2e("host_peak_heap_mb", "MB", false, Count, 0.05),
    e2e("setup_s", "s", false, Host, 0.25),
];

pub const PER_LAYER: [Metric; 66] = [
    // Moved here from the end-to-end list: the contract wants every
    // end-to-end metric on every workload and never 0.
    layer("failed_op_share", "share", false, Count),
    layer("sim_slo_rate_ops_per_s", "ops/sim_s", true, Sim),
    // rnic_sim::engine
    layer("engine.events_per_op", "count", false, Count),
    layer("engine.queue_ns_per_event", "ns", false, Host),
    layer("engine.queue_allocs_per_event", "count", false, Count),
    // rnic_sim::sim
    layer("sim.step_ns_per_event", "ns", false, Host),
    layer("sim.host_share", "share", false, Host),
    layer("sim.allocs_per_event", "count", false, Count),
    layer("sim.verbs_per_op", "count", false, Count),
    // rnic_sim::nic (modelled hardware)
    layer("nic.pu_util", "share", false, Sim),
    layer("nic.fetch_util", "share", false, Sim),
    layer("nic.atomic_util", "share", false, Sim),
    layer("nic.link_util", "share", false, Sim),
    layer("nic.pcie_util", "share", false, Sim),
    layer("nic.busiest", "index", false, Sim),
    // server CPU (the paper's claim: stays out of the loop)
    layer("host.arm_calls_per_op", "count", false, Count),
    layer("host.server_doorbells_per_op", "count", false, Count),
    layer("host.server_posts_per_op", "count", false, Count),
    layer("host.client_doorbells_per_op", "count", false, Count),
    // redn_core::ir (+ analysis)
    layer("ir.verbs_per_op_before", "count", false, Count),
    layer("ir.verbs_per_op_after", "count", false, Count),
    layer("ir.ring_slots", "count", false, Count),
    layer("ir.pool_bytes_placed", "B", false, Count),
    layer("analysis.pairs_checked", "count", false, Count),
    layer("analysis.verify_us", "us", false, Host),
    layer("analysis.verify_us_per_pair", "us", false, Host),
    // redn_core::offloads
    layer("offloads.connect_get_us", "us", false, Host),
    layer("offloads.connect_walk_us", "us", false, Host),
    layer("offloads.connect_put_us", "us", false, Host),
    // redn_core::turing
    layer("turing.compile_us", "us", false, Host),
    layer("turing.events_per_step", "count", false, Count),
    layer("turing.sim_us_per_step", "sim_us", false, Sim),
    layer("turing.slots_per_round", "count", false, Count),
    // redn_kv::session
    layer("session.post_ns_per_op", "ns", false, Host),
    layer("session.reap_ns_per_op", "ns", false, Host),
    layer("session.reap_calls_per_op", "count", false, Count),
    layer("session.reap_useful_share", "share", true, Count),
    // redn_kv::serving
    layer("serving.deploy_ms", "ms", false, Host),
    layer("serving.run_ns_per_op", "ns", false, Host),
    layer("serving.generator_overhead", "ratio", false, Host),
    layer("serving.open_post_lag_p99_us", "sim_us", false, Sim),
    layer("serving.pool_high_water", "B", false, Count),
    // redn_kv::tenancy
    layer("tenancy.pack_us", "us", false, Host),
    layer("tenancy.shed_posts_per_op", "count", false, Count),
    layer("tenancy.capped_ops_per_s", "ops/sim_s", true, Sim),
    layer("tenancy.uncapped_p99_us", "sim_us", false, Sim),
    layer("tenancy.walk_p99_us", "sim_us", false, Sim),
    // redn_cluster
    layer("cluster.deploy_ms", "ms", false, Host),
    layer("cluster.connect_ms", "ms", false, Host),
    layer("cluster.route_ns_per_op", "ns", false, Host),
    layer("cluster.put_post_ns_per_op", "ns", false, Host),
    layer("cluster.put_reap_ns_per_op", "ns", false, Host),
    layer("cluster.repl_verbs_per_put", "count", false, Count),
    layer("cluster.primary_doorbells_per_put", "count", false, Count),
    layer("cluster.get_p99_us", "sim_us", false, Sim),
    layer("cluster.put_p99_us", "sim_us", false, Sim),
    // model accuracy against the paper's tables
    layer("model.get64_p50_err_pct", "%", false, Sim),
    layer("model.tput64_2port_err_pct", "%", false, Sim),
    // the benchmark itself
    layer("trace.overhead_pct", "%", false, Host),
    layer("trace.coverage_pct", "%", true, Host),
    layer("trace.driver_share", "share", false, Host),
    layer("gen.keys_per_s", "1/s", true, Host),
    // set-up, split by call
    layer("setup.testbed_ms", "ms", false, Host),
    layer("setup.populate_ms", "ms", false, Host),
    layer("setup.warmup_ms", "ms", false, Host),
    // what the run bump-allocated inside the simulated nodes' DRAM
    // (not part of host_peak_heap_mb)
    layer("host.sim_dram_mb", "MB", false, Count),
];

/// The per-layer values of one traced run. Every metric starts at 0 — a
/// layer the workload does not touch reports 0 — and a workload may set
/// only names that exist.
pub struct Ledger(Vec<f64>);

impl Ledger {
    pub fn new() -> Ledger {
        Ledger(vec![0.0; PER_LAYER.len()])
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = PER_LAYER
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        assert!(value.is_finite(), "{name} = {value}");
        self.0[i] = value;
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static Metric, f64)> + '_ {
        PER_LAYER.iter().zip(self.0.iter().copied())
    }
}
