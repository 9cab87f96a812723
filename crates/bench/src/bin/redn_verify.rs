//! `redn-verify` — the static-analysis CI gate.
//!
//! Deploys every shipped offload family with default [`DeployOpts`]
//! (verify on), which runs the full `redn_core::ir::analysis` pass suite
//! — happens-before deadlock detection, the recycled induction rule, and
//! symbolic bounds proofs — inside every `deploy`, then proves
//! deployment-level tenant isolation with the [`DeploymentVerifier`]:
//!
//! * a heterogeneous serving fleet (both hash-get modes, both list-walk
//!   modes) co-resident on one dual-port NIC, driven closed-loop so the
//!   host-armed families' arm-time programs are analyzed too;
//! * a packed multi-tenant fleet: four named tenants bin-packed onto
//!   shared PUs, proven non-interfering under tenant-qualified labels;
//! * the Fig 13 `+break` list walk (host-armed by design);
//! * the Appendix A Turing-machine ring;
//! * the sharded cluster: per-shard hash-get rings plus NIC-resident
//!   replication chains journaling onto neighbor nodes;
//! * the multi-tenant cluster: two tenant lanes per shard node sharing
//!   the nodes with the replication chains (the largest packed domain).
//!
//! One JSON [`AnalysisReport`] line per isolation domain, plus one
//! per-deployment status line. Exit code 0 iff every deployment passes
//! the per-program passes (a diagnostic is a hard deploy error) and
//! every isolation report is clean.
//!
//! ```text
//! cargo run -p redn_bench --release --bin redn-verify
//! ```
//!
//! [`DeployOpts`]: redn_core::ir::DeployOpts
//! [`DeploymentVerifier`]: redn_core::ir::analysis::DeploymentVerifier
//! [`AnalysisReport`]: redn_core::ir::analysis::AnalysisReport

use std::process::ExitCode;

use redn_bench::testbed_with;
use redn_cluster::cluster::{Cluster, ClusterSpec};
use redn_cluster::session::ClusterSession;
use redn_core::ctx::OffloadCtx;
use redn_core::ir::analysis::{self, AnalysisReport};
use redn_core::ir::{EnableTarget, IrProgram, Kind, Loc, OpBuild, WaitCond};
use redn_core::offloads::hash_lookup::HashGetVariant;
use redn_core::offloads::OffloadService;
use redn_core::turing::machine::TuringMachine;
use redn_kv::endpoint::ClientEndpoint;
use redn_kv::liststore::ListStore;
use redn_kv::memcached::MemcachedServer;
use redn_kv::serving::{FleetSpec, ServiceSpec, ServingFleet};
use redn_kv::session::SessionOpts;
use redn_kv::workload::Workload;
use rnic_sim::config::{HostConfig, NicConfig, SimConfig};
use rnic_sim::error::Result;
use rnic_sim::ids::ProcessId;
use rnic_sim::mem::Access;
use rnic_sim::sim::Simulator;

const NKEYS: u64 = 1024;

/// A hand-built linear chain analyzed directly (not deployed), so the
/// gate's output includes one report with real happens-before numbers:
/// an externally-enabled worker WRITE plus a control-queue WAIT/ENABLE
/// pair ordering it.
fn ir_demo() -> Result<AnalysisReport> {
    let mut sim = Simulator::new(SimConfig::default());
    let node = sim.add_node("s", HostConfig::default(), NicConfig::connectx5());
    let ctrl_q = redn_core::ctx::ChainQueueBuilder::new(node, ProcessId(0))
        .depth(32)
        .build(&mut sim)?;
    let worker_q = redn_core::ctx::ChainQueueBuilder::new(node, ProcessId(0))
        .managed()
        .depth(32)
        .build(&mut sim)?;
    let dst_addr = sim.alloc(node, 64, 8)?;
    let dst = sim.register_mr(node, dst_addr, 64, Access::all())?;

    let mut p = IrProgram::linear();
    let ctrl = p.chain(ctrl_q);
    let worker = p.chain(worker_q);
    let c = p.const_bytes(7u64.to_le_bytes().to_vec());
    let w = p.push(
        worker,
        OpBuild::new(Kind::Write {
            src: Loc::cst(c),
            len: 8,
            dst: Loc::raw(dst.addr, dst.rkey),
            imm: None,
        })
        .signaled()
        .label("demo write"),
    );
    p.push(
        ctrl,
        OpBuild::new(Kind::Enable(EnableTarget::OpsThrough(w))).label("demo enable"),
    );
    p.push(
        ctrl,
        OpBuild::new(Kind::Wait(WaitCond::OpDoneSignaled(w))).label("demo wait"),
    );
    Ok(analysis::analyze(&p, &sim, "ir-demo"))
}

/// The heterogeneous serving fleet: every hash-get and list-walk mode
/// side by side on one dual-port NIC. Recycled services run the whole
/// pass suite at deploy; a short closed loop then forces the host-armed
/// services through `arm`, which deploys (and therefore analyzes) their
/// per-instance programs as well.
fn fleet() -> Result<AnalysisReport> {
    let (mut sim, client, server_node) = testbed_with(NicConfig::connectx5().dual_port());
    let server = MemcachedServer::create(&mut sim, server_node, 4096, 64, ProcessId(0))?;
    server.populate(&mut sim, NKEYS)?;
    let store = ListStore::create(&mut sim, server_node, 4, 4, 32, ProcessId(0))?;
    let mut ctx = OffloadCtx::builder(server_node)
        .pool_capacity(1 << 24)
        .build(&mut sim)?;
    let spec = FleetSpec::new(vec![
        ServiceSpec::gets(1, 4, HashGetVariant::Single, true),
        ServiceSpec::gets(1, 4, HashGetVariant::Sequential, true),
        ServiceSpec::gets(1, 4, HashGetVariant::Parallel, false),
        ServiceSpec::walks(2, 4, 4, true),
        ServiceSpec::walks(1, 4, 4, false),
    ]);
    let workloads = Workload::split_sequential(NKEYS, spec.get_clients());
    let mut fleet = ServingFleet::deploy(
        &mut sim,
        &mut ctx,
        &server,
        Some(&store),
        client,
        spec,
        workloads,
    )?;
    let report = fleet.isolation_report().clone();
    fleet.run_closed_loop(&mut sim, ctx.pool_mut(), 8, 2)?;
    Ok(report)
}

/// The packed multi-tenant fleet: four named tenants — heterogeneous
/// offload-family mixes — bin-packed onto one dual-port NIC's shared
/// PUs by the `TenantPacker`, then proven pairwise non-interfering
/// with tenant-qualified (`tenant/offload`) program labels. The
/// asserted counts pin the domain's size: 7 self-recycling programs,
/// C(7,2) = 21 pairs compared, every label tenant-qualified.
fn tenant_fleet() -> Result<AnalysisReport> {
    use redn_kv::tenancy::{NicGeometry, TenantSpec};
    let (mut sim, client, server_node) = testbed_with(NicConfig::connectx5().dual_port());
    let server = MemcachedServer::create(&mut sim, server_node, 4096, 64, ProcessId(0))?;
    server.populate(&mut sim, NKEYS)?;
    let store = ListStore::create(&mut sim, server_node, 4, 4, 32, ProcessId(0))?;
    let mut ctx = OffloadCtx::builder(server_node)
        .pool_capacity(1 << 24)
        .build(&mut sim)?;
    let tenants = vec![
        TenantSpec::new("analytics").with_gets(2, 4, HashGetVariant::Sequential, true),
        TenantSpec::new("cache").with_gets(1, 4, HashGetVariant::Single, true),
        TenantSpec::new("graph").with_walks(2, 4, 4, true),
        TenantSpec::new("mixed")
            .with_gets(1, 4, HashGetVariant::Sequential, true)
            .with_walks(1, 4, 4, true),
    ];
    let spec = FleetSpec::tenants(NicGeometry::of(&sim, server_node), &tenants)?;
    let workloads = Workload::split_sequential(NKEYS, spec.get_clients());
    let mut fleet = ServingFleet::deploy(
        &mut sim,
        &mut ctx,
        &server,
        Some(&store),
        client,
        spec,
        workloads,
    )?;
    let report = fleet.isolation_report().clone();
    assert_eq!(report.programs, 7, "7 recycled programs across 4 tenants");
    assert_eq!(report.checked, 21, "C(7,2) pairs compared");
    assert!(
        report.labels.iter().all(|l| l.contains('/')),
        "every program label is tenant-qualified"
    );
    fleet.run_closed_loop(&mut sim, ctx.pool_mut(), 8, 2)?;
    Ok(report)
}

/// The Fig 13 `+break` walk: host-armed by design (break suppresses the
/// completions pipelining counts on), so coverage is the `arm` call —
/// it deploys the early-exit chain through the analyzer.
fn break_walk() -> Result<()> {
    let (mut sim, client, server_node) = testbed_with(NicConfig::connectx5());
    let store = ListStore::create(&mut sim, server_node, 2, 6, 32, ProcessId(0))?;
    let ep = ClientEndpoint::create(&mut sim, client, 32)?;
    let mut ctx = OffloadCtx::builder(server_node)
        .pool_capacity(1 << 20)
        .build(&mut sim)?;
    let mut off = store
        .walk_builder(&ctx)?
        .respond_to(ep.dest())
        .max_nodes(6)
        .break_on_match()
        .build(&mut sim)?;
    sim.connect_qps(ep.qp, off.tp.qp)?;
    off.arm(&mut sim, ctx.pool_mut())?;
    Ok(())
}

/// The Appendix A ring: a Turing machine compiled to a self-modifying,
/// self-restoring recycled chain — the analyzer's hardest customer
/// (multi-slot trigger WRITEs, post-patch operands, a self-enabling
/// ring).
fn turing() -> Result<()> {
    let mut sim = Simulator::new(SimConfig::default());
    let node = sim.add_node("nic", HostConfig::default(), NicConfig::connectx5());
    let mut ctx = OffloadCtx::new(&mut sim, node)?;
    let tm = TuringMachine::busy_beaver_2();
    let compiled = ctx.compile_tm(&mut sim, &tm, &[0u32; 9], 4)?;
    sim.run()?;
    assert!(compiled.halted(&sim)?, "busy beaver must halt");
    Ok(())
}

/// The sharded cluster: per-shard recycled hash-get rings plus
/// NIC-resident replication chains whose journals live on neighbor
/// nodes — the cross-node isolation domain.
fn cluster() -> Result<AnalysisReport> {
    let (mut sim, mut cluster) = Cluster::deploy(ClusterSpec::small())?;
    let session = ClusterSession::connect(&mut sim, &mut cluster, SessionOpts::default())?;
    Ok(session.isolation_report().clone())
}

/// The packed multi-tenant cluster: two tenant lanes of recycled get
/// rings on every one of the 4 shard nodes, sharing the nodes with the
/// tenant-neutral replication chains — the largest isolation domain the
/// gate proves (2×4 gets + 4 chains = 12 programs, C(12,2) = 66 pairs).
fn cluster_tenants() -> Result<AnalysisReport> {
    let (mut sim, mut cluster) = Cluster::deploy(ClusterSpec::small())?;
    let session = ClusterSession::connect_tenants(
        &mut sim,
        &mut cluster,
        SessionOpts::default(),
        &["tenant-a", "tenant-b"],
    )?;
    let report = session.isolation_report().clone();
    assert_eq!(report.programs, 12, "2 tenants x 4 shards + 4 chains");
    assert_eq!(report.checked, 66, "C(12,2) pairs compared");
    assert_eq!(
        report
            .labels
            .iter()
            .filter(|l| l.starts_with("tenant-a/") || l.starts_with("tenant-b/"))
            .count(),
        8,
        "every get lane is tenant-qualified"
    );
    Ok(report)
}

/// One gate stage: run it, print a status (and report, if any) line,
/// and fold the verdict.
fn stage(name: &str, ok: &mut bool, run: impl FnOnce() -> Result<Option<AnalysisReport>>) {
    match run() {
        Ok(Some(report)) => {
            if !report.clean() {
                *ok = false;
            }
            println!("{}", report.to_json());
        }
        Ok(None) => {
            println!(
                "{{\"subject\":\"{}\",\"clean\":true,\"note\":\"analyzed at deploy\"}}",
                name
            );
        }
        Err(e) => {
            *ok = false;
            println!(
                "{{\"subject\":\"{}\",\"clean\":false,\"error\":\"{}\"}}",
                name,
                format!("{:?}", e).replace('"', "'")
            );
        }
    }
}

fn main() -> ExitCode {
    // Every deploy below runs with DeployOpts::default() (verify on):
    // one analysis diagnostic anywhere is an Err, which fails the gate.
    let mut ok = true;
    stage("ir-demo", &mut ok, || ir_demo().map(Some));
    stage("fleet", &mut ok, || fleet().map(Some));
    stage("tenants", &mut ok, || tenant_fleet().map(Some));
    stage("list-walk(+break)", &mut ok, || break_walk().map(|()| None));
    stage("turing-machine", &mut ok, || turing().map(|()| None));
    stage("cluster", &mut ok, || cluster().map(Some));
    stage("cluster-tenants", &mut ok, || cluster_tenants().map(Some));
    if ok {
        println!("redn-verify: all deployments proven clean");
        ExitCode::SUCCESS
    } else {
        println!("redn-verify: FAILED (see diagnostics above)");
        ExitCode::FAILURE
    }
}
