//! Performance isolation under CPU contention: Fig 15 (paper §5.5).
//!
//! Writer clients hammer the Memcached server with `set` RPCs in a closed
//! loop; a single reader measures `get` latency. Two-sided gets queue
//! behind the writer storm on the server CPU (context switches + scheduler
//! quanta inflate the tail); RedN gets ride the NIC and stay flat.
//!
//! The server application is pinned to a small core set (the paper
//! stresses "CPU contention in multi-tenant and cloud settings"): we model
//! the Memcached+VMA deployment with 4 application cores, so the writer
//! storm oversubscribes the CPU well before 16 writers.

use std::cell::RefCell;
use std::rc::Rc;

use redn_core::ctx::OffloadCtx;
use redn_core::offloads::hash_lookup::HashGetVariant;
use redn_kv::endpoint::ClientEndpoint;
use redn_kv::memcached::MemcachedServer;
use redn_kv::serving::{FleetSpec, ServingFleet};
use redn_kv::workload::{latency_stats, LatencyStats, Workload};
use rnic_sim::config::{HostConfig, LinkConfig, NicConfig, SimConfig};
use rnic_sim::error::Result;
use rnic_sim::ids::ProcessId;
use rnic_sim::sim::{ListenMode, Simulator};
use rnic_sim::time::Time;

use crate::baselines::{post_request, two_sided_get, TwoSidedMode, TwoSidedServer, REQ_OP_SET};

/// Which get path the reader uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReaderPath {
    /// Two-sided RPC (contends with the writers on the server CPU).
    TwoSided,
    /// RedN offload (served by the NIC) — driven through a
    /// single-client [`ServingFleet`] session, the same request path the
    /// serving layer uses.
    RedN,
}

/// Application cores the Memcached deployment gets (the paper's server
/// runs Memcached+VMA alongside other tenants; 4 cores makes the 1..16
/// writer sweep cross the oversubscription knee like Fig 15 does).
pub const APP_CORES: usize = 4;

/// Run one contention experiment: `writers` closed-loop set clients and
/// one reader doing `reads` gets via `path`. Returns the reader's latency
/// statistics.
pub fn run_contention(writers: usize, reads: usize, path: ReaderPath) -> Result<LatencyStats> {
    let mut sim = Simulator::new(SimConfig::default());
    let server_host = HostConfig {
        cores: APP_CORES,
        ..HostConfig::default()
    };
    let c = sim.add_node("clients", HostConfig::default(), NicConfig::connectx5());
    let s = sim.add_node("server", server_host, NicConfig::connectx5());
    sim.connect_nodes(c, s, LinkConfig::back_to_back());

    const VALUE_LEN: u32 = 64;
    let server = MemcachedServer::create(&mut sim, s, 1 << 15, VALUE_LEN, ProcessId(0))?;
    // Each writer gets a distinct sequential key range; the reader reads
    // from its own range (pre-populated).
    const KEYS_PER_CLIENT: u64 = 1000;
    for w in 0..writers as u64 + 1 {
        let base = 1 + w * KEYS_PER_CLIENT;
        for k in base..base + KEYS_PER_CLIENT {
            server.table.borrow_mut().insert(&mut sim, k, &[1u8; 64])?;
        }
    }

    let mut rpc = TwoSidedServer::install(
        &mut sim,
        s,
        server.table.clone(),
        TwoSidedMode::Vma,
        server.owner,
    )?;
    // Server CPU pressure: one VMA worker per connection plus the reader's.
    sim.set_runnable_threads(s, writers + 1);

    // Writers: closed-loop set clients driven by their response CQEs.
    for w in 0..writers {
        let ep = ClientEndpoint::create(&mut sim, c, VALUE_LEN)?;
        let server_qp = rpc.add_connection(&mut sim)?;
        sim.connect_qps(ep.qp, server_qp)?;
        let recv_cq = ep.recv_cq;
        let base = 1 + (w as u64) * KEYS_PER_CLIENT;
        let mut cursor = 0u64;
        let send_next = Rc::new(RefCell::new(move |sim: &mut Simulator| {
            let key = base + (cursor % KEYS_PER_CLIENT);
            cursor += 1;
            let _ = post_request(sim, &ep, REQ_OP_SET, key, &[2u8; 64]);
        }));
        // Kick the loop and rearm on every response.
        let kicker = send_next.clone();
        sim.after(
            Time::from_us(w as u64 + 1),
            Box::new(move |sim| (kicker.borrow_mut())(sim)),
        );
        sim.set_cq_listener(
            recv_cq,
            ListenMode::Polling,
            Box::new(move |sim, _cqe| (send_next.borrow_mut())(sim)),
        );
    }

    // The reader.
    let reader_base = 1 + writers as u64 * KEYS_PER_CLIENT;
    match path {
        ReaderPath::TwoSided => {
            let ep = ClientEndpoint::create(&mut sim, c, VALUE_LEN)?;
            let server_qp = rpc.add_connection(&mut sim)?;
            sim.connect_qps(ep.qp, server_qp)?;
            let mut latencies = Vec::with_capacity(reads);
            for i in 0..reads {
                let key = reader_base + (i as u64 % KEYS_PER_CLIENT);
                let (lat, found) = two_sided_get(&mut sim, &ep, key)?;
                assert!(found, "reader key {key} missing");
                latencies.push(lat);
            }
            Ok(latency_stats(&latencies))
        }
        ReaderPath::RedN => {
            // One-client fleet, window 1: the same session-driven request
            // path production serving uses, at the synchronous shape the
            // §5.5 experiment wants. The reader keeps the Fig 11
            // PU-parallel probe variant of the original experiment (its
            // latency is what Fig 15 plots), so the service is
            // host-armed — the data path is still entirely on the NIC.
            let mut ctx = OffloadCtx::builder(s)
                .pool_capacity(1 << 22)
                .build(&mut sim)?;
            let spec = FleetSpec::gets(1, 1, HashGetVariant::Parallel, false);
            let workload = Workload::sequential(reader_base, KEYS_PER_CLIENT as usize);
            let mut fleet =
                ServingFleet::deploy(&mut sim, &mut ctx, &server, None, c, spec, vec![workload])?;
            let stats = fleet.run_closed_loop(&mut sim, ctx.pool_mut(), reads as u64, 1)?;
            assert_eq!(stats.ops, reads as u64, "every reader get must complete");
            Ok(stats.latency.expect("reads completed"))
        }
    }
}

/// Fig 15 rows: per writer count, the reader's latency for both paths.
pub struct Fig15Row {
    /// Number of writer clients.
    pub writers: usize,
    /// RedN reader stats.
    pub redn: LatencyStats,
    /// Two-sided reader stats.
    pub two_sided: LatencyStats,
}

/// The writer counts the paper sweeps.
pub const WRITER_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// One Fig 15 row: `writers` writers, `reads` gets per reader path.
pub fn fig15_row(writers: usize, reads: usize) -> Result<Fig15Row> {
    Ok(Fig15Row {
        writers,
        redn: run_contention(writers, reads, ReaderPath::RedN)?,
        two_sided: run_contention(writers, reads, ReaderPath::TwoSided)?,
    })
}

/// Run the sweep with `reads` gets per point.
pub fn fig15(reads: usize) -> Result<Vec<Fig15Row>> {
    WRITER_COUNTS.iter().map(|&w| fig15_row(w, reads)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_ratio_grows_with_writers() {
        let one = fig15_row(1, 25).unwrap();
        let sixteen = fig15_row(16, 25).unwrap();
        // The paper's headline: at 16 writers RedN's p99 is ~35x below
        // the two-sided baseline. Require a large, growing gap.
        let ratio_1 = one.two_sided.p99_us / one.redn.p99_us;
        let ratio_16 = sixteen.two_sided.p99_us / sixteen.redn.p99_us;
        assert!(
            ratio_16 > ratio_1,
            "isolation gap must grow: {ratio_1} -> {ratio_16}"
        );
        assert!(
            ratio_16 > 5.0,
            "p99 isolation ratio at 16 writers: {ratio_16}"
        );
        assert!(
            sixteen.redn.p99_us < 10.0,
            "RedN p99 {}",
            sixteen.redn.p99_us
        );
    }
}
