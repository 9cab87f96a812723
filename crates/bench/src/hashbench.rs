//! Hash-lookup offload benchmarks: Fig 10, Fig 11, Table 4, Table 5
//! (paper §5.2).

use redn_core::ctx::OffloadCtx;
use redn_core::offloads::hash_lookup::HashGetVariant;
use rnic_sim::config::NicConfig;
use rnic_sim::error::Result;
use rnic_sim::ids::{NodeId, ProcessId};
use rnic_sim::mem::Access;
use rnic_sim::qp::QpConfig;
use rnic_sim::sim::Simulator;
use rnic_sim::time::Time;
use rnic_sim::wqe::WorkRequest;

use redn_kv::endpoint::ClientEndpoint;
use redn_kv::memcached::MemcachedServer;
use redn_kv::session::{Session, SessionOpts};
use redn_kv::workload::latency_stats;

use crate::baselines::{two_sided_get, OneSidedClient, TwoSidedMode, TwoSidedServer, NEIGHBORHOOD};
use crate::report::{bytes_label, Row};
use crate::{testbed, testbed_with};

/// The value sizes both Fig 10 and Fig 14 sweep.
pub const VALUE_SIZES: [u32; 5] = [64, 1024, 4096, 16384, 65536];

/// A Memcached store on `s` whose keys `1..=n` all sit in candidate
/// bucket `placement` (0 = first, Fig 10; 1 = second, Fig 11), each
/// valued with its key's low byte.
fn placed_server(
    sim: &mut Simulator,
    s: NodeId,
    nbuckets: u64,
    value_len: u32,
    placement: usize,
    n: u64,
) -> Result<MemcachedServer> {
    let server = MemcachedServer::create(sim, s, nbuckets, value_len, ProcessId(0))?;
    for k in 1..=n {
        let value = vec![(k & 0xFF) as u8; value_len as usize];
        let placed = server
            .table
            .borrow_mut()
            .insert_at_candidate(sim, k, &value, placement)?;
        assert!(placed, "placement collision; adjust key set");
    }
    Ok(server)
}

/// Synchronous RedN hash gets through a blocking [`Session`]. Returns
/// latencies over `reps` gets of keys placed at `placement` (0 = first
/// bucket, Fig 10; 1 = second bucket, Fig 11).
pub fn redn_hash_latencies(
    value_len: u32,
    variant: HashGetVariant,
    placement: usize,
    reps: usize,
) -> Result<Vec<Time>> {
    let (mut sim, c, s) = testbed();
    let server = placed_server(&mut sim, s, 4096, value_len, placement, reps as u64)?;
    let mut ctx = OffloadCtx::builder(s)
        .pool_capacity(1 << 22)
        .build(&mut sim)?;
    let opts = SessionOpts::blocking();
    let mut session = Session::connect_get(&mut sim, &mut ctx, &server, c, variant, opts)?;
    let mut lats = Vec::with_capacity(reps);
    for k in 1..=reps as u64 {
        let (lat, found) = session.get_blocking(&mut sim, ctx.pool_mut(), k)?;
        assert!(found, "key {k}");
        lats.push(lat);
    }
    Ok(lats)
}

/// The "Ideal" line: a single network round-trip READ of `value_len`.
pub fn ideal_read_latency(value_len: u32) -> Result<f64> {
    let (mut sim, c, s) = testbed();
    let cq = sim.create_cq(c, 16)?;
    let qp = sim.create_qp(c, QpConfig::new(cq))?;
    let scq = sim.create_cq(s, 16)?;
    let speer = sim.create_qp(s, QpConfig::new(scq))?;
    sim.connect_qps(qp, speer)?;
    let lbuf = sim.alloc(c, value_len as u64, 64)?;
    let lmr = sim.register_mr(c, lbuf, value_len as u64, Access::all())?;
    let rbuf = sim.alloc(s, value_len as u64, 64)?;
    let rmr = sim.register_mr(s, rbuf, value_len as u64, Access::all())?;
    let start = sim.now();
    sim.post_send(
        qp,
        WorkRequest::read(lbuf, lmr.lkey, value_len, rbuf, rmr.rkey).signaled(),
    )?;
    sim.run()?;
    let cqe = sim.poll_cq(cq, 1).pop().expect("cqe");
    Ok((cqe.time - start).as_us_f64())
}

/// One-sided get latency: FaRM's neighborhood reads of the cuckoo
/// bucket array (keys at `placement`).
pub fn one_sided_latency(value_len: u32, placement: usize, reps: usize) -> Result<f64> {
    let (mut sim, c, s) = testbed();
    let server = placed_server(&mut sim, s, 4096, value_len, placement, reps as u64)?;
    let client = OneSidedClient::create(&mut sim, c, &server)?;
    let mut total = Time::ZERO;
    for k in 1..=reps as u64 {
        let (lat, found) = client.get(&mut sim, k, NEIGHBORHOOD)?;
        assert!(found);
        total += lat;
    }
    Ok(total.as_us_f64() / reps as f64)
}

/// Two-sided get latency (polling/event/VMA) through the Memcached-style
/// server.
pub fn two_sided_latency(value_len: u32, mode: TwoSidedMode, reps: usize) -> Result<f64> {
    let (mut sim, c, s) = testbed();
    let server = MemcachedServer::create(&mut sim, s, 4096, value_len, ProcessId(0))?;
    server.populate(&mut sim, reps as u64)?;
    sim.set_runnable_threads(s, 1);
    let rpc = TwoSidedServer::install(&mut sim, s, server.table.clone(), mode, server.owner)?;
    let ep = ClientEndpoint::create(&mut sim, c, value_len)?;
    sim.connect_qps(ep.qp, rpc.qp)?;
    let mut total = Time::ZERO;
    for k in 1..=reps as u64 {
        let (lat, found) = two_sided_get(&mut sim, &ep, k)?;
        assert!(found);
        total += lat;
    }
    Ok(total.as_us_f64() / reps as f64)
}

/// One row of Fig 10 / Fig 11: a value size followed by five per-system
/// latency columns.
pub type LatencyRow = (u32, f64, f64, f64, f64, f64);

/// Fig 10: average get latency vs value size, no collisions (first
/// bucket). Columns: ideal, RedN, one-sided, two-sided polling, two-sided
/// event.
pub fn fig10() -> Result<Vec<LatencyRow>> {
    let mut out = Vec::new();
    for &v in &VALUE_SIZES {
        let ideal = ideal_read_latency(v)?;
        let redn = latency_stats(&redn_hash_latencies(v, HashGetVariant::Single, 0, 15)?).avg_us;
        let one = one_sided_latency(v, 0, 15)?;
        let polling = two_sided_latency(v, TwoSidedMode::Polling, 15)?;
        let event = two_sided_latency(v, TwoSidedMode::Event, 15)?;
        out.push((v, ideal, redn, one, polling, event));
    }
    Ok(out)
}

/// Fig 11: get latency under collisions (second bucket). Columns: ideal,
/// RedN-Seq, RedN-Parallel, one-sided, two-sided polling.
pub fn fig11() -> Result<Vec<LatencyRow>> {
    let mut out = Vec::new();
    for &v in &VALUE_SIZES {
        let ideal = ideal_read_latency(v)?;
        let seq = latency_stats(&redn_hash_latencies(v, HashGetVariant::Sequential, 1, 15)?).avg_us;
        let par = latency_stats(&redn_hash_latencies(v, HashGetVariant::Parallel, 1, 15)?).avg_us;
        let one = one_sided_latency(v, 1, 15)?;
        let polling = two_sided_latency(v, TwoSidedMode::Polling, 15)?;
        out.push((v, ideal, seq, par, one, polling));
    }
    Ok(out)
}

/// Table 5: RedN vs StRoM latency (median + p99; StRoM numbers quoted
/// from the paper, which itself quotes \[39\]).
pub fn table5() -> Result<Vec<Row>> {
    let mut rows = Vec::new();
    for (v, strom_med, strom_p99) in [(64u32, 7.0, 7.0), (4096, 12.0, 13.0)] {
        let stats = latency_stats(&redn_hash_latencies(v, HashGetVariant::Single, 0, 60)?);
        rows.push(Row::new(
            format!("RedN {} median", bytes_label(v as u64)),
            crate::report::us(stats.p50_us),
            if v == 64 { "5.7 us" } else { "6.7 us" },
            "",
        ));
        rows.push(Row::new(
            format!("RedN {} 99th", bytes_label(v as u64)),
            crate::report::us(stats.p99_us),
            if v == 64 { "6.9 us" } else { "8.4 us" },
            "",
        ));
        rows.push(Row::new(
            format!("StRoM {} median", bytes_label(v as u64)),
            "n/a (FPGA)",
            crate::report::us(strom_med),
            "paper-quoted [39]",
        ));
        rows.push(Row::new(
            format!("StRoM {} 99th", bytes_label(v as u64)),
            "n/a (FPGA)",
            crate::report::us(strom_p99),
            "paper-quoted [39]",
        ));
    }
    Ok(rows)
}

/// Hash-lookup throughput for Table 4: pipelined gets at `value_len`
/// through offloads on `ports` ports. Returns `(K ops/s, bottleneck)`.
pub fn hash_throughput(value_len: u32, ports: usize, requests: usize) -> Result<(f64, String)> {
    let nic = if ports == 2 {
        NicConfig::connectx5().dual_port()
    } else {
        NicConfig::connectx5()
    };
    let (mut sim, c, s) = testbed_with(nic);
    let server = placed_server(&mut sim, s, 8192, value_len, 0, 1)?;
    let mut ctx = OffloadCtx::builder(s)
        .pool_capacity(1 << 24)
        .build(&mut sim)?;

    // One pipelined host-armed session per port, primed with every
    // request it will carry.
    let per_port = requests / ports;
    let mut sessions = Vec::with_capacity(ports);
    for port in 0..ports {
        let opts = SessionOpts {
            pipeline_depth: per_port as u32,
            self_recycling: false,
            port,
            pu_base: 0,
        };
        let variant = HashGetVariant::Single;
        sessions.push(Session::connect_get(
            &mut sim, &mut ctx, &server, c, variant, opts,
        )?);
    }

    // Fire all requests back to back (pipelined), one burst per port.
    let start = sim.now();
    let keys = vec![1; per_port];
    for session in &mut sessions {
        session.get_burst(&mut sim, &keys)?;
    }
    sim.run()?;
    let elapsed = (sim.now() - start).as_us_f64();
    let total: u64 = sessions
        .iter()
        .map(|session| sim.cq_total(session.endpoint().recv_cq))
        .sum();
    assert_eq!(total as usize, per_port * ports, "lost responses");
    let kops = total as f64 / elapsed * 1000.0;

    // Name the bottleneck from server NIC utilization. Link busy time is
    // summed across ports, so compare per-port load against the shared
    // PCIe bus.
    let u = sim.utilization(s);
    let busiest = [
        (u.fetch_busy / ports as u64, "NIC PU (managed fetch)"),
        (u.link_busy / ports as u64, "IB bandwidth"),
        (u.pcie_busy, "PCIe bandwidth"),
    ]
    .into_iter()
    .max_by_key(|(t, _)| t.as_ps())
    .map(|(_, n)| n.to_string())
    .unwrap_or_default();
    Ok((kops, busiest))
}

/// Table 4: lookup throughput and bottlenecks.
pub fn table4() -> Result<Vec<Row>> {
    let mut rows = Vec::new();
    for (v, ports, paper_kops, paper_bn) in [
        (64u32, 1usize, 500.0, "NIC PU"),
        (64, 2, 1000.0, "NIC PU"),
        (65536, 1, 180.0, "IB bw"),
        (65536, 2, 190.0, "PCIe bw"),
    ] {
        let n = if v == 64 { 300 } else { 120 };
        let (kops, bottleneck) = hash_throughput(v, ports, n)?;
        rows.push(Row::new(
            format!(
                "{} / {}-port",
                if v <= 1024 {
                    "<=1KB".to_string()
                } else {
                    bytes_label(v as u64)
                },
                ports
            ),
            crate::report::kops(kops),
            crate::report::kops(paper_kops),
            format!("bottleneck: {bottleneck} (paper: {paper_bn})"),
        ));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redn_matches_table5_at_64b() {
        let stats = latency_stats(&redn_hash_latencies(64, HashGetVariant::Single, 0, 20).unwrap());
        // Paper Table 5: median 5.7 us at 64 B.
        assert!(
            (stats.p50_us - 5.7).abs() < 1.5,
            "RedN 64B median {} (paper 5.7)",
            stats.p50_us
        );
    }

    #[test]
    fn fig10_ordering_holds_at_64b() {
        let ideal = ideal_read_latency(64).unwrap();
        let redn =
            latency_stats(&redn_hash_latencies(64, HashGetVariant::Single, 0, 10).unwrap()).avg_us;
        let one = one_sided_latency(64, 0, 10).unwrap();
        let event = two_sided_latency(64, TwoSidedMode::Event, 10).unwrap();
        assert!(ideal < redn, "ideal {ideal} < redn {redn}");
        assert!(redn < one, "redn {redn} < one-sided {one}");
        assert!(redn < event, "redn {redn} < event {event}");
        assert!(
            event / redn > 2.0,
            "event should be ~3.8x redn: {event} vs {redn}"
        );
    }

    #[test]
    fn fig10_redn_tracks_ideal_at_64k() {
        let ideal = ideal_read_latency(65536).unwrap();
        let redn =
            latency_stats(&redn_hash_latencies(65536, HashGetVariant::Single, 0, 5).unwrap())
                .avg_us;
        // Paper: 16.22 us, within ~5% of ideal. Allow 25% in simulation.
        assert!(
            redn / ideal < 1.3,
            "RedN {redn} should track ideal {ideal} at 64KB"
        );
    }

    #[test]
    fn fig11_parallel_beats_sequential() {
        let seq =
            latency_stats(&redn_hash_latencies(64, HashGetVariant::Sequential, 1, 10).unwrap())
                .avg_us;
        let par = latency_stats(&redn_hash_latencies(64, HashGetVariant::Parallel, 1, 10).unwrap())
            .avg_us;
        // Paper: RedN-Seq incurs >= 3 us extra; parallel stays near the
        // no-collision latency.
        assert!(
            seq - par > 1.0,
            "parallel {par} should beat sequential {seq} by ~3 us"
        );
    }

    #[test]
    fn table4_small_io_is_pu_bound_and_scales_with_ports() {
        let (one, bn) = hash_throughput(64, 1, 200).unwrap();
        assert!(bn.contains("NIC PU"), "bottleneck {bn}");
        assert!((one - 500.0).abs() / 500.0 < 0.4, "single-port {one} K/s");
        let (two, _) = hash_throughput(64, 2, 200).unwrap();
        assert!(two / one > 1.6, "dual port should ~double: {one} -> {two}");
    }

    #[test]
    fn table4_large_io_hits_bandwidth() {
        let (kops, bn) = hash_throughput(65536, 1, 80).unwrap();
        assert!(
            bn.contains("IB") || bn.contains("PCIe"),
            "64KB bottleneck should be bandwidth, got {bn}"
        );
        assert!(
            (kops - 180.0).abs() / 180.0 < 0.3,
            "64KB single-port {kops} K/s"
        );
    }
}
