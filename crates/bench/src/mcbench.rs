//! Memcached get latency: Fig 14 (paper §5.4).
//!
//! RedN offload vs one-sided (cuckoo 2-probe) vs two-sided over the VMA
//! socket-stack model, across value sizes.

use redn_core::ctx::OffloadCtx;
use redn_core::offloads::hash_lookup::HashGetVariant;
use rnic_sim::error::Result;
use rnic_sim::ids::ProcessId;
use rnic_sim::time::Time;

use redn_kv::endpoint::ClientEndpoint;
use redn_kv::memcached::{redn_get, MemcachedServer};

use crate::baselines::{two_sided_get, OneSidedClient, TwoSidedMode, TwoSidedServer};
use crate::hashbench::VALUE_SIZES;
use crate::hopscotch::HopscotchTable;
use crate::testbed;

/// Average Memcached get latency for one value size:
/// `(redn, one_sided, two_sided_vma)`.
pub fn memcached_latency(value_len: u32, reps: usize) -> Result<(f64, f64, f64)> {
    // RedN + VMA share a testbed; one-sided gets its own (it uses the
    // hopscotch helper with cuckoo-style one-bucket candidate probes).
    let (mut sim, c, s) = testbed();
    let server = MemcachedServer::create(&mut sim, s, 4096, value_len, ProcessId(0))?;
    server.populate(&mut sim, reps as u64)?;
    sim.set_runnable_threads(s, 1);

    let ep = ClientEndpoint::create(&mut sim, c, value_len)?;
    let mut ctx = OffloadCtx::builder(s)
        .pool_capacity(1 << 23)
        .build(&mut sim)?;
    let mut off = server.redn_frontend(&mut sim, &ctx, ep.dest(), HashGetVariant::Parallel)?;
    sim.connect_qps(ep.qp, off.tp.qp)?;
    let mut redn_total = Time::ZERO;
    for k in 1..=reps as u64 {
        let (lat, found) = redn_get(&mut sim, &mut off, ctx.pool_mut(), &ep, &server, k)?;
        assert!(found, "redn key {k}");
        redn_total += lat;
    }

    let vma = TwoSidedServer::install(
        &mut sim,
        s,
        server.table.clone(),
        TwoSidedMode::Vma,
        server.owner,
    )?;
    let ep2 = ClientEndpoint::create(&mut sim, c, value_len)?;
    sim.connect_qps(ep2.qp, vma.qp)?;
    let mut vma_total = Time::ZERO;
    for k in 1..=reps as u64 {
        let (lat, found) = two_sided_get(&mut sim, &ep2, k)?;
        assert!(found, "vma key {k}");
        vma_total += lat;
    }

    // One-sided on a cuckoo-compatible layout (2 candidate probes).
    let (mut sim2, c2, s2) = testbed();
    let mut table = HopscotchTable::create(&mut sim2, s2, 4096, value_len, ProcessId(0))?;
    for k in 1..=reps as u64 {
        // Alternate candidate placement: real cuckoo tables hold keys in
        // either candidate, so the one-sided client probes ~1.5 buckets
        // on average.
        table
            .insert_at_candidate(
                &mut sim2,
                k,
                &vec![1u8; value_len as usize],
                (k % 2) as usize,
            )?
            .expect("collision");
    }
    let client = OneSidedClient::create(&mut sim2, c2, &table)?;
    let mut one_total = Time::ZERO;
    for k in 1..=reps as u64 {
        let (lat, found) = client.get(&mut sim2, k, &table.candidates(k), 1)?;
        assert!(found, "one-sided key {k}");
        one_total += lat;
    }

    Ok((
        redn_total.as_us_f64() / reps as f64,
        one_total.as_us_f64() / reps as f64,
        vma_total.as_us_f64() / reps as f64,
    ))
}

/// Fig 14 rows: `(value_size, redn, one_sided, two_sided_vma)`.
pub fn fig14() -> Result<Vec<(u32, f64, f64, f64)>> {
    let mut out = Vec::new();
    for &v in &VALUE_SIZES {
        let (redn, one, vma) = memcached_latency(v, 10)?;
        out.push((v, redn, one, vma));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig14_ordering_at_small_values() {
        let (redn, one, vma) = memcached_latency(64, 8).unwrap();
        // Paper: RedN up to 1.7x faster than one-sided, 2.6x than VMA.
        assert!(redn < one, "RedN {redn} < one-sided {one}");
        assert!(redn < vma, "RedN {redn} < VMA {vma}");
        let speedup = vma / redn;
        assert!(
            speedup > 1.5 && speedup < 4.0,
            "VMA speedup {speedup} (paper ~2.6x)"
        );
    }

    #[test]
    fn vma_degrades_with_value_size() {
        // "VMA has to memcpy data ... which is why it performs
        // comparatively worse at higher value sizes."
        let (redn_s, _, vma_s) = memcached_latency(64, 5).unwrap();
        let (redn_l, _, vma_l) = memcached_latency(16384, 5).unwrap();
        let small_gap = vma_s - redn_s;
        let large_gap = vma_l - redn_l;
        assert!(
            large_gap > small_gap,
            "VMA gap should widen with size: {small_gap} -> {large_gap}"
        );
    }
}
