//! Failure resiliency: Fig 16 and Table 6 (paper §5.6).
//!
//! Vanilla Memcached dies with its process: the OS frees the RDMA
//! resources, the service stops, and after the supervisor restarts it the
//! hash table must be rebuilt — "at least 1 second to bootstrap, and 1.25
//! additional seconds to build its metadata and hashtables". RedN keeps
//! serving: the RDMA resources are owned by an empty *hull parent*
//! process (\[38\]), so the child's crash frees nothing the NIC needs, and
//! the offload never notices.
//!
//! OS panics are the stronger case: host execution stops entirely, but
//! the NIC keeps DMA-ing — RedN offloads continue; any CPU-dependent
//! path is gone until reboot.

use redn_core::ctx::OffloadCtx;
use redn_core::offloads::hash_lookup::HashGetVariant;
use redn_kv::endpoint::ClientEndpoint;
use redn_kv::memcached::MemcachedServer;
use redn_kv::session::{Session, SessionOpts};
use rnic_sim::error::Result;
use rnic_sim::ids::ProcessId;
use rnic_sim::time::Time;
use rnic_sim::wqe::WorkRequest;

use crate::baselines::{encode_request, TwoSidedMode, TwoSidedServer, REQ_OP_GET};
use crate::report::Row;
use crate::testbed;

/// One bucket of the Fig 16 timeline.
#[derive(Clone, Copy, Debug)]
pub struct TimelinePoint {
    /// Bucket start, seconds.
    pub t_secs: f64,
    /// Successful gets in this bucket, normalized to the best bucket.
    pub normalized: f64,
}

/// Component failure rates (Table 6; constants from the paper's sources
/// \[8, 37\]).
#[derive(Clone, Copy, Debug)]
pub struct ComponentReliability {
    /// Component name.
    pub component: &'static str,
    /// Annualized failure rate, percent.
    pub afr_percent: f64,
    /// Mean time to failure, hours.
    pub mttf_hours: f64,
    /// Reliability class ("99%", "99.99%").
    pub reliability: &'static str,
}

/// Table 6 of the paper.
pub const TABLE6: [ComponentReliability; 4] = [
    ComponentReliability {
        component: "OS",
        afr_percent: 41.9,
        mttf_hours: 20_906.0,
        reliability: "99%",
    },
    ComponentReliability {
        component: "DRAM",
        afr_percent: 39.5,
        mttf_hours: 22_177.0,
        reliability: "99%",
    },
    ComponentReliability {
        component: "NIC",
        afr_percent: 1.00,
        mttf_hours: 876_000.0,
        reliability: "99.99%",
    },
    ComponentReliability {
        component: "NVM",
        afr_percent: 1.00,
        mttf_hours: 2_000_000.0,
        reliability: "99.99%",
    },
];

/// Which serving path the crash experiment exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashPath {
    /// Vanilla Memcached over two-sided RPC: dies with the process.
    Vanilla,
    /// RedN offload with hull-parent-owned resources: survives.
    RedN,
}

/// The Fig 16 reader's client.
enum Reader {
    /// A blocking get session on the RedN offload.
    RedN(Box<Session>),
    /// An endpoint connected to the vanilla RPC server.
    Vanilla(ClientEndpoint),
}

/// Run the Fig 16 experiment: a reader issues gets for `duration`; the
/// Memcached process is killed at `crash_at` and restarted by the OS
/// (vanilla needs restart + rebuild before serving again). Returns the
/// bucketed, normalized throughput timeline.
pub fn run_crash_timeline(
    path: CrashPath,
    duration: Time,
    crash_at: Time,
    bucket: Time,
    pace: Time,
) -> Result<Vec<TimelinePoint>> {
    let (mut sim, c, s) = testbed();

    // The hull parent (init, pid 0) owns RDMA resources in RedN mode; in
    // vanilla mode the memcached process owns everything.
    let memcached_pid = sim.spawn_process(s);
    let owner = match path {
        CrashPath::RedN => ProcessId(0),
        CrashPath::Vanilla => memcached_pid,
    };

    const VALUE_LEN: u32 = 64;
    const NKEYS: u64 = 512;
    // Data regions live in init-owned memory in both paths; the crash
    // kills the *frontend* (vanilla: the RPC QPs; RedN: nothing, since the
    // hull parent owns the offload QPs too). The rebuild delay stands in
    // for vanilla's table reconstruction and re-registration.
    let server = MemcachedServer::create(&mut sim, s, 1 << 12, VALUE_LEN, ProcessId(0))?;
    server.populate(&mut sim, NKEYS)?;

    let mut rpc_qp = None;
    // Offload resources (pool + queues) live in the hull parent (init).
    let mut ctx = OffloadCtx::builder(s)
        .pool_capacity(1 << 24)
        .build(&mut sim)?;
    let mut reader = match path {
        CrashPath::RedN => {
            let (variant, opts) = (HashGetVariant::Parallel, SessionOpts::blocking());
            let session = Session::connect_get(&mut sim, &mut ctx, &server, c, variant, opts)?;
            Reader::RedN(Box::new(session))
        }
        CrashPath::Vanilla => {
            let ep = ClientEndpoint::create(&mut sim, c, VALUE_LEN)?;
            let rpc = TwoSidedServer::install(
                &mut sim,
                s,
                server.table.clone(),
                TwoSidedMode::Vma,
                owner,
            )?;
            sim.connect_qps(ep.qp, rpc.qp)?;
            sim.set_runnable_threads(s, 1);
            rpc_qp = Some(rpc.qp);
            Reader::Vanilla(ep)
        }
    };

    // Schedule the crash and (vanilla path) the restart + rebuild.
    let host = sim.host_config(s).clone();
    sim.at(
        crash_at,
        Box::new(move |sim| {
            sim.kill_process(s, memcached_pid);
        }),
    );
    if let Some(qp) = rpc_qp {
        let revive_at = crash_at + host.t_restart + host.t_rebuild;
        sim.at(
            revive_at,
            Box::new(move |sim| {
                // The supervisor restarted memcached; it re-created its
                // QPs (modeled as reviving the old ones after the rebuild
                // delay — clients reconnect transparently) and rebuilt
                // its tables.
                sim.restart_process(s, memcached_pid);
                sim.revive_qp(qp);
            }),
        );
    }

    // Reader loop: synchronous gets with a bounded per-request timeout so
    // the dead period shows up as empty buckets rather than a hang.
    let nbuckets = (duration.as_ps() / bucket.as_ps()) as usize;
    let mut counts = vec![0u64; nbuckets + 1];
    let mut key_cursor = 0u64;
    // The vanilla client reuses one pre-posted response RECV: reposting on
    // every timed-out attempt would leak RECVs for the whole outage.
    let mut recv_outstanding = false;
    while sim.now() < duration {
        let key = 1 + (key_cursor % NKEYS);
        key_cursor += 1;
        let before = sim.now();
        let ok = match &mut reader {
            Reader::RedN(session) => session.get_blocking(&mut sim, ctx.pool_mut(), key)?.1,
            Reader::Vanilla(ep) => {
                // Bounded wait: poll for the response for up to 200 us.
                let req = encode_request(REQ_OP_GET, key, ep, &[]);
                sim.mem_write(ep.node, ep.req_buf, &req)?;
                if !recv_outstanding {
                    sim.post_recv(ep.qp, WorkRequest::recv(0, 0, 0))?;
                    recv_outstanding = true;
                }
                sim.post_send(
                    ep.qp,
                    WorkRequest::send(ep.req_buf, ep.req_lkey, req.len() as u32),
                )?;
                let deadline = sim.now() + Time::from_us(200);
                let mut got = false;
                loop {
                    if sim.poll_cq(ep.recv_cq, 1).pop().is_some() {
                        got = true;
                        recv_outstanding = false;
                        break;
                    }
                    if sim.now() > deadline || !sim.step()? {
                        break;
                    }
                }
                // Drain any error CQEs from the send queue.
                let _ = sim.poll_cq(ep.cq, 16);
                got
            }
        };
        if ok {
            let b = (before.as_ps() / bucket.as_ps()) as usize;
            counts[b.min(nbuckets)] += 1;
            if pace > Time::ZERO {
                // Open-loop pacing keeps long timelines tractable without
                // changing the shape (throughput is normalized).
                sim.run_for(pace)?;
            }
        } else {
            // Back off briefly before retrying, as a real client would.
            sim.run_for(Time::from_us(100))?;
        }
    }

    counts.truncate(nbuckets);
    let max = counts.iter().copied().max().unwrap_or(1).max(1);
    Ok(counts
        .into_iter()
        .enumerate()
        .map(|(i, n)| TimelinePoint {
            t_secs: (i as f64) * bucket.as_secs_f64(),
            normalized: n as f64 / max as f64,
        })
        .collect())
}

/// The §5.6 OS-failure variant: panic the kernel and check that a
/// hull-owned RedN offload still serves gets. Returns the number of
/// successful gets after the panic.
pub fn run_os_panic_probe(gets_after_panic: usize) -> Result<usize> {
    let (mut sim, c, s) = testbed();
    const VALUE_LEN: u32 = 64;
    let server = MemcachedServer::create(&mut sim, s, 1 << 10, VALUE_LEN, ProcessId(0))?;
    server.populate(&mut sim, 64)?;
    let mut ctx = OffloadCtx::builder(s)
        .pool_capacity(1 << 22)
        .build(&mut sim)?;
    let (variant, opts) = (HashGetVariant::Parallel, SessionOpts::blocking());
    let mut redn = Session::connect_get(&mut sim, &mut ctx, &server, c, variant, opts)?;

    // Sanity get, then panic the server OS.
    let (_, found) = redn.get_blocking(&mut sim, ctx.pool_mut(), 1)?;
    assert!(found, "pre-panic get failed");
    sim.os_panic(s);

    let mut ok = 0;
    for i in 0..gets_after_panic {
        let key = 1 + (i as u64 % 64);
        let (_, found) = redn.get_blocking(&mut sim, ctx.pool_mut(), key)?;
        if found {
            ok += 1;
        }
    }
    Ok(ok)
}

/// Fig 16 with the paper's timeline: 12 s run, crash at 5 s, 250 ms
/// buckets. `pace` throttles the reader (open loop) to keep simulation
/// time reasonable; throughput is normalized so the shape is unaffected.
pub fn fig16(pace_us: u64) -> Result<(Vec<TimelinePoint>, Vec<TimelinePoint>)> {
    let duration = Time::from_secs(12);
    let crash_at = Time::from_secs(5);
    let bucket = Time::from_ms(250);
    let pace = Time::from_us(pace_us);
    let redn = run_crash_timeline(CrashPath::RedN, duration, crash_at, bucket, pace)?;
    let vanilla = run_crash_timeline(CrashPath::Vanilla, duration, crash_at, bucket, pace)?;
    Ok((redn, vanilla))
}

/// Summarize a timeline: `(outage_secs, min_normalized_during_run)`.
pub fn outage(timeline: &[TimelinePoint], bucket_secs: f64) -> (f64, f64) {
    let dead = timeline.iter().filter(|p| p.normalized < 0.05).count();
    let min = timeline
        .iter()
        .map(|p| p.normalized)
        .fold(f64::INFINITY, f64::min);
    (dead as f64 * bucket_secs, min)
}

/// Table 6 rows (constants; the simulator's contribution is the
/// OS-panic probe result appended at the end).
pub fn table6() -> Result<Vec<Row>> {
    let mut rows: Vec<Row> = TABLE6
        .iter()
        .map(|r| {
            Row::new(
                r.component,
                format!("AFR {:.1}% / MTTF {:.0} h", r.afr_percent, r.mttf_hours),
                r.reliability,
                "paper-quoted [8, 37]",
            )
        })
        .collect();
    let ok = run_os_panic_probe(10)?;
    rows.push(Row::new(
        "RedN gets served after OS panic",
        format!("{ok}/10"),
        "service continues",
        "simulated kernel panic (§5.6)",
    ));
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_constants_are_consistent() {
        // AFR and MTTF roughly agree: AFR ≈ 8760 h/year ÷ MTTF. The NVM
        // row is an upper bound in the paper ("< 1.00%"), so implied ≤
        // stated is enough there.
        for row in TABLE6 {
            let implied_afr = 8760.0 / row.mttf_hours * 100.0;
            let ok = if row.component == "NVM" {
                implied_afr <= row.afr_percent
            } else {
                (implied_afr - row.afr_percent).abs() / row.afr_percent < 0.15
            };
            assert!(
                ok,
                "{}: AFR {} vs implied {}",
                row.component, row.afr_percent, implied_afr
            );
        }
        // The paper's headline: NIC failure rate is an order of magnitude
        // below OS/DRAM.
        assert!(TABLE6[0].afr_percent / TABLE6[2].afr_percent > 10.0);
    }

    #[test]
    fn fig16_shapes() {
        // Scaled-down version for test speed: 3 s run, crash at 1 s.
        let run = |path| {
            run_crash_timeline(
                path,
                Time::from_secs(3),
                Time::from_secs(1),
                Time::from_ms(250),
                Time::from_us(200),
            )
            .unwrap()
        };
        // RedN: no bucket drops below half the peak — no disruption.
        let redn = run(CrashPath::RedN);
        let (redn_outage, redn_min) = outage(&redn, 0.25);
        assert_eq!(redn_outage, 0.0, "RedN must have no dead buckets");
        assert!(redn_min > 0.5, "RedN throughput dip {redn_min}");
        // Vanilla: dead from 1.0 s until restart (1 s) + rebuild (1.25 s)
        // = ~2 s of outage within this 3 s window.
        let vanilla = run(CrashPath::Vanilla);
        let (van_outage, _) = outage(&vanilla, 0.25);
        assert!(
            (van_outage - 2.0).abs() <= 0.5,
            "vanilla outage {van_outage}s (expect ~2)"
        );
    }

    #[test]
    fn table6_probe_succeeds() {
        let rows = table6().unwrap();
        assert!(rows.last().unwrap().measured.contains("10/10"));
    }
}
