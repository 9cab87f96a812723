//! End-to-end failover soak: kill a shard primary mid-stream and prove
//! the §5.6 story at cluster level — every acked write survives on the
//! promoted backup, in-flight writes surface as typed errors (never
//! hangs), and the rebuilt chain continues the sequence.

use redn::cluster::prelude::*;
use redn::kv::session::SessionOpts;
use rnic_sim::cq::CqeStatus;
use rnic_sim::sim::Simulator;
use rnic_sim::time::Time;

/// Keys owned by shard `s` that are NOT in the populated seed range, so
/// puts exercise fresh inserts end to end.
fn fresh_keys(cluster: &Cluster, s: usize, n: usize) -> Vec<u64> {
    (cluster.spec.nkeys + 1..)
        .filter(|&k| cluster.shard_for(k) == s)
        .take(n)
        .collect()
}

#[test]
fn killed_primary_loses_no_acked_write() {
    let (mut sim, mut cluster) = Cluster::deploy(ClusterSpec::small()).unwrap();
    let mut session =
        ClusterSession::connect(&mut sim, &mut cluster, SessionOpts::default()).unwrap();
    let controller = FailoverController::default();

    // Write a batch of acked records to one shard.
    let s = cluster.shard_for(cluster.spec.nkeys + 1);
    let keys = fresh_keys(&cluster, s, 10);
    let mut acked = Vec::new();
    for (i, &key) in keys.iter().enumerate() {
        let value = vec![0xA0 + i as u8; 16];
        let ack = session
            .put_blocking(&mut sim, &cluster, key, &value)
            .unwrap();
        assert_eq!(ack.seq, i as u64 + 1, "sequence is contiguous");
        acked.push((key, value));
    }

    // Kill the primary's serving process.
    let stack = cluster.serving_stack(s);
    let (dead_node, dead_pid) = (cluster.shards[stack].node, cluster.shards[stack].pid);
    assert!(sim.kill_process(dead_node, dead_pid));

    // An in-flight put must fail typed, not hang: the SEND completes
    // with RnrError after the dead-QP timeout.
    let extra = fresh_keys(&cluster, s, 11)[10];
    session
        .put_session_mut(s)
        .put(&mut sim, extra, &[0xFF; 16])
        .unwrap();
    sim.run().unwrap();

    // Heartbeat detection fires before the client even reaps: writes
    // are in flight and the ack CQ has gone silent.
    assert!(
        session.put_session(s).suspect(&sim, Time::from_us(50)),
        "heartbeat silence marks the primary suspect"
    );
    let reaped = session.put_session_mut(s).reap(&mut sim);
    assert!(reaped.acks.is_empty(), "no ack from a dead primary");
    assert_eq!(reaped.failures.len(), 1, "typed failure, not a hang");
    let failure = reaped.failures[0];
    assert_eq!(failure.status, CqeStatus::RnrError);
    assert_eq!(failure.key, extra);
    assert!(controller.suspect(&sim, &session, s, Some(failure.status)));

    // Fail over: promote the journal holder, re-route, re-replicate.
    let report = controller
        .fail_over(&mut sim, &mut cluster, &mut session, s)
        .unwrap();
    assert!(
        report.puts.acks.is_empty() && report.puts.failures.is_empty(),
        "the reaped failure is not resolved a second time"
    );
    assert_eq!(report.old_node, dead_node);
    assert_eq!(
        report.records_recovered, 10,
        "exactly the acked writes — the failed in-flight put never replicated"
    );
    assert_ne!(report.new_node, dead_node);
    assert!(report.promote_us() >= 0.0);
    assert!(
        report.rereplicate_us() > 0.0,
        "journal copy to the new backup takes simulated time"
    );
    assert_ne!(cluster.serving_stack(s), stack, "shard re-routed");

    // Every acked write is readable from the promoted backup.
    for (key, value) in &acked {
        let got = session.get_blocking(&mut sim, &cluster, *key).unwrap();
        assert_eq!(&got, value, "acked write for key {key} survived");
    }

    // The rebuilt chain continues the sequence past the recovery.
    let more = fresh_keys(&cluster, s, 12)[11];
    let ack = session
        .put_blocking(&mut sim, &cluster, more, &[0x55; 16])
        .unwrap();
    assert_eq!(ack.seq, 11, "sequence continues after failover");
    assert_eq!(
        session.get_blocking(&mut sim, &cluster, more).unwrap(),
        vec![0x55; 16]
    );

    // Untouched shards still serve their seed data throughout.
    for key in 1..=8u64 {
        if cluster.shard_for(key) == s {
            continue;
        }
        let got = session.get_blocking(&mut sim, &cluster, key).unwrap();
        assert_eq!(got, vec![(key & 0xFF) as u8; 16], "shard for key {key}");
    }
}

#[test]
fn acked_writes_replicate_with_zero_primary_host_work() {
    let (mut sim, mut cluster) = Cluster::deploy(ClusterSpec::small()).unwrap();
    let mut session =
        ClusterSession::connect(&mut sim, &mut cluster, SessionOpts::default()).unwrap();

    let s = cluster.shard_for(cluster.spec.nkeys + 1);
    let keys = fresh_keys(&cluster, s, 12);
    let primary = cluster.shards[cluster.serving_stack(s)].node;

    // Warm-up: one full window.
    for &key in &keys[..4] {
        session
            .put_blocking(&mut sim, &cluster, key, &[1; 16])
            .unwrap();
    }
    let doorbells = sim.node_doorbells(primary);
    let posts = sim.node_posts(primary);
    for &key in &keys[4..] {
        session
            .put_blocking(&mut sim, &cluster, key, &[2; 16])
            .unwrap();
    }
    assert_eq!(
        sim.node_doorbells(primary),
        doorbells,
        "steady-state replication rings no primary doorbell"
    );
    assert_eq!(
        sim.node_posts(primary),
        posts,
        "steady-state replication posts no primary WQE"
    );
}

/// A small cluster, a connected session and the shard owning the first
/// fresh key.
fn small_cluster() -> (Simulator, Cluster, ClusterSession, usize) {
    let (mut sim, mut cluster) = Cluster::deploy(ClusterSpec::small()).unwrap();
    let session = ClusterSession::connect(&mut sim, &mut cluster, SessionOpts::default()).unwrap();
    let s = cluster.shard_for(cluster.spec.nkeys + 1);
    (sim, cluster, session, s)
}

/// Post one put per fresh key of shard `s`, a full window, without
/// running the simulator. Returns the claimed instances.
fn post_window(
    sim: &mut Simulator,
    cluster: &Cluster,
    session: &mut ClusterSession,
    s: usize,
) -> Vec<u64> {
    let keys = fresh_keys(cluster, s, cluster.spec.put_depth as usize);
    keys.iter()
        .map(|&key| {
            let put = session.put_session_mut(s);
            put.put(sim, key, &[key as u8; 16]).unwrap()
        })
        .collect()
}

/// Kill shard `s`'s primary and fail it over; then drain the simulator
/// and reap the rebuilt session. Returns the report and that reap.
fn kill_and_fail_over(
    sim: &mut Simulator,
    cluster: &mut Cluster,
    session: &mut ClusterSession,
    s: usize,
) -> (FailoverReport, PutReap) {
    let stack = &cluster.shards[cluster.serving_stack(s)];
    assert!(sim.kill_process(stack.node, stack.pid));
    let report = FailoverController::default()
        .fail_over(sim, cluster, session, s)
        .unwrap();
    sim.run().unwrap();
    let later = session.put_session_mut(s).reap(sim).clone();
    (report, later)
}

/// Every posted instance resolves exactly once across `reaps`.
fn assert_resolved_once(posted: &[u64], reaps: &[&PutReap]) {
    for &inst in posted {
        let n: usize = reaps
            .iter()
            .map(|r| {
                let acks = r.acks.iter().filter(|a| a.instance == inst).count();
                acks + r.failures.iter().filter(|f| f.instance == inst).count()
            })
            .sum();
        assert_eq!(n, 1, "instance {inst} resolved {n} times");
    }
}

#[test]
fn fail_over_acks_completed_puts_nobody_reaped() {
    let (mut sim, mut cluster, mut session, s) = small_cluster();
    let posted = post_window(&mut sim, &cluster, &mut session, s);
    sim.run().unwrap();
    let (report, later) = kill_and_fail_over(&mut sim, &mut cluster, &mut session, s);
    assert_eq!(report.records_recovered, posted.len() as u64);
    assert_resolved_once(&posted, &[&report.puts, &later]);
    assert!(report.puts.failures.is_empty(), "every put was journaled");
    for ack in &report.puts.acks {
        assert_eq!(ack.seq, ack.instance + 1, "acked with its seq");
    }
    assert_eq!(report.puts.acks.len(), posted.len());
}

#[test]
fn fail_over_fails_posted_puts_the_dead_primary_never_saw() {
    let (mut sim, mut cluster, mut session, s) = small_cluster();
    let posted = post_window(&mut sim, &cluster, &mut session, s);
    let before = session.put_session_mut(s).reap(&mut sim).clone();
    let (report, later) = kill_and_fail_over(&mut sim, &mut cluster, &mut session, s);
    assert_eq!(report.records_recovered, 0);
    assert_resolved_once(&posted, &[&before, &report.puts, &later]);
    assert!(report.puts.acks.is_empty(), "nothing reached the journal");
    for f in &report.puts.failures {
        assert_eq!(f.status, CqeStatus::RnrError);
    }
}

#[test]
fn heartbeat_counts_silence_from_the_oldest_pending_put() {
    let controller = FailoverController::default();
    let timeout = Time::from_us(200);
    // An acked put, a millisecond of idle, then a put to the healthy
    // primary: the idle millisecond predates the put and is no evidence.
    let (mut sim, cluster, mut session, s) = small_cluster();
    let keys = fresh_keys(&cluster, s, 2);
    session
        .put_blocking(&mut sim, &cluster, keys[0], &[1; 16])
        .unwrap();
    sim.run_for(Time::from_ms(1)).unwrap();
    session
        .put_session_mut(s)
        .put(&mut sim, keys[1], &[2; 16])
        .unwrap();
    assert!(!session.put_session(s).suspect(&sim, timeout));
    assert!(!controller.suspect(&sim, &session, s, None));
    sim.run().unwrap();
    assert_eq!(session.put_session_mut(s).reap(&mut sim).acks.len(), 1);

    // A session connected at 1 ms — as fail_over rebuilds one — has an
    // ack CQ that never completed anything: not evidence either.
    let (mut sim, mut cluster) = Cluster::deploy(ClusterSpec::small()).unwrap();
    sim.run_for(Time::from_ms(1)).unwrap();
    let mut session =
        ClusterSession::connect(&mut sim, &mut cluster, SessionOpts::default()).unwrap();
    let key = fresh_keys(&cluster, s, 1)[0];
    session
        .put_session_mut(s)
        .put(&mut sim, key, &[3; 16])
        .unwrap();
    assert!(!session.put_session(s).suspect(&sim, timeout));
    assert!(!controller.suspect(&sim, &session, s, None));
    sim.run().unwrap();
    assert_eq!(session.put_session_mut(s).reap(&mut sim).acks.len(), 1);

    // Silence past the timeout after a post to a dead primary still is.
    let stack = &cluster.shards[cluster.serving_stack(s)];
    assert!(sim.kill_process(stack.node, stack.pid));
    let key = fresh_keys(&cluster, s, 2)[1];
    session
        .put_session_mut(s)
        .put(&mut sim, key, &[4; 16])
        .unwrap();
    sim.run_for(timeout).unwrap();
    assert!(!session.put_session(s).suspect(&sim, timeout));
    sim.run_for(Time::from_ns(1)).unwrap();
    assert!(session.put_session(s).suspect(&sim, timeout));
    assert!(controller.suspect(&sim, &session, s, None));
}

#[test]
fn fail_over_reconnects_gets_with_the_connect_options() {
    let (mut sim, mut cluster) = Cluster::deploy(ClusterSpec::small()).unwrap();
    let opts = SessionOpts {
        pipeline_depth: 2,
        ..SessionOpts::default()
    };
    let mut session = ClusterSession::connect(&mut sim, &mut cluster, opts).unwrap();
    // Only acked puts are journaled, so the key is written, not seeded.
    let key = fresh_keys(&cluster, 0, 1)[0];
    let value = vec![0x5A; 16];
    session
        .put_blocking(&mut sim, &cluster, key, &value)
        .unwrap();
    let stack = &cluster.shards[cluster.serving_stack(0)];
    assert!(sim.kill_process(stack.node, stack.pid));
    FailoverController::default()
        .fail_over(&mut sim, &mut cluster, &mut session, 0)
        .unwrap();
    let rebuilt = session.get_session_mut(0).service();
    assert_eq!(
        rebuilt.pipeline_depth(),
        2,
        "rebuilt with the connect depth"
    );
    assert_eq!(
        session.get_blocking(&mut sim, &cluster, key).unwrap(),
        value,
        "the promoted shard serves the key"
    );
}
