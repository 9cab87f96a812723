//! A warm client calls the allocator zero times: get bursts, puts, get
//! reaps, put reaps (with their host-side apply) and simulator steps on
//! a small cluster. Burst handles and put reaps come back out of
//! buffers the sessions sized at connect.
//!
//! One `#[test]` only: the counting allocator is process-wide, and the
//! counter only runs on the thread that switches it on.

use redn_cluster::prelude::*;
use redn_kv::session::{Completion, SessionOpts};
use rnic_sim::sim::Simulator;

#[path = "../../rnic/tests/common/mod.rs"]
mod common;
use common::calls;

#[global_allocator]
static ALLOCATOR: common::CountingAlloc = common::CountingAlloc;

/// What the client path did over some rounds.
#[derive(Default)]
struct Done {
    gets: usize,
    acks: usize,
    failures: usize,
}

/// `rounds` rounds against shard `s`: refill the get window with one
/// burst, post a put when the chain's window has room, then step the
/// simulator and reap both until something completes. Keys cycle
/// through `keys` (resident on `s`, so every get hits and every put
/// updates in place); the value is a fixed array.
fn run_rounds(
    sim: &mut Simulator,
    session: &mut ClusterSession,
    s: usize,
    keys: &[u64],
    rounds: usize,
    done: &mut Vec<Completion>,
) -> Done {
    let value = [0x5A; 16];
    let mut out = Done::default();
    for round in 0..rounds {
        let gets = session.get_session_mut(s);
        let room = gets.service().instances_available() as usize;
        let start = round % (keys.len() - room);
        let posted = gets.get_burst(sim, &keys[start..start + room]).unwrap();
        assert_eq!(posted.len(), room);
        let puts = session.put_session_mut(s);
        if puts.offload().instances_available() > 0 {
            puts.put(sim, keys[round % keys.len()], &value).unwrap();
        }
        let before = out.gets + out.acks + out.failures;
        while out.gets + out.acks + out.failures == before {
            assert!(sim.step().unwrap(), "requests are in flight");
            let gets = session.get_session_mut(s);
            done.clear();
            gets.reap_into(sim, 64, done);
            for _ in done.iter() {
                gets.complete();
                out.gets += 1;
            }
            let reaped = session.put_session_mut(s).reap(sim);
            out.acks += reaped.acks.len();
            out.failures += reaped.failures.len();
        }
    }
    out
}

#[test]
fn warm_client_path_never_allocates() {
    let (mut sim, mut cluster) = Cluster::deploy(ClusterSpec::small()).unwrap();
    let mut session =
        ClusterSession::connect(&mut sim, &mut cluster, SessionOpts::default()).unwrap();
    let s = 1;
    let keys = cluster.owned_keys(s);
    let mut done = Vec::with_capacity(64);
    common::counting(true);

    let warm = run_rounds(&mut sim, &mut session, s, &keys, 200, &mut done);
    assert!(
        warm.gets > 0 && warm.acks > 0,
        "the warm-up served both paths"
    );
    let before = calls();
    let counted = run_rounds(&mut sim, &mut session, s, &keys, 2_000, &mut done);
    let allocs = calls() - before;
    common::counting(false);

    assert_eq!(counted.failures, 0, "no put failed");
    assert!(
        counted.gets >= 1_000 && counted.acks >= 500,
        "the counted rounds served gets and puts: {} gets, {} acks",
        counted.gets,
        counted.acks
    );
    assert_eq!(
        allocs, 0,
        "2,000 warm rounds of bursts, puts and reaps must not call the allocator"
    );
}
