//! Recycled simulated DRAM: a testbed built after another was dropped on
//! the same thread reuses its arenas, so writing them costs no page
//! faults — a fresh arena first-touches every page it writes.
//!
//! Linux only (the thread's fault count comes from procfs), and the only
//! test in its binary, so nothing else runs on its thread.

#![cfg(target_os = "linux")]

use rnic_sim::config::{HostConfig, LinkConfig, NicConfig, SimConfig};
use rnic_sim::sim::Simulator;

/// Minor page faults of the calling thread so far.
fn minflt() -> u64 {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("procfs");
    // Field 10. The command name (field 2) may hold spaces: count from
    // the `)` that closes it, which is followed by field 3.
    let mut fields = stat[stat.rfind(')').expect("comm") + 2..].split(' ');
    fields.nth(7).expect("minflt").parse().expect("a count")
}

/// A two-node testbed that writes `payload` into each node's arena, then
/// is dropped.
fn testbed(payload: &[u8]) {
    let mut sim = Simulator::new(SimConfig::default());
    let a = sim.add_node("a", HostConfig::default(), NicConfig::connectx5());
    let b = sim.add_node("b", HostConfig::default(), NicConfig::connectx5());
    sim.connect_nodes(a, b, LinkConfig::back_to_back());
    for node in [a, b] {
        let addr = sim.alloc(node, payload.len() as u64, 4096).unwrap();
        sim.mem_write(node, addr, payload).unwrap();
    }
}

#[test]
fn dropped_testbeds_hand_their_dram_to_the_next() {
    // 2 × 512 KiB a testbed: 256 pages a fresh pair of arenas faults in.
    let payload = vec![0xA5; 512 << 10];
    testbed(&payload);
    let faults: Vec<u64> = (1..20)
        .map(|_| {
            let before = minflt();
            testbed(&payload);
            minflt() - before
        })
        .collect();
    assert!(
        faults.iter().all(|&f| f < 32),
        "page faults per testbed after the first: {faults:?}"
    );
}
