//! Criterion bench for raw simulator event throughput — wall-clock cost
//! of the `EventQueue` and of full WQE-lifecycle dispatch, independent of
//! simulated-time results. Regressions here slow every other artifact
//! without moving any simulated number, so they get their own bench.

use criterion::{criterion_group, criterion_main, Criterion};
use redn_bench::heapqueue::BaselineHeapQueue;
use rnic_sim::config::{HostConfig, NicConfig, SimConfig};
use rnic_sim::engine::{EventKind, EventQueue};
use rnic_sim::ids::{ProcessId, WqId};
use rnic_sim::mem::Access;
use rnic_sim::qp::QpConfig;
use rnic_sim::sim::Simulator;
use rnic_sim::slab::Slab;
use rnic_sim::time::Time;
use rnic_sim::wqe::WorkRequest;
use std::collections::HashMap;

/// Raw queue: schedule then drain 10K interleaved events.
fn event_queue_schedule_pop() -> u64 {
    let mut q = EventQueue::new();
    for i in 0..10_000u64 {
        // Two interleaved time streams exercise heap reordering.
        let at = Time::from_ps(if i % 2 == 0 { i * 100 } else { i * 90 + 7 });
        q.schedule(at, EventKind::WqAdvance { wq: WqId(i as u32) });
    }
    let mut n = 0u64;
    while q.pop().is_some() {
        n += 1;
    }
    n
}

/// The pre-wheel baseline: the same 10K workload through a plain
/// `BinaryHeap` queue, for the wheel-vs-heap comparison group.
fn baseline_heap_schedule_pop() -> u64 {
    let mut q = BaselineHeapQueue::new();
    for i in 0..10_000u64 {
        let at = Time::from_ps(if i % 2 == 0 { i * 100 } else { i * 90 + 7 });
        q.schedule(at, EventKind::WqAdvance { wq: WqId(i as u32) });
    }
    let mut n = 0u64;
    while q.pop().is_some() {
        n += 1;
    }
    n
}

/// Steady-state simulator pattern: a rolling window of scheduled events,
/// interleaving near-future inserts with pops (the shape `run()` sees).
fn event_queue_rolling_window() -> u64 {
    let mut q = EventQueue::new();
    for i in 0..64u64 {
        q.schedule(Time::from_ps(i * 37), EventKind::WqAdvance { wq: WqId(0) });
    }
    let mut n = 0u64;
    while let Some(ev) = q.pop() {
        let now = ev.at;
        n += 1;
        if n < 10_000 {
            // Two follow-ups roughly one WQE-stage ahead, one dropped —
            // keeps the window at ~64 outstanding.
            if n.is_multiple_of(2) {
                q.schedule(now + Time::from_ns(2), EventKind::WqAdvance { wq: WqId(1) });
            }
            q.schedule(
                now + Time::from_ps(1_700 + (n % 13) * 31),
                EventKind::WqAdvance { wq: WqId(2) },
            );
        }
    }
    n
}

/// Slab keyed hot-path pattern: insert/lookup/remove cycles with a live
/// window, as the in-flight message table sees per completed op.
fn slab_insert_get_remove() -> u64 {
    let mut slab: Slab<u64> = Slab::new();
    let mut window = Vec::with_capacity(64);
    let mut sum = 0u64;
    for i in 0..10_000u64 {
        window.push(slab.insert(i));
        if window.len() == 64 {
            for key in window.drain(..) {
                sum = sum.wrapping_add(*slab.get(key).unwrap());
                slab.remove(key);
            }
        }
    }
    for key in window.drain(..) {
        sum = sum.wrapping_add(slab.remove(key).unwrap());
    }
    sum
}

/// The pre-slab baseline: the same keyed workload through a
/// `HashMap<u64, u64>` with an ever-growing key counter.
fn hashmap_insert_get_remove() -> u64 {
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut window = Vec::with_capacity(64);
    let mut sum = 0u64;
    for i in 0..10_000u64 {
        map.insert(i, i);
        window.push(i);
        if window.len() == 64 {
            for key in window.drain(..) {
                sum = sum.wrapping_add(*map.get(&key).unwrap());
                map.remove(&key);
            }
        }
    }
    for key in window.drain(..) {
        sum = sum.wrapping_add(map.remove(&key).unwrap());
    }
    sum
}

/// Full dispatch: 2K signaled loopback NOOPs through fetch/issue/CQE.
fn noop_storm() -> u64 {
    let mut sim = Simulator::new(SimConfig::default());
    let n = sim.add_node("solo", HostConfig::default(), NicConfig::connectx5());
    let cq = sim.create_cq(n, 4096).unwrap();
    let qp = sim.create_qp(n, QpConfig::new(cq).sq_depth(2048)).unwrap();
    let peer = sim.create_qp(n, QpConfig::new(cq)).unwrap();
    sim.connect_qps(qp, peer).unwrap();
    for _ in 0..2_000 {
        sim.post_send(qp, WorkRequest::noop().signaled()).unwrap();
    }
    sim.run().unwrap();
    sim.poll_cq(cq, 4096).len() as u64
}

/// Managed-path dispatch: a §3.4-style self-recycling FETCH_ADD ring
/// spinning for a fixed simulated time (serialized fetch + enable path).
fn recycled_spin() -> u64 {
    let mut sim = Simulator::new(SimConfig::default());
    let n = sim.add_node("solo", HostConfig::default(), NicConfig::connectx5());
    let cq = sim.create_cq(n, 64).unwrap();
    let mqp = sim
        .create_qp(n, QpConfig::new(cq).managed().sq_depth(1))
        .unwrap();
    let peer = sim.create_qp(n, QpConfig::new(cq)).unwrap();
    sim.connect_qps(mqp, peer).unwrap();
    let ctr = sim.alloc(n, 8, 8).unwrap();
    let cmr = sim.register_mr(n, ctr, 8, Access::all()).unwrap();
    sim.post_send_quiet(mqp, WorkRequest::fetch_add(ctr, cmr.rkey, 1, 0, 0))
        .unwrap();
    sim.host_enable(mqp, 2_000).unwrap();
    sim.run().unwrap();
    sim.mem_read_u64(n, ctr).unwrap()
}

fn bench(c: &mut Criterion) {
    assert_eq!(event_queue_schedule_pop(), 10_000);
    assert_eq!(baseline_heap_schedule_pop(), 10_000);
    assert_eq!(event_queue_rolling_window(), 15_062);
    assert_eq!(slab_insert_get_remove(), hashmap_insert_get_remove());
    assert_eq!(noop_storm(), 2_000);
    assert_eq!(recycled_spin(), 2_000);
    let _ = ProcessId(0);
    // Wheel vs the pre-overhaul BinaryHeap, same event stream.
    c.bench_function("sim_events/wheel_schedule_pop_10k", |b| {
        b.iter(event_queue_schedule_pop)
    });
    c.bench_function("sim_events/heap_schedule_pop_10k", |b| {
        b.iter(baseline_heap_schedule_pop)
    });
    c.bench_function("sim_events/wheel_rolling_window", |b| {
        b.iter(event_queue_rolling_window)
    });
    // Slab vs the pre-overhaul HashMap, same keyed window workload.
    c.bench_function("sim_events/slab_window_10k", |b| {
        b.iter(slab_insert_get_remove)
    });
    c.bench_function("sim_events/hashmap_window_10k", |b| {
        b.iter(hashmap_insert_get_remove)
    });
    c.bench_function("sim_events/noop_storm_2k", |b| b.iter(noop_storm));
    c.bench_function("sim_events/recycled_spin_2k", |b| b.iter(recycled_spin));
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench
}
criterion_main!(benches);
