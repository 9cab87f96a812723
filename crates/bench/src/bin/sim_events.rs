//! `sim_events` — event-engine microbench, emitting the
//! `BENCH_sim_events.json` artifact.
//!
//! ```text
//! cargo run -p redn_bench --release --bin sim_events                # small
//! cargo run -p redn_bench --release --bin sim_events -- --large    # 128-client, ~1M-op sweep
//! cargo run -p redn_bench --release --bin sim_events -- --large --threads 4
//! cargo run -p redn_bench --release --bin sim_events -- --out x.json
//! ```
//!
//! Measures the engine's hot paths with deterministic inputs: the
//! hierarchical wheel vs the pre-overhaul `BinaryHeap` on the same event
//! stream, the slab vs a `HashMap` on the same keyed window, and full
//! WQE-lifecycle dispatch, with that run's events per stage (per
//! `EventKind`, and how many never entered the wheel — counts, so they
//! repeat exactly). A counting global allocator reports
//! allocations per op alongside wall-clock events/s — wall-clock numbers
//! vary by machine, so CI gates the machine-independent rows (ratios,
//! allocs/op, and the sweep's simulated throughput) rather than raw
//! events/s.
//!
//! `--large` runs the 128-client, million-op closed-loop sweep as 16
//! independent 8-client shards. Shards are distributed over
//! `--threads N` worker threads (default 1); each shard builds its own
//! simulator, so the partition — and therefore every simulated number —
//! is identical for any thread count, and stats merge in shard order.

use redn_bench::heapqueue::BaselineHeapQueue;
use redn_bench::servebench::{closed_point, SweepConfig};
use rnic_sim::config::{HostConfig, NicConfig, SimConfig};
use rnic_sim::engine::{EventKind, EventQueue};
use rnic_sim::ids::WqId;
use rnic_sim::qp::QpConfig;
use rnic_sim::sim::Simulator;
use rnic_sim::time::Time;
use rnic_sim::wqe::WorkRequest;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Allocation-counting wrapper around the system allocator. Counts are
/// process-wide and monotonic; a measurement takes the delta around the
/// timed region.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// One measured row: ops (events) completed, wall seconds, allocator
/// calls during the timed region.
struct Measured {
    ops: u64,
    secs: f64,
    allocs: u64,
}

impl Measured {
    fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.secs.max(1e-12)
    }

    fn allocs_per_op(&self) -> f64 {
        self.allocs as f64 / self.ops.max(1) as f64
    }
}

/// Time `f` over `iters` iterations; `f` returns its op count per run.
fn measure(iters: u32, mut f: impl FnMut() -> u64) -> Measured {
    // Warm-up run (fills pools, faults pages) stays out of the numbers.
    let _ = f();
    let a0 = ALLOC_CALLS.load(Ordering::Relaxed);
    let t0 = Instant::now();
    let mut ops = 0u64;
    for _ in 0..iters {
        ops += f();
    }
    let secs = t0.elapsed().as_secs_f64();
    let allocs = ALLOC_CALLS.load(Ordering::Relaxed) - a0;
    Measured { ops, secs, allocs }
}

/// Schedule + drain `n` interleaved events through the wheel.
fn wheel_stream(n: u64) -> u64 {
    let mut q = EventQueue::new();
    for i in 0..n {
        let at = Time::from_ps(if i % 2 == 0 { i * 100 } else { i * 90 + 7 });
        q.schedule(at, EventKind::WqAdvance { wq: WqId(i as u32) });
    }
    let mut popped = 0u64;
    while q.pop().is_some() {
        popped += 1;
    }
    popped
}

/// The identical stream through the pre-overhaul `BinaryHeap` queue.
fn heap_stream(n: u64) -> u64 {
    let mut q = BaselineHeapQueue::new();
    for i in 0..n {
        let at = Time::from_ps(if i % 2 == 0 { i * 100 } else { i * 90 + 7 });
        q.schedule(at, EventKind::WqAdvance { wq: WqId(i as u32) });
    }
    let mut popped = 0u64;
    while q.pop().is_some() {
        popped += 1;
    }
    popped
}

/// Keyed window through the slab (the in-flight-table shape).
fn slab_window(n: u64) -> u64 {
    let mut slab: rnic_sim::slab::Slab<u64> = rnic_sim::slab::Slab::new();
    let mut window = Vec::with_capacity(64);
    let mut done = 0u64;
    for i in 0..n {
        window.push(slab.insert(i));
        if window.len() == 64 {
            for key in window.drain(..) {
                std::hint::black_box(slab.get(key));
                slab.remove(key);
                done += 1;
            }
        }
    }
    for key in window.drain(..) {
        slab.remove(key);
        done += 1;
    }
    done
}

/// The identical keyed window through a `HashMap` with growing keys.
fn hashmap_window(n: u64) -> u64 {
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut window = Vec::with_capacity(64);
    let mut done = 0u64;
    for i in 0..n {
        map.insert(i, i);
        window.push(i);
        if window.len() == 64 {
            for key in window.drain(..) {
                std::hint::black_box(map.get(&key));
                map.remove(&key);
                done += 1;
            }
        }
    }
    for key in window.drain(..) {
        map.remove(&key);
        done += 1;
    }
    done
}

/// Full dispatch: `n` signaled loopback NOOPs through fetch/issue/CQE.
/// Returns the simulator, drained.
fn dispatch_storm(n: u64) -> Simulator {
    let mut sim = Simulator::new(SimConfig::default());
    let node = sim.add_node("solo", HostConfig::default(), NicConfig::connectx5());
    let cq = sim.create_cq(node, 16384).unwrap();
    let qp = sim
        .create_qp(node, QpConfig::new(cq).sq_depth(4096))
        .unwrap();
    let peer = sim.create_qp(node, QpConfig::new(cq)).unwrap();
    sim.connect_qps(qp, peer).unwrap();
    let mut completed = 0u64;
    let mut remaining = n;
    while remaining > 0 {
        let batch = remaining.min(4_000);
        for _ in 0..batch {
            sim.post_send(qp, WorkRequest::noop().signaled()).unwrap();
        }
        sim.run().unwrap();
        completed += sim.poll_cq(cq, 16384).len() as u64;
        remaining -= batch;
    }
    assert_eq!(completed, n);
    sim
}

/// The storm's events per stage: how many of each kind, and how many
/// never entered the timing wheel.
fn stages_json(sim: &Simulator) -> String {
    let by_kind: Vec<String> = EventKind::NAMES
        .iter()
        .zip(sim.events_by_kind())
        .map(|(name, n)| format!("\"{name}\":{n}"))
        .collect();
    format!(
        "  \"dispatch_stages\": {{\"events\":{},\"bypassing_wheel\":{},\"by_kind\":{{{}}}}}",
        sim.events_processed(),
        sim.events_bypassing_wheel(),
        by_kind.join(",")
    )
}

/// The `--large` sweep: `shards` independent closed-loop testbeds run on
/// a worker pool, stats merged in shard order. The shard partition is
/// fixed, so results are byte-identical for any `--threads`.
struct LargeSweep {
    clients: usize,
    total_ops: u64,
    sim_ops_per_sec: f64,
    events: u64,
    timeouts: u64,
    threads: usize,
    wall_secs: f64,
}

/// Worker threads for the sharded sweeps, from `--threads N`: clamped to
/// `1..=64`; 1 when absent or unparsable.
fn threads_arg(args: &[String]) -> usize {
    args.iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map_or(1, |n| n.clamp(1, 64))
}

fn large_sweep(
    shards: usize,
    clients_per_shard: usize,
    ops_per_client: u64,
    threads: usize,
) -> LargeSweep {
    let cfg = SweepConfig {
        clients: clients_per_shard,
        pipeline_depth: 8,
        ops_per_client,
        nkeys: 1024,
        value_len: 64,
        server_ports: 2,
        closed_windows: vec![8],
        open_load_fractions: vec![],
        self_recycling: true,
        mixed_get_clients: 0,
        mixed_walk_clients: 0,
        walk_max_nodes: 4,
    };
    let t0 = Instant::now();
    let next_shard = AtomicUsize::new(0);
    let mut results: Vec<Option<(f64, u64, u64)>> = vec![None; shards];
    {
        type Slot<'a> = std::sync::Mutex<&'a mut Option<(f64, u64, u64)>>;
        let slots: Vec<Slot<'_>> = results.iter_mut().map(std::sync::Mutex::new).collect();
        std::thread::scope(|scope| {
            for _ in 0..threads.min(shards) {
                scope.spawn(|| loop {
                    let shard = next_shard.fetch_add(1, Ordering::Relaxed);
                    if shard >= shards {
                        break;
                    }
                    let stats = closed_point(&cfg, 8).expect("large-sweep shard");
                    **slots[shard].lock().unwrap() =
                        Some((stats.ops_per_sec, stats.ops, stats.timeouts));
                });
            }
        });
    }
    let wall_secs = t0.elapsed().as_secs_f64();
    let mut sim_ops_per_sec = 0.0;
    let mut total_ops = 0u64;
    let mut timeouts = 0u64;
    for r in results {
        let (ops_s, ops, t) = r.expect("every shard ran");
        sim_ops_per_sec += ops_s;
        total_ops += ops;
        timeouts += t;
    }
    LargeSweep {
        clients: shards * clients_per_shard,
        total_ops,
        sim_ops_per_sec,
        events: 0,
        timeouts,
        threads,
        wall_secs,
    }
}

fn row_json(name: &str, m: &Measured) -> String {
    format!(
        "  \"{}\": {{\"ops\":{},\"events_per_sec\":{:.1},\"allocs_per_op\":{:.4}}}",
        name,
        m.ops,
        m.ops_per_sec(),
        m.allocs_per_op()
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let large = args.iter().any(|a| a == "--large");
    let threads = threads_arg(&args);
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_sim_events.json".to_string());

    println!("# Event-engine microbench (wheel vs heap, slab vs hashmap, dispatch)");
    let n = 100_000u64;
    let wheel = measure(10, || wheel_stream(n));
    let heap = measure(10, || heap_stream(n));
    let slab = measure(10, || slab_window(n));
    let hashmap = measure(10, || hashmap_window(n));
    let dispatch = measure(3, || dispatch_storm(20_000).events_processed());
    let storm = dispatch_storm(20_000);

    let wheel_speedup = wheel.ops_per_sec() / heap.ops_per_sec();
    let slab_speedup = slab.ops_per_sec() / hashmap.ops_per_sec();
    println!(
        "wheel    {:>12.0} ev/s  {:.4} allocs/op   ({:.2}x vs heap)",
        wheel.ops_per_sec(),
        wheel.allocs_per_op(),
        wheel_speedup
    );
    println!(
        "heap     {:>12.0} ev/s  {:.4} allocs/op",
        heap.ops_per_sec(),
        heap.allocs_per_op()
    );
    println!(
        "slab     {:>12.0} op/s  {:.4} allocs/op   ({:.2}x vs hashmap)",
        slab.ops_per_sec(),
        slab.allocs_per_op(),
        slab_speedup
    );
    println!(
        "hashmap  {:>12.0} op/s  {:.4} allocs/op",
        hashmap.ops_per_sec(),
        hashmap.allocs_per_op()
    );
    println!(
        "dispatch {:>12.0} ev/s  {:.4} allocs/event  ({:.1} % never entered the wheel)",
        dispatch.ops_per_sec(),
        dispatch.allocs_per_op(),
        100.0 * storm.events_bypassing_wheel() as f64 / storm.events_processed() as f64
    );

    let mut out = String::from("{\n");
    out.push_str(&row_json("wheel", &wheel));
    out.push_str(",\n");
    out.push_str(&row_json("heap", &heap));
    out.push_str(",\n");
    out.push_str(&row_json("slab", &slab));
    out.push_str(",\n");
    out.push_str(&row_json("hashmap", &hashmap));
    out.push_str(",\n");
    out.push_str(&row_json("dispatch", &dispatch));
    out.push_str(",\n");
    out.push_str(&stages_json(&storm));
    out.push_str(&format!(
        ",\n  \"wheel_vs_heap_speedup\": {wheel_speedup:.3},\n  \"slab_vs_hashmap_speedup\": {slab_speedup:.3}"
    ));

    // Sharded closed-loop sweeps. The small one always runs (its
    // simulated throughput is the deterministic CI anchor); `--large`
    // adds the 128-client, million-op row.
    let sweep = large_sweep(4, 4, 128, threads); // 16 clients, 2K ops
    println!(
        "sweep    {} clients  {} ops  {:.0} simulated ops/s  {} timeouts  ({} threads, {:.2}s wall)",
        sweep.clients,
        sweep.total_ops,
        sweep.sim_ops_per_sec,
        sweep.timeouts,
        sweep.threads,
        sweep.wall_secs
    );
    let _ = sweep.events;
    out.push_str(&format!(
        ",\n  \"sweep\": {{\"clients\":{},\"ops\":{},\"sim_ops_per_sec\":{:.1},\"timeouts\":{},\"threads\":{},\"wall_secs\":{:.3}}}",
        sweep.clients, sweep.total_ops, sweep.sim_ops_per_sec, sweep.timeouts, sweep.threads, sweep.wall_secs
    ));
    if large {
        let big = large_sweep(16, 8, 8_192, threads); // 128 clients, ~1.05M ops
        println!(
            "large    {} clients  {} ops  {:.0} simulated ops/s  {} timeouts  ({} threads, {:.2}s wall)",
            big.clients,
            big.total_ops,
            big.sim_ops_per_sec,
            big.timeouts,
            big.threads,
            big.wall_secs
        );
        out.push_str(&format!(
            ",\n  \"large_sweep\": {{\"clients\":{},\"ops\":{},\"sim_ops_per_sec\":{:.1},\"timeouts\":{},\"threads\":{},\"wall_secs\":{:.3}}}",
            big.clients, big.total_ops, big.sim_ops_per_sec, big.timeouts, big.threads, big.wall_secs
        ));
    }
    out.push_str("\n}\n");
    std::fs::write(&out_path, out).expect("write artifact");
    println!("# wrote {out_path}");
}

#[cfg(test)]
mod tests {
    #[test]
    fn threads_flag_is_clamped_to_1_through_64() {
        let parse = |v: &str| super::threads_arg(&["--threads".into(), v.into()]);
        assert_eq!(parse("0"), 1);
        assert_eq!(parse("4"), 4);
        assert_eq!(parse("1000"), 64);
    }
}
