//! `throughput` — serving-layer throughput sweep, emitting the
//! `BENCH_throughput.json` artifact.
//!
//! ```text
//! cargo run -p redn_bench --release --bin throughput              # full sweep
//! cargo run -p redn_bench --release --bin throughput -- --small   # CI-sized
//! cargo run -p redn_bench --release --bin throughput -- --out x.json
//! ```

use redn_bench::clusterbench::{cluster_read_point, failover_point, ClusterSweepConfig};
use redn_bench::report::{kops, print_table, us, Row};
use redn_bench::servebench::{throughput_sweep, SweepConfig};
use redn_bench::tenantbench::{noisy_neighbor_point, tenants_point, TenantSweepConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let small = args.iter().any(|a| a == "--small");
    let cfg = if small {
        SweepConfig::small()
    } else {
        SweepConfig::full()
    };
    let ccfg = if small {
        ClusterSweepConfig::small()
    } else {
        ClusterSweepConfig::full()
    };
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_throughput.json".to_string());

    println!(
        "# Serving-layer throughput sweep ({} clients, depth {}, {} ops/client)",
        cfg.clients, cfg.pipeline_depth, cfg.ops_per_client
    );
    let mut report = throughput_sweep(&cfg).expect("throughput sweep");
    println!(
        "# Cluster sweep ({} nodes x {} clients, window {})",
        ccfg.nodes, ccfg.clients_per_node, ccfg.window
    );
    report.cluster = Some(cluster_read_point(&ccfg).expect("cluster read sweep"));
    report.failover = Some(failover_point(&ccfg).expect("failover soak"));
    let tcfg = if small {
        TenantSweepConfig::small()
    } else {
        TenantSweepConfig::full()
    };
    println!(
        "# Tenant sweep ({} tenants x {} clients, window {})",
        tcfg.ntenants, tcfg.clients_per_tenant, tcfg.window
    );
    report.tenants = Some(tenants_point(&tcfg).expect("tenant sweep"));
    report.noisy_neighbor = Some(noisy_neighbor_point(&tcfg).expect("noisy-neighbor run"));

    let mut rows = vec![Row::new(
        "sync baseline (1 client)",
        kops(report.sync_baseline_ops_per_sec / 1e3),
        "—",
        "back-to-back Session::get_blocking",
    )];
    for p in &report.closed {
        let note = p
            .stats
            .latency
            .map(|l| format!("p99 {}", us(l.p99_us)))
            .unwrap_or_default();
        rows.push(Row::new(
            format!("closed loop K={}", p.k),
            kops(p.stats.ops_per_sec / 1e3),
            "—",
            note,
        ));
    }
    for p in &report.open {
        let note = match (p.stats.latency, p.stats.service_latency) {
            (Some(sched), Some(svc)) => format!(
                "sched p99 {} / svc p99 {}",
                us(sched.p99_us),
                us(svc.p99_us)
            ),
            _ => String::new(),
        };
        rows.push(Row::new(
            format!("open loop @ {}", kops(p.offered / 1e3)),
            kops(p.stats.ops_per_sec / 1e3),
            "—",
            note,
        ));
    }
    if let Some(m) = &report.mixed {
        rows.push(Row::new(
            format!(
                "mixed fleet ({} gets + {} walks) K={}",
                m.get_clients, m.walk_clients, m.k
            ),
            kops(m.stats.ops_per_sec / 1e3),
            "—",
            format!("{} gets / {} walks", m.stats.get_ops, m.stats.walk_ops),
        ));
    }
    if let Some(c) = &report.cluster {
        let note = c
            .stats
            .latency
            .map(|l| format!("p99 {}", us(l.p99_us)))
            .unwrap_or_default();
        rows.push(Row::new(
            format!(
                "cluster ({} nodes x {} clients) K={}",
                c.nodes,
                c.clients / c.nodes,
                c.k
            ),
            kops(c.stats.ops_per_sec / 1e3),
            "—",
            note,
        ));
    }
    if let Some(t) = &report.tenants {
        rows.push(Row::new(
            format!("tenants ({} packed) K={}", t.ntenants, t.k),
            kops(t.stats.ops_per_sec / 1e3),
            "—",
            format!("{} ops across shared PUs", t.stats.ops),
        ));
        for ts in &t.stats.per_tenant {
            let note = ts
                .latency
                .map(|l| format!("p99 {}, {} arm calls", us(l.p99_us), ts.host_arm_calls))
                .unwrap_or_default();
            rows.push(Row::new(
                format!("  tenant {}", ts.tenant),
                kops(ts.ops_per_sec / 1e3),
                "—",
                note,
            ));
        }
    }
    if let Some(n) = &report.noisy_neighbor {
        rows.push(Row::new(
            "noisy neighbor (B beside capped A)",
            kops(n.b_packed_ops_per_sec / 1e3),
            "—",
            format!(
                "B p99 {:.2}x solo, tput {:.2}x solo",
                n.p99_ratio, n.tput_ratio
            ),
        ));
    }
    print_table(
        "Serving-layer throughput",
        ["run", "achieved", "paper", "note"],
        &rows,
    );
    println!(
        "\npipelining speedup vs sync baseline: {:.2}x",
        report.speedup_vs_sync()
    );
    for v in &report.verbs_per_op {
        println!(
            "{} verbs/op: {:.2} optimized vs {:.2} naive (IR WAIT elision + restore merge)",
            v.name, v.after, v.before
        );
    }
    if let Some(s) = report.mixed_speedup_vs_sync() {
        println!("mixed (gets + walks) speedup vs sync baseline: {s:.2}x");
    }
    if let Some(f) = &report.failover {
        println!(
            "failover soak: detection {} -> promote {} -> re-replicate {} ({} records), blip {}, steady p99 {}, acked lost {}",
            us(f.detection_us),
            us(f.promote_us),
            us(f.rereplicate_us),
            f.records_recovered,
            us(f.blip_us),
            us(f.steady_p99_us),
            f.acked_lost
        );
        println!(
            "replication chain: {:.2} verbs/put on the NIC, {:.4} primary doorbells/put, {:.4} primary posts/put, {:.4} arm calls/put",
            f.repl_verbs_per_op,
            f.repl_primary_doorbells_per_put,
            f.repl_primary_posts_per_put,
            f.repl_primary_arm_calls_per_put
        );
    }

    if let Some(n) = &report.noisy_neighbor {
        println!(
            "noisy neighbor: A demanded {:.1}x its {} cap (shed {} posts, held {}); B p99 {} vs {} solo ({:.2}x), tput {:.2}x solo",
            n.demand_x_cap,
            kops(n.cap_ops_per_sec / 1e3),
            n.a_shed_posts,
            kops(n.a_ops_per_sec / 1e3),
            us(n.b_packed_p99_us),
            us(n.b_solo_p99_us),
            n.p99_ratio,
            n.tput_ratio
        );
    }

    std::fs::write(&out_path, report.to_json()).expect("write artifact");
    println!("wrote {out_path}");
}
