//! `repro` — regenerate every table and figure of the RedN paper.
//!
//! ```text
//! cargo run -p redn_bench --release --bin repro            # everything
//! cargo run -p redn_bench --release --bin repro -- fig10   # one artifact
//! ```
//!
//! Artifacts: table1 table2 table3 table4 table5 table6 fig7 fig8 fig10
//! fig11 fig13 fig14 fig15 fig16 appendix

use redn_bench::report::{bytes_label, print_table, us, Row};
use redn_bench::{contention, crash, hashbench, listbench, mcbench, micro, turingbench};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name || a == "all");

    println!("# RedN reproduction — paper vs simulated measurement");
    println!("# (NSDI '22: \"RDMA is Turing complete, we just did not know it yet!\")");

    if want("table1") {
        let rows = micro::table1().expect("table1");
        print_table(
            "Table 1 — verb processing bandwidth by generation",
            ["RNIC", "measured", "paper", "note"],
            &rows,
        );
    }
    if want("table2") {
        let rows = micro::table2().expect("table2");
        print_table(
            "Table 2 — WR cost of RedN constructs",
            ["construct", "measured", "paper", "note"],
            &rows,
        );
    }
    if want("table3") {
        let rows = micro::table3().expect("table3");
        print_table(
            "Table 3 — verb & construct throughput (one CX5 port)",
            ["operation", "measured", "paper", "note"],
            &rows,
        );
    }
    if want("fig7") {
        let rows = micro::fig7().expect("fig7");
        print_table(
            "Fig 7 — RDMA verb latencies (64 B)",
            ["verb", "measured", "paper", "note"],
            &rows,
        );
    }
    if want("fig8") {
        let rows = micro::fig8().expect("fig8");
        let rows: Vec<Row> = rows
            .into_iter()
            .map(|(n, wq, comp, db)| {
                Row::new(
                    format!("{n} ops"),
                    format!("wq {:.2} / compl {:.2} / doorbell {:.2}", wq, comp, db),
                    "marginals 0.17 / 0.19 / 0.54 us",
                    "",
                )
            })
            .collect();
        print_table(
            "Fig 8 — chain latency by ordering mode (us)",
            ["chain", "measured", "paper", "note"],
            &rows,
        );
    }
    if want("fig10") {
        let rows = hashbench::fig10().expect("fig10");
        let rows: Vec<Row> = rows
            .into_iter()
            .map(|(v, ideal, redn, one, polling, event)| {
                Row::new(
                    bytes_label(v as u64),
                    format!(
                        "ideal {} | RedN {} | 1-sided {} | poll {} | event {}",
                        us(ideal),
                        us(redn),
                        us(one),
                        us(polling),
                        us(event)
                    ),
                    "RedN ~ ideal; others above",
                    "",
                )
            })
            .collect();
        print_table(
            "Fig 10 — hash get latency, no collisions",
            ["value", "measured", "paper shape", "note"],
            &rows,
        );
    }
    if want("fig11") {
        let rows = hashbench::fig11().expect("fig11");
        let rows: Vec<Row> = rows
            .into_iter()
            .map(|(v, ideal, seq, par, one, polling)| {
                Row::new(
                    bytes_label(v as u64),
                    format!(
                        "ideal {} | Seq {} | Par {} | 1-sided {} | poll {}",
                        us(ideal),
                        us(seq),
                        us(par),
                        us(one),
                        us(polling)
                    ),
                    "Par ~ no-collision; Seq +>=3us",
                    "",
                )
            })
            .collect();
        print_table(
            "Fig 11 — hash get latency under collisions (2nd bucket)",
            ["value", "measured", "paper shape", "note"],
            &rows,
        );
    }
    if want("table4") {
        let rows = hashbench::table4().expect("table4");
        print_table(
            "Table 4 — hash lookup throughput & bottleneck",
            ["config", "measured", "paper", "note"],
            &rows,
        );
    }
    if want("table5") {
        let rows = hashbench::table5().expect("table5");
        print_table(
            "Table 5 — RedN vs StRoM hash-get latency",
            ["system/size", "measured", "paper", "note"],
            &rows,
        );
    }
    if want("fig13") {
        let rows = listbench::fig13().expect("fig13");
        let rows: Vec<Row> = rows
            .into_iter()
            .map(|(range, redn, brk, one, two, wrs, brk_wrs)| {
                Row::new(
                    format!("range {range}"),
                    format!(
                        "RedN {} | +break {} | 1-sided {} | 2-sided {}",
                        us(redn),
                        us(brk),
                        us(one),
                        us(two)
                    ),
                    "RedN < baselines at range 8",
                    format!("WRs: {wrs:.0} vs {brk_wrs:.0}+break"),
                )
            })
            .collect();
        print_table(
            "Fig 13 — linked-list walk latency (8-node list)",
            ["range", "measured", "paper shape", "note"],
            &rows,
        );
    }
    if want("fig14") {
        let rows = mcbench::fig14().expect("fig14");
        let rows: Vec<Row> = rows
            .into_iter()
            .map(|(v, redn, one, vma)| {
                Row::new(
                    bytes_label(v as u64),
                    format!(
                        "RedN {} | 1-sided {} ({:.1}x) | VMA {} ({:.1}x)",
                        us(redn),
                        us(one),
                        one / redn,
                        us(vma),
                        vma / redn
                    ),
                    "up to 1.7x / 2.6x",
                    "",
                )
            })
            .collect();
        print_table(
            "Fig 14 — Memcached get latency",
            ["value", "measured", "paper", "note"],
            &rows,
        );
    }
    if want("fig15") {
        let rows = contention::fig15(40).expect("fig15");
        let rows: Vec<Row> = rows
            .into_iter()
            .map(|r| {
                Row::new(
                    format!("{} writers", r.writers),
                    format!(
                        "RedN avg {} p99 {} | 2-sided avg {} p99 {}",
                        us(r.redn.avg_us),
                        us(r.redn.p99_us),
                        us(r.two_sided.avg_us),
                        us(r.two_sided.p99_us)
                    ),
                    "RedN flat <7us; 2-sided tail exploding",
                    format!("p99 isolation {:.0}x", r.two_sided.p99_us / r.redn.p99_us),
                )
            })
            .collect();
        print_table(
            "Fig 15 — get latency under writer contention",
            ["writers", "measured", "paper shape", "note"],
            &rows,
        );
    }
    if want("fig16") {
        let (redn, vanilla) = crash::fig16(150).expect("fig16");
        let (ro, rmin) = crash::outage(&redn, 0.25);
        let (vo, _) = crash::outage(&vanilla, 0.25);
        let rows = vec![
            Row::new(
                "RedN (hull-parent resources)",
                format!("outage {ro:.2}s, min throughput {:.0}%", rmin * 100.0),
                "no disruption",
                "",
            ),
            Row::new(
                "Vanilla Memcached",
                format!("outage {vo:.2}s"),
                "~2.25 s (1 s restart + 1.25 s rebuild)",
                "crash at t=5s of 12s",
            ),
        ];
        print_table(
            "Fig 16 — process crash at t=5s (normalized throughput)",
            ["system", "measured", "paper", "note"],
            &rows,
        );
        println!("\n  timeline (normalized gets per 250 ms bucket):");
        print!("  RedN    ");
        for p in redn.iter().step_by(2) {
            print!("{}", spark(p.normalized));
        }
        println!();
        print!("  vanilla ");
        for p in vanilla.iter().step_by(2) {
            print!("{}", spark(p.normalized));
        }
        println!();
    }
    if want("table6") {
        let rows = crash::table6().expect("table6");
        print_table(
            "Table 6 — component failure rates (+ OS-panic probe)",
            ["component", "value", "reliability", "note"],
            &rows,
        );
    }
    if want("appendix") {
        let rows = turingbench::appendix_a().expect("appendix");
        print_table(
            "Appendix A — mov emulation & Turing machines on the NIC",
            ["artifact", "result", "paper", "note"],
            &rows,
        );
    }
}

fn spark(v: f64) -> char {
    const BARS: [char; 9] = [
        ' ', '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    BARS[((v * 8.0).round() as usize).min(8)]
}
