//! Performance isolation (Fig 15 / §5.5): a writer storm hammers the
//! server CPU; the reader's get latency explodes over two-sided RPC but
//! stays flat over the RedN offload.
//!
//! ```text
//! cargo run --release --example isolation
//! ```

use redn_bench::contention::fig15_row;

fn main() {
    println!("reader get latency vs writer count (30 gets per point):\n");
    println!(
        "{:>8}  {:>22}  {:>26}",
        "writers", "RedN avg/p99 (us)", "two-sided avg/p99 (us)"
    );
    for writers in [0usize, 4, 8, 16] {
        let row = fig15_row(writers, 30).unwrap();
        let (redn, two) = (row.redn, row.two_sided);
        println!(
            "{:>8}  {:>10.2} / {:<9.2}  {:>12.2} / {:<11.2}",
            writers, redn.avg_us, redn.p99_us, two.avg_us, two.p99_us,
        );
    }
    println!(
        "\nThe NIC does not context-switch: RedN's tail never moves (paper: 35x \
         lower p99 at 16 writers)."
    );
}
