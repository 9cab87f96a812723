//! Failure resiliency (Fig 16 / §5.6): kill the Memcached process mid-run
//! — the RedN offload, whose resources live in a hull parent, keeps
//! serving; vanilla Memcached goes dark for restart + rebuild. Then panic
//! the whole kernel and watch the NIC keep answering.
//!
//! ```text
//! cargo run --release --example failure_resilience
//! ```

use redn_bench::crash::{outage, run_crash_timeline, run_os_panic_probe, CrashPath};
use rnic_sim::time::Time;

fn spark(v: f64) -> char {
    const BARS: [char; 9] = [
        ' ', '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    BARS[((v * 8.0).round() as usize).min(8)]
}

fn main() {
    // A scaled-down Fig 16: 4 s run, crash at 1 s (the repro binary runs
    // the paper's full 12 s / 5 s version).
    let duration = Time::from_secs(4);
    let crash_at = Time::from_secs(1);
    let bucket = Time::from_ms(250);
    let pace = Time::from_us(150);

    println!("process crash at t = 1 s (normalized gets per 250 ms bucket):\n");
    for (name, path) in [
        ("RedN   ", CrashPath::RedN),
        ("vanilla", CrashPath::Vanilla),
    ] {
        let timeline = run_crash_timeline(path, duration, crash_at, bucket, pace).unwrap();
        print!("  {name} ");
        for p in &timeline {
            print!("{}", spark(p.normalized));
        }
        println!("   ({:.2} s of outage)", outage(&timeline, 0.25).0);
    }

    println!("\nkernel panic: can the NIC still answer? (paper §5.6 'OS failure')");
    let ok = run_os_panic_probe(10).unwrap();
    println!("  {ok}/10 gets served after the panic — the RNIC does not need the OS.");
    assert_eq!(ok, 10);
}
