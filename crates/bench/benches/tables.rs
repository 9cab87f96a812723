//! Criterion bench over the contention and crash harnesses (Figs 15/16).
use criterion::{criterion_group, criterion_main, Criterion};
use redn_bench::contention::{run_contention, ReaderPath};
use redn_bench::crash::{run_crash_timeline, CrashPath};
use rnic_sim::time::Time;

fn bench(c: &mut Criterion) {
    let p = run_contention(16, 25, ReaderPath::RedN).unwrap();
    println!(
        "fig15 RedN @16 writers: avg {:.2} us p99 {:.2} us (simulated)",
        p.avg_us, p.p99_us
    );
    c.bench_function("fig15/redn_16_writers", |b| {
        b.iter(|| run_contention(16, 10, ReaderPath::RedN).unwrap())
    });
    c.bench_function("fig16/redn_crash_short", |b| {
        b.iter(|| {
            run_crash_timeline(
                CrashPath::RedN,
                Time::from_ms(200),
                Time::from_ms(100),
                Time::from_ms(50),
                Time::from_us(200),
            )
            .unwrap()
        })
    });
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
