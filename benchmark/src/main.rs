//! The repo's benchmark: seven named workloads on two clocks. See
//! README.md for the glossary, the workloads and the compare procedure.
//!
//! ```text
//! redn_benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//! redn_benchmark --seed N            # every workload, untraced then traced
//! redn_benchmark compare A.jsonl B.jsonl
//! ```
//!
//! Each run prints every metric by name with its unit and clock, then —
//! as the last line of standard output — one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--out FILE` appends
//! that object (with workload, seed and trace) as one line to FILE.

mod alloc;
mod compare;
mod driver;
mod gen;
mod json;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use rnic_sim::engine::{EventKind, EventQueue};
use rnic_sim::ids::WqId;
use rnic_sim::time::Time;

use json::Value;
use metrics::{Ledger, Metric, END_TO_END, WORKLOADS};
use trace::Tracer;
use workloads::{Bench, Size};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// `run_seconds` of BENCHMARK.json: how long a run measures by default.
const RUN_SECONDS: f64 = 8.0;
/// A run measures at least this many passes, however short `--seconds`.
const MIN_PASSES: usize = 3;
/// Set-up is repeated until this many repetitions and this much wall
/// time have gone by (or the cap is hit); `setup_s` is their median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 200;
const SETUP_SECONDS: f64 = 1.5;

/// One run's result: what the last line of output carries.
pub struct RunResult {
    workload: String,
    seed: u64,
    trace: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static Metric, f64)>,
}

impl RunResult {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The contract's result object.
    fn json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(m, v)| {
                (
                    m.name.to_string(),
                    Value::obj([
                        ("value", Value::Num(*v)),
                        ("unit", Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
    }

    /// The `--out` line: the result object plus what produced it.
    fn out_line(&self) -> Value {
        let Value::Obj(mut fields) = self.json() else {
            unreachable!("json() builds an object")
        };
        fields.splice(
            0..0,
            [
                ("workload".to_string(), Value::Str(self.workload.clone())),
                ("seed".to_string(), Value::Num(self.seed as f64)),
                ("trace".to_string(), Value::Bool(self.trace)),
            ],
        );
        Value::Obj(fields)
    }

    fn print(&self) {
        println!(
            "== {} seed {} ({}) ==",
            self.workload,
            self.seed,
            if self.trace {
                "traced: per-layer"
            } else {
                "untraced: end to end"
            }
        );
        for (m, v) in &self.metrics {
            println!(
                "{:<34} {:>20.6} {:<6} [{}]",
                m.name,
                v,
                m.unit,
                m.clock.label()
            );
        }
        println!(
            "attempted {}  failed {}  failed_op_share {}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        println!("{}", self.json());
    }
}

type Error = Box<dyn std::error::Error>;

fn sim_err(e: rnic_sim::error::Error) -> Error {
    format!("{e:?}").into()
}

/// The untraced run: set-up (repeated, median), fixed-size passes for
/// `seconds`, then the checked pass. Reports the end-to-end metrics.
pub fn run_untraced(
    workload: &str,
    seed: u64,
    seconds: f64,
    size: Size,
) -> Result<RunResult, Error> {
    let (min_setups, setup_seconds, min_passes) = match size {
        Size::Full => (MIN_SETUPS, SETUP_SECONDS, MIN_PASSES),
        Size::Smoke => (1, 0.0, 1),
    };
    let mut quiet = Tracer::new(false);
    // The high-water is counted above what is live now (the arguments,
    // this buffer), so it does not move with the length of a path or
    // the number of set-ups there was time for.
    let mut setups = Vec::with_capacity(MAX_SETUPS);
    let heap_base = alloc::reset_peak();
    let t_setups = Instant::now();
    let mut bench: Box<dyn Bench> = loop {
        let t0 = Instant::now();
        let b = workloads::setup(workload, seed, size, &mut quiet).map_err(sim_err)?;
        setups.push(t0.elapsed().as_secs_f64());
        let enough =
            setups.len() >= min_setups && t_setups.elapsed().as_secs_f64() >= setup_seconds;
        if enough || setups.len() >= MAX_SETUPS {
            break b;
        }
    };

    let mut rates = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first = None;
    let t_measure = Instant::now();
    while (rates.len() < min_passes || t_measure.elapsed().as_secs_f64() < seconds)
        && bench.passes_left() > 1
    {
        let (a0, t0) = (alloc::calls(), Instant::now());
        let pass = bench.pass().map_err(sim_err)?;
        let (wall, allocs) = (t0.elapsed().as_secs_f64(), alloc::calls() - a0);
        rates.push(pass.ops as f64 / wall);
        attempted += pass.ops + pass.failed;
        failed += pass.failed;
        if first.is_none() {
            // Fixed work up to here, so the two counts are pure
            // functions of the seed.
            let allocs_per_op = allocs as f64 / pass.ops.max(1) as f64;
            let heap_mb = (alloc::peak_bytes() - heap_base) as f64 / 1e6;
            first = Some((pass, allocs_per_op, heap_mb));
        }
    }
    let (first, allocs_per_op, heap_mb) = first.ok_or("no pass ran")?;
    let check = bench.check().map_err(sim_err)?;
    attempted += check.attempted;
    failed += check.failed;

    // Where a pass cannot see single ops (turing, deploy_churn) the
    // checked pass times them. A smoke run may be too small for a p99.
    let latency = match (first.latency.or(check.latency), size) {
        (Some(l), _) => (l.p50_us, l.p99_us),
        (None, Size::Smoke) => (0.0, 0.0),
        (None, Size::Full) => return Err("too few samples for a p99".into()),
    };
    let values = [
        first.ops as f64 / first.sim_elapsed.as_secs_f64(),
        latency.0,
        latency.1,
        stats::upper_decile(&rates),
        allocs_per_op,
        heap_mb,
        stats::median(&setups),
    ];
    Ok(RunResult {
        workload: workload.to_string(),
        seed,
        trace: false,
        attempted,
        failed,
        metrics: END_TO_END.iter().zip(values).collect(),
    })
}

/// An isolated `EventQueue::schedule` + `pop` stream: ns and allocator
/// calls per event, median of five.
fn engine_queue(out: &mut Ledger) {
    const N: u64 = 200_000;
    let (mut ns, mut allocs) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let (a0, t0) = (alloc::calls(), Instant::now());
        let mut q = EventQueue::new();
        for i in 0..N {
            let at = Time::from_ps(if i % 2 == 0 { i * 100 } else { i * 90 + 7 });
            q.schedule(at, EventKind::WqAdvance { wq: WqId(i as u32) });
        }
        let mut popped = 0u64;
        while let Some(ev) = q.pop() {
            std::hint::black_box(ev);
            popped += 1;
        }
        assert_eq!(popped, N);
        ns.push(t0.elapsed().as_nanos() as f64 / N as f64);
        allocs.push((alloc::calls() - a0) as f64 / N as f64);
    }
    out.set("engine.queue_ns_per_event", stats::median(&ns));
    out.set("engine.queue_allocs_per_event", stats::median(&allocs));
}

/// The traced run: one set-up under spans, the workload's alternating
/// passes for `seconds`, the checked pass. Reports the per-layer
/// metrics and writes the spans as Chrome trace JSON under `out/`.
pub fn run_traced(workload: &str, seed: u64, seconds: f64, size: Size) -> Result<RunResult, Error> {
    let mut tr = Tracer::new(true);
    let mut ledger = Ledger::new();
    let mut bench = workloads::setup(workload, seed, size, &mut tr).map_err(sim_err)?;
    bench
        .ledger(seconds, &mut tr, &mut ledger)
        .map_err(sim_err)?;
    ledger.set("host.sim_dram_mb", bench.sim_dram_bytes() as f64 / 1e6);
    engine_queue(&mut ledger);
    let check = bench.check().map_err(sim_err)?;
    ledger.set(
        "failed_op_share",
        check.failed as f64 / check.attempted.max(1) as f64,
    );
    if size == Size::Full {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace-{workload}-seed{seed}.json"));
        std::fs::write(&path, tr.chrome_json().to_string())?;
    }
    Ok(RunResult {
        workload: workload.to_string(),
        seed,
        trace: true,
        attempted: check.attempted,
        failed: check.failed,
        metrics: ledger.iter().collect(),
    })
}

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    /// `None`: untraced, then traced.
    trace: Option<bool>,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, Error> {
    let mut parsed = Args {
        workloads: WORKLOADS.iter().map(|w| w.to_string()).collect(),
        seed: 1,
        seconds: RUN_SECONDS,
        trace: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value}; one of {WORKLOADS:?}").into());
                }
                parsed.workloads = vec![value.clone()];
            }
            "--seed" => parsed.seed = value.parse()?,
            "--seconds" => {
                parsed.seconds = value.parse()?;
                if !(parsed.seconds >= 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be within 0..=600".into());
                }
            }
            "--trace" => {
                parsed.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => parsed.out = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag}").into()),
        }
    }
    Ok(parsed)
}

fn run(args: &[String]) -> Result<bool, Error> {
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args else {
            return Err("usage: compare A.jsonl B.jsonl".into());
        };
        return compare::compare(a, b);
    }
    let args = parse_args(args)?;
    let mut all_correct = true;
    for workload in &args.workloads {
        for trace in [false, true] {
            if args.trace.is_some_and(|t| t != trace) {
                continue;
            }
            let result = if trace {
                run_traced(workload, args.seed, args.seconds, Size::Full)?
            } else {
                run_untraced(workload, args.seed, args.seconds, Size::Full)?
            };
            if let Some(path) = &args.out {
                let mut f = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?;
                writeln!(f, "{}", result.out_line())?;
            }
            result.print();
            all_correct &= result.correct();
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("redn_benchmark: failed ops, wrong outputs, or a regression");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("redn_benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::PER_LAYER;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} is used twice", m.name);
        }
        for w in WORKLOADS {
            assert!(valid_name(w) && seen.insert(w), "{w}");
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    }

    /// BENCHMARK.json at the repo root lists exactly the names, units,
    /// directions and bounds of `metrics.rs`.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(doc.get("run_seconds").unwrap().as_f64(), Some(RUN_SECONDS));
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|v| v.get("name").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).unwrap().as_arr().unwrap();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (v, m) in listed.iter().zip(table) {
                assert_eq!(v.get("name").unwrap().as_str(), Some(m.name));
                assert_eq!(v.get("unit").unwrap().as_str(), Some(m.unit), "{}", m.name);
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(
                    v.get("better").unwrap().as_str(),
                    Some(better),
                    "{}",
                    m.name
                );
                assert_eq!(
                    v.get("bound").and_then(Value::as_f64),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = parse("--workload turing --seed 9 --seconds 2 --trace 1").unwrap();
        assert_eq!(
            (a.workloads.len(), a.seed, a.seconds, a.trace),
            (1, 9, 2.0, Some(true))
        );
        assert_eq!(parse("").unwrap().workloads.len(), WORKLOADS.len());
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seed",
            "--seconds -1",
            "--bogus 1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    /// A smoke-sized instance of every workload completes, untraced and
    /// traced, with no failed op; the result line parses back and
    /// carries exactly the listed metrics.
    #[test]
    fn every_workload_completes_with_no_failed_op() {
        for w in WORKLOADS {
            let plain = run_untraced(w, 3, 0.0, Size::Smoke).unwrap();
            assert!(
                plain.attempted >= 1 && plain.failed == 0,
                "{w}: {} failed",
                plain.failed
            );
            let doc = json::parse(&plain.json().to_string()).unwrap();
            assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
            let got: Vec<&str> = doc
                .get("metrics")
                .unwrap()
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(got, END_TO_END.map(|m| m.name));
            let traced = run_traced(w, 3, 0.0, Size::Smoke).unwrap();
            assert!(traced.attempted >= 1 && traced.failed == 0, "{w} traced");
            assert_eq!(traced.metrics.len(), PER_LAYER.len());
        }
    }

    /// Every simulated number and count is a pure function of the seed.
    #[test]
    fn simulated_metrics_repeat_exactly_for_a_seed() {
        let sim = |seed| {
            let r = run_untraced("get_closed", seed, 0.0, Size::Smoke).unwrap();
            r.metrics
                .iter()
                .filter(|(m, _)| m.clock == metrics::Clock::Sim)
                .map(|(_, v)| v.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(sim(5), sim(5));
        assert_ne!(sim(5), sim(6));
    }
}
