//! `compare A.jsonl B.jsonl`: apply the benchmark's bounds to two sets
//! of runs (`--out` lines), per workload × metric.
//!
//! End-to-end metrics get a verdict from the two medians, the bound and
//! A's own spread (first to third quartile, as a share of its median):
//! `unresolved` when the spread is wider than the bound, else `worse`
//! beyond the bound, `improved` beyond both the bound and the spread,
//! else `within bound`. Simulated and count metrics must also be
//! *identical* wherever A and B ran the same seed — two runs of one
//! commit always are. Per-layer metrics carry no bound and are listed
//! with their medians. Returns false (exit code 1) on any `worse` or
//! `differs`.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::metrics::{Clock, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;

/// (workload, metric) → (seed, value) per run.
type Runs = BTreeMap<(String, String), Vec<(u64, f64)>>;

fn load(path: &str) -> Result<Runs, Box<dyn std::error::Error>> {
    let mut runs = Runs::new();
    for (n, line) in std::fs::read_to_string(path)?.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let field = |k: &str| {
            doc.get(k)
                .ok_or_else(|| format!("{path}:{}: no \"{k}\"", n + 1))
        };
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let seed = field("seed")?.as_f64().unwrap_or(0.0) as u64;
        for (name, m) in field("metrics")?.as_obj().unwrap_or_default() {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                runs.entry((workload.clone(), name.clone()))
                    .or_default()
                    .push((seed, v));
            }
        }
    }
    Ok(runs)
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Improved,
    Within,
    Worse,
    Unresolved,
    Differs,
}

/// Median of B relative to A in the metric's "worse" direction
/// (positive = worse), A's spread, and the verdict.
fn judge(m: &Metric, a: &[(u64, f64)], b: &[(u64, f64)]) -> (f64, f64, Verdict) {
    let values = |r: &[(u64, f64)]| r.iter().map(|&(_, v)| v).collect::<Vec<_>>();
    let (va, vb) = (values(a), values(b));
    let (ma, mb) = (stats::median(&va), stats::median(&vb));
    let base = ma.abs().max(f64::MIN_POSITIVE);
    let worse = if m.higher_is_better { ma - mb } else { mb - ma } / base;
    let spread = if va.len() >= 2 {
        let [q1, _, q3] = stats::quartiles(&va);
        (q3 - q1) / base
    } else {
        0.0
    };
    let bound = m.bound.unwrap_or(0.0);
    let exact = m.clock != Clock::Host;
    let same_seed_differs = exact
        && a.iter().any(|&(seed, v)| {
            b.iter()
                .any(|&(s, w)| s == seed && w.to_bits() != v.to_bits())
        });
    let verdict = if same_seed_differs {
        Verdict::Differs
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Worse
    } else if -worse > bound.max(spread) {
        Verdict::Improved
    } else {
        Verdict::Within
    };
    (worse, spread, verdict)
}

pub fn compare(path_a: &str, path_b: &str) -> Result<bool, Box<dyn std::error::Error>> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut ok = true;
    println!("A = {path_a}\nB = {path_b}");
    for workload in WORKLOADS {
        let rows: Vec<_> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .filter_map(|m| {
                let key = (workload.to_string(), m.name.to_string());
                Some((m, a.get(&key)?, b.get(&key)?))
            })
            .collect();
        if rows.is_empty() {
            continue;
        }
        println!("\n== {workload} ==");
        println!(
            "{:<34} {:>16} {:>16} {:>9} {:>8} {:>7}  verdict",
            "metric [clock]", "median A", "median B", "B worse", "spread A", "bound"
        );
        for (m, ra, rb) in rows {
            let med = |r: &[(u64, f64)]| stats::median(&r.iter().map(|x| x.1).collect::<Vec<_>>());
            let (worse, spread, verdict) = judge(m, ra, rb);
            let verdict = match (m.bound, verdict) {
                (_, Verdict::Differs) => {
                    ok = false;
                    "DIFFERS (same seed, must be identical)"
                }
                (None, _) => "",
                (Some(_), Verdict::Worse) => {
                    ok = false;
                    "WORSE"
                }
                (Some(_), Verdict::Improved) => "improved",
                (Some(_), Verdict::Within) => "within bound",
                (Some(_), Verdict::Unresolved) => "unresolved (spread wider than bound)",
            };
            println!(
                "{:<34} {:>16.6} {:>16.6} {:>8.2}% {:>7.2}% {:>7}  {verdict}",
                format!("{} [{}]", m.name, m.clock.label()),
                med(ra),
                med(rb),
                100.0 * worse,
                100.0 * spread,
                m.bound
                    .map_or("-".to_string(), |b| format!("{:.0}%", 100.0 * b)),
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOST: Metric = END_TO_END[3];
    const SIM: Metric = END_TO_END[0];

    fn runs(values: &[f64]) -> Vec<(u64, f64)> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect()
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        assert_eq!(HOST.name, "host_ops_per_s");
        let a = runs(&[100.0, 101.0, 99.0, 100.0]);
        assert_eq!(
            judge(&HOST, &a, &runs(&[70.0, 71.0, 69.0])).2,
            Verdict::Worse
        );
        assert_eq!(
            judge(&HOST, &a, &runs(&[95.0, 96.0, 97.0])).2,
            Verdict::Within
        );
        assert_eq!(
            judge(&HOST, &a, &runs(&[130.0, 129.0])).2,
            Verdict::Improved
        );
        let noisy = runs(&[100.0, 140.0, 70.0, 100.0]);
        assert_eq!(judge(&HOST, &noisy, &runs(&[80.0])).2, Verdict::Unresolved);
    }

    #[test]
    fn simulated_metrics_must_match_on_a_shared_seed() {
        assert_eq!(SIM.name, "sim_ops_per_s");
        let a = runs(&[1_600_000.0, 1_610_000.0]);
        assert_eq!(judge(&SIM, &a, &a.clone()).2, Verdict::Within);
        let b = runs(&[1_599_999.0, 1_610_000.0]);
        assert_eq!(judge(&SIM, &a, &b).2, Verdict::Differs);
        // Other seeds: only the bound applies.
        let other = vec![(7, 1_599_000.0), (8, 1_612_000.0)];
        assert_eq!(judge(&SIM, &a, &other).2, Verdict::Within);
    }
}
