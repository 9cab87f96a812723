//! # `ir::analysis` — the static verifier
//!
//! Every check a program must pass before a single WQE is staged, as one
//! rule set with one report. Each diagnostic names exactly one [`Rule`]:
//!
//! 1. **Local rules** (`local`) — `malformed` (an unplaced op, a bump or
//!    restore mark the program's mode cannot honour), `fetch-horizon`
//!    (§3.1: a runtime patch onto an unmanaged queue),
//!    `unreachable-enable` (a managed op no ENABLE horizon covers) and
//!    `recycled-induction` (§3.4: every ring threshold advances by
//!    exactly one round's count).
//! 2. **Happens-before analysis** (`hb`) — an explicit HB graph built
//!    from WAIT conditions, ENABLE horizons, `wait_prev` fences, and
//!    (for linear programs) runtime patch edges. Any cycle is a
//!    deadlock the NIC would park in forever: a circular wait, or an
//!    ENABLE whose horizon can never be raised because it transitively
//!    waits on the very ops it must release.
//! 3. **Symbolic bounds analysis** (`bounds`) — every READ / WRITE /
//!    atomic / scatter target is resolved symbolically (constants to
//!    their pool extents, patch points to trailing WQE-slot extents,
//!    raw addresses to live registered regions, and post-patch values
//!    propagated through `Loc::Field { RemoteAddr }` patch writes) and
//!    proven in-bounds *before* a single WQE is staged.
//! 4. **Non-interference** (`interference`) — [`DeploymentVerifier`]
//!    takes the write/ring/CQ [`Footprint`] of every program co-resident
//!    on a node and proves no program's patch points, response slots,
//!    journal windows, or CQ thresholds alias another's.
//!
//! Per-program passes (1)–(3) run inside
//! [`IrProgram::deploy`](super::IrProgram::deploy) whenever
//! `DeployOpts::verify` is set (the default), and [`analyze`] runs the
//! same passes to a report; clearing the switch
//! ([`IrProgram::deploy_unchecked`](super::IrProgram::deploy_unchecked))
//! waives them all. Pass (4) runs at fleet/cluster deployment, over the
//! [`Footprint`]s lowering collects for free.
//!
//! Everything reports through [`AnalysisReport`], which renders to JSON
//! ([`AnalysisReport::to_json`]) for the `redn-verify` CI gate.

pub(crate) mod bounds;
pub(crate) mod hb;
pub(crate) mod interference;
mod local;
pub(crate) mod patch;

use rnic_sim::error::{Error, Result};
use rnic_sim::sim::Simulator;

use super::IrProgram;
use patch::PatchMap;

pub use interference::{DeploymentVerifier, Footprint, Space, Span};

/// The analysis rule families (one diagnostic names exactly one).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// An op allocated but never placed, or a per-round bump or restore
    /// mark the program's mode cannot honour.
    Malformed,
    /// A runtime patch whose target lives on an unmanaged queue, which
    /// may prefetch it before the patch lands (§3.1).
    FetchHorizon,
    /// A managed op no ENABLE horizon ever covers, or an ENABLE aimed at
    /// an unmanaged queue.
    UnreachableEnable,
    /// A cycle in the happens-before graph whose edges are all waits and
    /// fences — a circular wait.
    WaitCycle,
    /// An HB cycle passing through an ENABLE's release edge — the
    /// horizon can never be raised.
    UnraisableHorizon,
    /// A recycled-ring threshold with no positive per-round bump, or
    /// whose bump does not equal the count the round produces — the
    /// inductive threshold invariant fails.
    RecycledInduction,
    /// An access proven to land outside its constant's extent, its
    /// trailing WQE slots, or its registered region (including
    /// post-patch values).
    OutOfBounds,
    /// Two co-resident programs alias each other's write targets, ring
    /// slots, or CQ/SQ thresholds.
    Interference,
}

impl Rule {
    /// Stable machine-readable rule name.
    pub fn name(&self) -> &'static str {
        match self {
            Rule::Malformed => "malformed",
            Rule::FetchHorizon => "fetch-horizon",
            Rule::UnreachableEnable => "unreachable-enable",
            Rule::WaitCycle => "wait-cycle",
            Rule::UnraisableHorizon => "unraisable-horizon",
            Rule::RecycledInduction => "recycled-induction",
            Rule::OutOfBounds => "out-of-bounds",
            Rule::Interference => "interference",
        }
    }
}

/// One analysis finding: a rule plus a message naming the offending op.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// The rule family that fired.
    pub rule: Rule,
    /// Human-readable description naming the offending WQE(s).
    pub message: String,
}

/// Machine-readable result of an analysis run (per program, or per node
/// for [`DeploymentVerifier`]).
#[derive(Clone, Debug)]
pub struct AnalysisReport {
    /// What was analyzed ("hash-get@shard0", "node shard1", ...).
    pub(crate) subject: String,
    /// Programs covered (1 for a per-program run).
    pub programs: usize,
    /// The covered programs' names, in the order they were added. For a
    /// multi-tenant domain these are tenant-qualified
    /// (`tenant/offload`), so co-resident programs from different owners
    /// stay distinguishable in reports and diagnostics.
    pub labels: Vec<String>,
    /// Happens-before graph size: nodes (two per op: issue, complete).
    pub hb_nodes: usize,
    /// Happens-before graph size: edges.
    pub hb_edges: usize,
    /// Individual checks performed (accesses proven / pairs compared).
    pub checked: usize,
    /// Findings; empty means the subject is proven clean.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// No diagnostics.
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Render as a single JSON object (hand-rolled; the tree carries no
    /// serialization dependency).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push_str("{\"subject\":\"");
        s.push_str(&json_escape(&self.subject));
        s.push_str("\",\"programs\":");
        s.push_str(&self.programs.to_string());
        if !self.labels.is_empty() {
            s.push_str(",\"labels\":[");
            for (i, l) in self.labels.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push('"');
                s.push_str(&json_escape(l));
                s.push('"');
            }
            s.push(']');
        }
        s.push_str(",\"hb_nodes\":");
        s.push_str(&self.hb_nodes.to_string());
        s.push_str(",\"hb_edges\":");
        s.push_str(&self.hb_edges.to_string());
        s.push_str(",\"checked\":");
        s.push_str(&self.checked.to_string());
        s.push_str(",\"clean\":");
        s.push_str(if self.clean() { "true" } else { "false" });
        s.push_str(",\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"rule\":\"");
            s.push_str(d.rule.name());
            s.push_str("\",\"message\":\"");
            s.push_str(&json_escape(&d.message));
            s.push_str("\"}");
        }
        s.push_str("]}");
        s
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Run the per-program rule set (local rules + happens-before +
/// symbolic bounds) over a program that has not been lowered yet — the
/// rules `deploy` rejects by, reported in full.
pub fn analyze(p: &IrProgram, sim: &Simulator, subject: &str) -> AnalysisReport {
    let mut diagnostics = Vec::new();
    let pm = patch::patch_map(p);
    let mut graph = hb::Graph::default();
    let (stats, checked) = run_passes(p, &pm, &mut graph, sim, &mut diagnostics);
    AnalysisReport {
        subject: subject.to_string(),
        programs: 1,
        labels: vec![subject.to_string()],
        hb_nodes: stats.nodes,
        hb_edges: stats.edges,
        checked,
        diagnostics,
    }
}

/// Every rule, over a precomputed patch map (deploy shares one map
/// between the rules and the optimizer) and a reusable happens-before
/// workspace, in the order a deploy reports them. A program with an
/// unplaced op is judged by nothing else. Returns the HB graph's size
/// and the number of accesses proven.
fn run_passes(
    p: &IrProgram,
    pm: &PatchMap,
    graph: &mut hb::Graph,
    sim: &Simulator,
    out: &mut Vec<Diagnostic>,
) -> (hb::HbStats, usize) {
    if !local::placed(p, out) {
        return (hb::HbStats { nodes: 0, edges: 0 }, 0);
    }
    local::fetch_horizon(p, pm, out);
    // Fills the sorted release list the HB graph is built from.
    local::enables(p, &mut graph.horizons, out);
    local::recycled(p, out);
    let stats = hb::analyze(p, pm, graph, out);
    (stats, bounds::analyze(p, pm, sim, out))
}

/// Deploy-time gate: the first diagnostic is a hard error. A clean
/// program allocates nothing here.
pub(crate) fn check(
    p: &IrProgram,
    pm: &PatchMap,
    graph: &mut hb::Graph,
    sim: &Simulator,
) -> Result<()> {
    let mut diagnostics = Vec::new();
    run_passes(p, pm, graph, sim, &mut diagnostics);
    first_error(&diagnostics, "analysis")
}

/// The one exit for a failed verification: the first of `diagnostics`
/// becomes `Error::Verifier("{scope}[{rule}]: {message}")`; none is
/// `Ok`. Deploys, fleets and clusters all reject through it.
pub fn first_error(diagnostics: &[Diagnostic], scope: &str) -> Result<()> {
    match diagnostics.first() {
        Some(d) => Err(Error::Verifier(format!(
            "{scope}[{}]: {}",
            d.rule.name(),
            d.message
        ))),
        None => Ok(()),
    }
}
