//! # `ir::analysis` — whole-deployment static analysis
//!
//! PR 5's verifier ([`super::verify`]) rejects three *local* hazard
//! shapes. This module is the global layer on top of it:
//!
//! 1. **Happens-before analysis** (`hb`) — an explicit HB graph built
//!    from WAIT conditions, ENABLE horizons, `wait_prev` fences, and
//!    (for linear programs) runtime patch edges. Any cycle is a
//!    deadlock the NIC would park in forever: a circular wait, or an
//!    ENABLE whose horizon can never be raised because it transitively
//!    waits on the very ops it must release. Recycled rings add the
//!    *inductive threshold invariant*: every per-round bump must equal
//!    the count the round actually produces, or round `n+1` waits on a
//!    threshold round `n` can never reach.
//! 2. **Symbolic bounds analysis** (`bounds`) — every READ / WRITE /
//!    atomic / scatter target is resolved symbolically (constants to
//!    their pool extents, patch points to trailing WQE-slot extents,
//!    raw addresses to live registered regions, and post-patch values
//!    propagated through `Loc::Field { RemoteAddr }` patch writes) and
//!    proven in-bounds *before* a single WQE is staged.
//! 3. **Non-interference** (`interference`) — [`DeploymentVerifier`]
//!    takes the write/ring/CQ [`Footprint`] of every program co-resident
//!    on a node and proves no program's patch points, response slots,
//!    journal windows, or CQ thresholds alias another's.
//!
//! Per-program passes (1)–(2) run automatically inside
//! [`IrProgram::deploy`](super::IrProgram::deploy) whenever
//! `DeployOpts::verify` is set (the default); clearing it
//! ([`IrProgram::deploy_unchecked`](super::IrProgram::deploy_unchecked))
//! waives them together with the PR 5 rules. Pass (3) runs at fleet/cluster
//! deployment, over the [`Footprint`]s lowering collects for free.
//!
//! Everything reports through [`AnalysisReport`], which renders to JSON
//! ([`AnalysisReport::to_json`]) for the `redn-verify` CI gate.

pub(crate) mod bounds;
pub(crate) mod hb;
pub(crate) mod interference;

use rnic_sim::error::{Error, Result};
use rnic_sim::sim::Simulator;

use super::verify::{self, PatchMap};
use super::IrProgram;

pub use interference::{DeploymentVerifier, Footprint, Space, Span};

/// The analysis rule families (one diagnostic names exactly one).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// A cycle in the happens-before graph whose edges are all waits and
    /// fences — a circular wait.
    WaitCycle,
    /// An HB cycle passing through an ENABLE's release edge — the
    /// horizon can never be raised.
    UnraisableHorizon,
    /// A recycled ring whose per-round bump does not equal the count the
    /// round produces — the inductive threshold invariant fails.
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

/// Run the per-program pass suite (happens-before + recycled induction +
/// symbolic bounds) over a program that has not been lowered yet.
pub fn analyze(p: &IrProgram, sim: &Simulator, subject: &str) -> AnalysisReport {
    let mut diagnostics = Vec::new();
    let pm = verify::patch_map(p);
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

/// The three passes, over a precomputed patch map (deploy shares one
/// map between the verifier, the analyzer, and the optimizer) and a
/// reusable happens-before workspace. Returns the HB graph's size and
/// the number of accesses proven.
fn run_passes(
    p: &IrProgram,
    pm: &PatchMap,
    graph: &mut hb::Graph,
    sim: &Simulator,
    out: &mut Vec<Diagnostic>,
) -> (hb::HbStats, usize) {
    let stats = hb::analyze(p, pm, graph, out);
    hb::induction(p, out);
    (stats, bounds::analyze(p, pm, sim, out))
}

/// Deploy-time gate: the first diagnostic is a hard error, exactly like
/// the PR 5 verifier's rules. A clean program allocates nothing here.
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
