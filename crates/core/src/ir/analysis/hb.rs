//! Happens-before graph construction and deadlock detection.
//!
//! Two nodes per placed op — *issue* (the NIC fetches and starts the
//! WQE) and *complete* (its effect is durable and its CQE, if any,
//! posted) — with edges for everything the execution model orders:
//!
//! * `issue(x) → complete(x)` — an op completes after it issues;
//! * per-queue program order, issue-to-issue and complete-to-complete
//!   (one QP's WQEs issue in order and its CQEs post in order);
//! * a WAIT parks its queue: `complete(wait) → issue(successor)`;
//! * `wait_prev` fences: `complete(prev) → issue(op)`;
//! * `WAIT(OpDone*(x))`: `complete(x) → complete(wait)`;
//! * ENABLE releases: a managed op issues only once the first covering
//!   ENABLE (smallest horizon past it) completes —
//!   `complete(enable) → issue(op)`;
//! * runtime patch edges (linear programs only): a patch must land
//!   before its target's fetch, `complete(patcher) → issue(target)`.
//!   Recycled rings patch *across* rounds (journal-pointer bumps), so
//!   their patch edges are not same-round HB constraints.
//!
//! `WAIT(Absolute)` gets no in-edge: the count is raised by something
//! outside the program (a trigger RECV, a foreign offload). Its safety
//! inside a ring is the `recycled-induction` rule's job
//! ([`super::local::recycled`]): every per-round bump must exist and
//! equal the count one round actually produces.
//!
//! Any cycle is a deadlock. A cycle through a release edge means an
//! ENABLE transitively waits on ops it must itself release — a horizon
//! that can never be raised.

use super::patch::PatchMap;
use super::{Diagnostic, Rule};
use crate::ir::{IrProgram, Kind, OpId, QId, WaitCond};

/// Edge provenance (drives cycle classification).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Edge {
    /// Program order / intra-op.
    Program,
    /// A WAIT threshold (parked queue or OpDone condition).
    Wait,
    /// A `wait_prev` completion fence.
    Fence,
    /// An ENABLE horizon release.
    Release,
    /// A runtime patch that must land before its target's fetch.
    Patch,
}

/// HB graph size, surfaced through [`super::AnalysisReport`].
pub(crate) struct HbStats {
    pub(crate) nodes: usize,
    pub(crate) edges: usize,
}

fn issue(op: OpId) -> u32 {
    op.0 as u32 * 2
}

fn complete(op: OpId) -> u32 {
    op.0 as u32 * 2 + 1
}

/// The HB graph and the search's working memory, all flat and all reused
/// from one program to the next. The graph is two CSR arrays (`start`,
/// `adj`), filled by emitting the edges twice — once to count every
/// node's out-degree, once to place — so every node's out-edges sit in
/// emission order and the search, and with it which cycle is reported
/// first, does not depend on the layout.
#[derive(Default)]
pub(crate) struct Graph {
    /// Node `u`'s out-edges are `adj[start[u]..start[u + 1]]`.
    start: Vec<u32>,
    adj: Vec<(u32, Edge)>,
    /// Ascending `(queue, horizon, the ENABLE raising it)`, filled by
    /// [`super::local::enables`].
    pub(super) horizons: Vec<(usize, usize, OpId)>,
    /// DFS colors: 0 = white, 1 = on stack, 2 = done.
    color: Vec<u8>,
    /// DFS stack: `(node, next out-edge, edge kind that led here)`.
    stack: Vec<(u32, u32, Edge)>,
}

/// Emit every HB edge of `p` as `(from, to, kind)`, in a fixed order.
fn for_each_edge(
    p: &IrProgram,
    pm: &PatchMap,
    horizons: &[(usize, usize, OpId)],
    mut edge: impl FnMut(u32, u32, Edge),
) {
    let ring = p.ring();

    for ops in p.queue_ops.iter() {
        for (pos, id) in ops.iter().enumerate() {
            let op = p.op(*id);
            // An op completes after it issues.
            edge(issue(*id), complete(*id), Edge::Program);
            if pos > 0 {
                let prev = ops[pos - 1];
                // One QP issues its WQEs in order and posts CQEs in order.
                edge(issue(prev), issue(*id), Edge::Program);
                edge(complete(prev), complete(*id), Edge::Program);
                // A WAIT parks the queue: nothing behind it issues until
                // its threshold is met.
                if matches!(p.op(prev).kind, Kind::Wait(_)) {
                    edge(complete(prev), issue(*id), Edge::Wait);
                }
                if op.wait_prev {
                    edge(complete(prev), issue(*id), Edge::Fence);
                }
            }
            // OpDone thresholds order completions across queues.
            if let Kind::Wait(WaitCond::OpDonePosted(x) | WaitCond::OpDoneSignaled(x)) = &op.kind {
                if p.ops[x.0].op.is_some() {
                    edge(complete(*x), complete(*id), Edge::Wait);
                }
            }
        }
    }

    // ENABLE releases: a managed op issues only once the first covering
    // horizon is raised. "First" = the ENABLE with the smallest horizon
    // past the op, the lowest op id among equals (exactly the one that
    // releases it when horizons rise monotonically, as the
    // recycled-induction rule enforces for rings). `horizons` is sorted, so
    // each next op's releaser is found by moving one cursor forward.
    let mut next = 0;
    for (qi, ops) in p.queue_ops.iter().enumerate() {
        let q = QId(qi);
        let first = next;
        while horizons.get(next).is_some_and(|h| h.0 == qi) {
            next += 1;
        }
        if Some(q) == ring || !p.queues[qi].managed() || p.external_enable.contains(&q) {
            continue; // the ring self-enables; doorbells and host enables are external
        }
        let mut at = first;
        for (pos, id) in ops.iter().enumerate() {
            while at < next && horizons[at].1 <= pos {
                at += 1;
            }
            if at < next {
                edge(complete(horizons[at].2), issue(*id), Edge::Release);
            }
        }
    }

    // Patch edges: linear programs only — a recycled ring's patches
    // retarget *next* round's operands (e.g. the replication chain's
    // journal-pointer FETCH_ADD), which is not a same-round ordering.
    if ring.is_none() {
        for e in &pm.edges {
            if let Some(patcher) = e.patcher() {
                if p.ops[e.target().0].op.is_some() && p.ops[patcher.0].op.is_some() {
                    edge(complete(patcher), issue(e.target()), Edge::Patch);
                }
            }
        }
    }
}

/// Build the HB graph in `g` — whose `horizons` [`super::local::enables`]
/// has filled — and report the first cycle (if any).
pub(crate) fn analyze(
    p: &IrProgram,
    pm: &PatchMap,
    g: &mut Graph,
    out: &mut Vec<Diagnostic>,
) -> HbStats {
    let n = p.ops.len() * 2;

    // Count, prefix-sum, place: `start[u]` is node `u`'s fill cursor
    // during placement and is shifted back down one node afterwards.
    g.start.clear();
    g.start.resize(n + 1, 0);
    for_each_edge(p, pm, &g.horizons, |from, _, _| {
        g.start[from as usize + 1] += 1;
    });
    for u in 0..n {
        g.start[u + 1] += g.start[u];
    }
    let edges = g.start[n] as usize;
    g.adj.clear();
    g.adj.resize(edges, (0, Edge::Program));
    for_each_edge(p, pm, &g.horizons, |from, to, kind| {
        let at = &mut g.start[from as usize];
        g.adj[*at as usize] = (to, kind);
        *at += 1;
    });
    g.start.copy_within(0..n, 1);
    g.start[0] = 0;

    if let Some(cycle) = find_cycle(g) {
        out.push(report_cycle(p, &cycle));
    }
    HbStats { nodes: n, edges }
}

/// Iterative colored DFS; returns the first cycle as `(node, edge kind
/// taken out of it)` pairs in traversal order.
fn find_cycle(g: &mut Graph) -> Option<Vec<(usize, Edge)>> {
    let n = g.start.len() - 1;
    g.color.clear();
    g.color.resize(n, 0);
    for root in 0..n as u32 {
        if g.color[root as usize] != 0 {
            continue;
        }
        g.stack.clear();
        g.stack.push((root, g.start[root as usize], Edge::Program));
        g.color[root as usize] = 1;
        while let Some(top) = g.stack.last_mut() {
            let (u, i) = (top.0 as usize, top.1);
            if i >= g.start[u + 1] {
                g.color[u] = 2;
                g.stack.pop();
                continue;
            }
            top.1 += 1;
            let (v, kind) = g.adj[i as usize];
            match g.color[v as usize] {
                0 => {
                    g.color[v as usize] = 1;
                    g.stack.push((v, g.start[v as usize], kind));
                }
                1 => {
                    // Cycle: v .. u on the stack, closed by (u → v, kind).
                    let stack = &g.stack;
                    let from = stack.iter().position(|&(x, ..)| x == v).expect("on stack");
                    let mut cycle: Vec<(usize, Edge)> = Vec::new();
                    for w in from..stack.len() {
                        // The edge *out of* stack[w] is the one that led
                        // to stack[w + 1] (or the closing edge for u).
                        let out_kind = stack.get(w + 1).map(|&(.., k)| k).unwrap_or(kind);
                        cycle.push((stack[w].0 as usize, out_kind));
                    }
                    return Some(cycle);
                }
                _ => {}
            }
        }
    }
    None
}

fn report_cycle(p: &IrProgram, cycle: &[(usize, Edge)]) -> Diagnostic {
    let mut labels: Vec<String> = Vec::new();
    for (node, _) in cycle {
        let l = p.name_of(OpId(node / 2)).to_string();
        if labels.last() != Some(&l) {
            labels.push(l);
        }
    }
    if let (Some(first), Some(last)) = (labels.first().cloned(), labels.last()) {
        if labels.len() > 1 && *last == first {
            labels.pop();
        }
    }
    let chain = format!("{} -> (back to start)", labels.join(" -> "));
    let has_release = cycle.iter().any(|&(_, k)| k == Edge::Release);
    let has_patch = cycle.iter().any(|&(_, k)| k == Edge::Patch);
    if has_release {
        Diagnostic {
            rule: Rule::UnraisableHorizon,
            message: format!(
                "un-raisable ENABLE horizon: a happens-before cycle passes through an \
                 ENABLE's release edge — {} — the ENABLE transitively waits on ops it \
                 must itself release, so the horizon never rises and the queue parks \
                 forever",
                chain
            ),
        }
    } else {
        Diagnostic {
            rule: Rule::WaitCycle,
            message: format!(
                "deadlock: circular wait{} — {} — no op on the cycle can ever issue",
                if has_patch {
                    " (through a runtime patch edge)"
                } else {
                    ""
                },
                chain
            ),
        }
    }
}
