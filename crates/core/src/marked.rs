//! Marked-graph liveness and safety analysis.
//!
//! The paper (§2, citing Linder/Harden) requires the PL netlist's marked
//! graph to be **live** — "an active token on each directed circuit of the
//! graph and every signal must be part of a directed circuit" — and
//! **safe** — "each directed circuit has only one active token on it at a
//! time" (more precisely: every arc lies on some circuit carrying exactly
//! one token, which bounds every arc's occupancy to one).
//!
//! [`check_liveness`] runs in linear time (the Tarjan search of
//! [`pl_netlist::scc`], which the netlist and lint layers use too, and a
//! cycle check on the token-free subgraph) and is executed for every
//! constructed netlist.
//! [`check_safety`] does a token-budgeted search per arc and is intended
//! for tests and small-to-medium designs; the discrete-event simulator
//! additionally asserts dynamic safety (no arc ever holds two tokens) on
//! every run.

use pl_netlist::scc;

use crate::error::PlError;
use crate::gate::{PlArcId, PlGateId};
use crate::netlist::PlNetlist;

/// Structural liveness check.
///
/// Verifies that (a) every arc's endpoints are in the same strongly
/// connected component — i.e. every signal is part of a directed circuit —
/// and (b) the subgraph of token-free arcs is acyclic, so every directed
/// circuit carries at least one token.
///
/// # Errors
///
/// Returns [`PlError::ArcNotOnCircuit`] or [`PlError::ZeroTokenCycle`].
pub fn check_liveness(pl: &PlNetlist) -> Result<(), PlError> {
    let n = pl.gates().len();
    // (a) SCCs over all arcs.
    let component = scc::component_ids(n, &adjacency(pl, |_| true));
    for (i, arc) in pl.arcs().iter().enumerate() {
        if component[arc.src().index()] != component[arc.dst().index()] {
            return Err(PlError::ArcNotOnCircuit(PlArcId::from_index(i)));
        }
    }
    // (b) token-free subgraph must be acyclic.
    let adj0: Vec<Vec<usize>> = adjacency(pl, |a| pl.arcs()[a].init_tokens() == 0);
    if let Some(g) = cycle_gate(&adj0) {
        return Err(PlError::ZeroTokenCycle(PlGateId::from_index(g)));
    }
    Ok(())
}

/// Structural safety check: every arc must lie on a directed circuit
/// carrying **exactly one** token.
///
/// Cost is `O(arcs × (gates + arcs))`; use on small/medium designs or in
/// tests. Construction inserts feedback arcs precisely to establish this
/// property, so a failure indicates a mapping bug.
///
/// # Errors
///
/// Returns [`PlError::UnsafeArc`] naming the first uncovered arc.
pub fn check_safety(pl: &PlNetlist) -> Result<(), PlError> {
    let n = pl.gates().len();
    // Successor lists annotated with arc token counts.
    let mut succ: Vec<Vec<(usize, u8)>> = vec![Vec::new(); n];
    for arc in pl.arcs() {
        succ[arc.src().index()].push((arc.dst().index(), arc.init_tokens()));
    }
    for (i, arc) in pl.arcs().iter().enumerate() {
        let budget = 1 - arc.init_tokens().min(1);
        if !path_with_exact_tokens(&succ, arc.dst().index(), arc.src().index(), budget) {
            return Err(PlError::UnsafeArc(PlArcId::from_index(i)));
        }
    }
    Ok(())
}

/// Breadth-first search for a path `from ⇝ to` whose arcs carry exactly
/// `budget` tokens (budget ∈ {0, 1}). A zero-length path qualifies when
/// `from == to` and `budget == 0`.
fn path_with_exact_tokens(succ: &[Vec<(usize, u8)>], from: usize, to: usize, budget: u8) -> bool {
    if from == to && budget == 0 {
        return true;
    }
    let n = succ.len();
    // State: (gate, tokens used so far). Tokens capped at budget.
    let mut visited = vec![false; n * 2];
    let mut queue = std::collections::VecDeque::new();
    queue.push_back((from, 0u8));
    visited[from * 2] = true;
    while let Some((g, t)) = queue.pop_front() {
        for &(next, w) in &succ[g] {
            let nt = t + w.min(1);
            if nt > budget {
                continue;
            }
            if next == to && nt == budget {
                return true;
            }
            let key = next * 2 + nt as usize;
            if !visited[key] {
                visited[key] = true;
                queue.push_back((next, nt));
            }
        }
    }
    false
}

/// Builds gate-level adjacency over arcs selected by `keep` (by arc index).
fn adjacency(pl: &PlNetlist, keep: impl Fn(usize) -> bool) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); pl.gates().len()];
    for (i, arc) in pl.arcs().iter().enumerate() {
        if keep(i) {
            adj[arc.src().index()].push(arc.dst().index());
        }
    }
    adj
}

/// A gate on a directed cycle of `succ`, or `None` if it is acyclic. A
/// Kahn peel settles the acyclic case cheaply; only when gates are left
/// over does [`scc::first_cycle`] find a cycle to name a gate *on* it.
fn cycle_gate(succ: &[Vec<usize>]) -> Option<usize> {
    let n = succ.len();
    let mut indeg = vec![0usize; n];
    for &s in succ.iter().flatten() {
        indeg[s] += 1;
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut seen = 0usize;
    while let Some(i) = queue.pop() {
        seen += 1;
        for &s in &succ[i] {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                queue.push(s);
            }
        }
    }
    if seen == n {
        None
    } else {
        scc::first_cycle(n, succ).map(|cycle| cycle[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_netlist::Netlist;

    fn small_counter() -> PlNetlist {
        let mut n = Netlist::new("cnt");
        let q0 = n.add_dff(false);
        let q1 = n.add_dff(false);
        let n0 = n.add_not(q0).unwrap();
        let t1 = n.add_xor2(q1, q0).unwrap();
        n.set_dff_input(q0, n0).unwrap();
        n.set_dff_input(q1, t1).unwrap();
        n.set_output("q0", q0);
        n.set_output("q1", q1);
        PlNetlist::from_sync(&n).unwrap()
    }

    fn comb_pipeline() -> PlNetlist {
        let mut n = Netlist::new("pipe");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g1 = n.add_and2(a, b).unwrap();
        let g2 = n.add_not(g1).unwrap();
        n.set_output("y", g2);
        PlNetlist::from_sync(&n).unwrap()
    }

    #[test]
    fn counter_is_live_and_safe() {
        let pl = small_counter();
        check_liveness(&pl).unwrap();
        check_safety(&pl).unwrap();
    }

    #[test]
    fn pipeline_is_live_and_safe() {
        let pl = comb_pipeline();
        check_liveness(&pl).unwrap();
        check_safety(&pl).unwrap();
    }

    /// Directly cross-coupled registers (a swap pair) form an all-register
    /// ring; the mapping must splice slack buffers or the acknowledge arcs
    /// deadlock. Found by the pipeline property tests.
    #[test]
    fn register_swap_ring_is_live_and_safe() {
        let mut n = Netlist::new("swap");
        let a = n.add_dff(true);
        let b = n.add_dff(false);
        n.set_dff_input(a, b).unwrap();
        n.set_dff_input(b, a).unwrap();
        n.set_output("a", a);
        n.set_output("b", b);
        let pl = PlNetlist::from_sync(&n).unwrap();
        check_liveness(&pl).unwrap();
        check_safety(&pl).unwrap();
        // Two slack buffers were inserted.
        assert_eq!(pl.num_logic_gates(), 4);
    }

    /// A register holding itself (q feeds d directly) is a one-node ring.
    #[test]
    fn register_self_loop_is_live_and_safe() {
        let mut n = Netlist::new("hold");
        let a = n.add_dff(true);
        n.set_dff_input(a, a).unwrap();
        n.set_output("a", a);
        let pl = PlNetlist::from_sync(&n).unwrap();
        check_liveness(&pl).unwrap();
        check_safety(&pl).unwrap();
    }

    /// A three-stage rotating ring — every edge needs slack.
    #[test]
    fn register_rotate_ring_is_live_and_safe() {
        let mut n = Netlist::new("rot3");
        let r: Vec<_> = (0..3).map(|i| n.add_dff(i == 0)).collect();
        for i in 0..3 {
            n.set_dff_input(r[i], r[(i + 1) % 3]).unwrap();
            n.set_output(format!("q{i}"), r[i]);
        }
        let pl = PlNetlist::from_sync(&n).unwrap();
        check_liveness(&pl).unwrap();
        check_safety(&pl).unwrap();
    }

    /// Shift chains (register feeding register, acyclically) must NOT get
    /// buffers — only rings need slack.
    #[test]
    fn shift_chain_gets_no_buffers() {
        let mut n = Netlist::new("shift");
        let x = n.add_input("x");
        let s0 = n.add_dff(false);
        let s1 = n.add_dff(false);
        n.set_dff_input(s0, x).unwrap();
        n.set_dff_input(s1, s0).unwrap();
        n.set_output("q", s1);
        let pl = PlNetlist::from_sync(&n).unwrap();
        check_liveness(&pl).unwrap();
        check_safety(&pl).unwrap();
        assert_eq!(pl.num_logic_gates(), 2, "no slack buffers on a chain");
    }

    #[test]
    fn cycle_detection() {
        let cyclic = vec![vec![1], vec![2], vec![0]];
        assert!(cycle_gate(&cyclic).is_some());
        let acyclic = vec![vec![1], vec![2], vec![]];
        assert!(cycle_gate(&acyclic).is_none());
        // 1 <-> 2 is the cycle and 0 hangs off it (1 -> 0): gate 0 keeps
        // in-degree after the peel but is not on the cycle.
        let downstream = vec![vec![], vec![2, 0], vec![1]];
        assert_eq!(cycle_gate(&downstream), Some(1));
    }

    #[test]
    fn exact_token_paths() {
        // 0 --(0 tokens)--> 1 --(1 token)--> 2
        let succ = vec![vec![(1usize, 0u8)], vec![(2, 1)], vec![]];
        assert!(path_with_exact_tokens(&succ, 0, 2, 1));
        assert!(!path_with_exact_tokens(&succ, 0, 2, 0));
        assert!(path_with_exact_tokens(&succ, 0, 1, 0));
        assert!(path_with_exact_tokens(&succ, 0, 0, 0)); // zero-length
    }
}
