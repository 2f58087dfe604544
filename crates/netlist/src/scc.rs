//! Hand-rolled strongly-connected-component machinery.
//!
//! Shared by [`crate::analyze::comb_topo_order`]'s cycle reporting, the
//! `pl-lint` diagnostics pass (combinational-cycle and zero-delay-feedback
//! lints) and the phased-logic liveness check
//! (`pl_core::marked::check_liveness`), so every layer that names a cycle
//! names the *same* cycle: the graph is walked deterministically (roots in
//! index order, successors in adjacency order) and every returned
//! component or path is canonicalized.
//!
//! The implementation is Tarjan's algorithm made iterative (an explicit
//! state stack instead of recursion), so deep combinational chains cannot
//! overflow the call stack. [`component_ids`] is the search itself, in
//! linear time; [`tarjan_sccs`] lists its components in canonical order.

/// The strongly connected component of every node of a directed graph
/// over nodes `0..n`: two nodes get the same id exactly when they lie in
/// the same component. Ids run from 0 in the order the search completes
/// the components. `succ[v]` lists the successors of `v`.
#[must_use]
pub fn component_ids(n: usize, succ: &[Vec<usize>]) -> Vec<usize> {
    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut ids = vec![UNVISITED; n];
    let mut next_id = 0usize;
    // Explicit DFS frames: (node, next successor position to examine).
    let mut frames: Vec<(usize, usize)> = Vec::new();

    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        frames.push((root, 0));
        index[root] = next_index;
        lowlink[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut i)) = frames.last_mut() {
            if let Some(&w) = succ[v].get(*i) {
                *i += 1;
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    loop {
                        let w = stack.pop().expect("tarjan stack invariant");
                        on_stack[w] = false;
                        ids[w] = next_id;
                        if w == v {
                            break;
                        }
                    }
                    next_id += 1;
                }
            }
        }
    }
    ids
}

/// Strongly connected components of a directed graph over nodes `0..n`.
///
/// `succ[v]` lists the successors of `v`. Deterministic by construction:
/// each component's nodes are sorted ascending and the component list is
/// sorted by its smallest node.
#[must_use]
pub fn tarjan_sccs(n: usize, succ: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let ids = component_ids(n, succ);
    // Visiting the nodes in ascending order sorts every component and
    // orders the components by their smallest node.
    let mut slot = vec![usize::MAX; ids.iter().max().map_or(0, |&m| m + 1)];
    let mut components: Vec<Vec<usize>> = Vec::new();
    for (v, &id) in ids.iter().enumerate() {
        if slot[id] == usize::MAX {
            slot[id] = components.len();
            components.push(Vec::new());
        }
        components[slot[id]].push(v);
    }
    components
}

/// Whether a component is actually cyclic: more than one node, or a single
/// node with a self-edge.
#[must_use]
pub fn component_is_cyclic(succ: &[Vec<usize>], comp: &[usize]) -> bool {
    match comp {
        [v] => succ[*v].contains(v),
        _ => comp.len() > 1,
    }
}

/// A concrete cycle inside a cyclic strongly connected component, as a node
/// sequence `v0 -> v1 -> ... -> v0` (the closing edge back to `v0` is
/// implied, `v0` is not repeated). Deterministic: the walk starts at the
/// component's smallest node, always takes the smallest in-component
/// successor, and the result is rotated so the cycle's smallest member
/// comes first.
#[must_use]
pub fn cycle_in_component(succ: &[Vec<usize>], comp: &[usize]) -> Vec<usize> {
    debug_assert!(component_is_cyclic(succ, comp));
    let in_comp = |v: usize| comp.binary_search(&v).is_ok();
    let mut path: Vec<usize> = vec![comp[0]];
    let mut seen_at = std::collections::HashMap::new();
    seen_at.insert(comp[0], 0usize);
    loop {
        let v = *path.last().expect("path is non-empty");
        let w = succ[v]
            .iter()
            .copied()
            .filter(|&w| in_comp(w))
            .min()
            .expect("every node in a cyclic SCC has an in-component successor");
        if let Some(&start) = seen_at.get(&w) {
            // The walk closed a cycle: path[start..] -> w == path[start].
            let mut cycle = path.split_off(start);
            let min_pos = cycle
                .iter()
                .enumerate()
                .min_by_key(|&(_, v)| v)
                .map(|(i, _)| i)
                .expect("cycle is non-empty");
            cycle.rotate_left(min_pos);
            return cycle;
        }
        seen_at.insert(w, path.len());
        path.push(w);
    }
}

/// The first cycle of the graph (by the deterministic component order), or
/// `None` if the graph is acyclic.
#[must_use]
pub fn first_cycle(n: usize, succ: &[Vec<usize>]) -> Option<Vec<usize>> {
    tarjan_sccs(n, succ)
        .into_iter()
        .find(|c| component_is_cyclic(succ, c))
        .map(|c| cycle_in_component(succ, &c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acyclic_graph_has_singleton_components_and_no_cycle() {
        // 0 -> 1 -> 2
        let succ = vec![vec![1], vec![2], vec![]];
        let comps = tarjan_sccs(3, &succ);
        assert_eq!(comps, vec![vec![0], vec![1], vec![2]]);
        assert!(first_cycle(3, &succ).is_none());
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let succ = vec![vec![0]];
        assert_eq!(first_cycle(1, &succ), Some(vec![0]));
    }

    #[test]
    fn two_node_cycle_is_found_and_canonical() {
        // 2 -> 1 -> 2, plus 0 feeding 1.
        let succ = vec![vec![1], vec![2], vec![1]];
        let comps = tarjan_sccs(3, &succ);
        assert!(comps.contains(&vec![1, 2]));
        let ids = component_ids(3, &succ);
        assert!(ids[1] == ids[2] && ids[0] != ids[1]);
        assert_eq!(first_cycle(3, &succ), Some(vec![1, 2]));
    }

    #[test]
    fn cycle_walk_trims_the_tail_into_the_cycle() {
        // One SCC {0,1,2,3,4}: 0 -> 1 -> 2 -> 3 -> {1,4}, 4 -> 0. The
        // smallest-successor walk from 0 closes at 1 (3's smallest
        // in-component successor), so the reported cycle is 1 -> 2 -> 3
        // and the 0-prefix of the walk is trimmed away.
        let succ = vec![vec![1], vec![2], vec![3], vec![1, 4], vec![0]];
        let comps = tarjan_sccs(5, &succ);
        assert_eq!(comps, vec![vec![0, 1, 2, 3, 4]]);
        assert_eq!(cycle_in_component(&succ, &comps[0]), vec![1, 2, 3]);
    }

    #[test]
    fn deep_chain_does_not_overflow_the_stack() {
        // 100_000-node path ending in a 2-cycle; recursive Tarjan would
        // risk a stack overflow here.
        let n = 100_000;
        let mut succ: Vec<Vec<usize>> = (0..n).map(|i| vec![(i + 1) % n]).collect();
        succ[n - 1] = vec![n - 2];
        let cycle = first_cycle(n, &succ).expect("tail 2-cycle");
        assert_eq!(cycle, vec![n - 2, n - 1]);
    }
}
