//! Lock-order analysis over the acquisition graphs recorded by the compat
//! `parking_lot` under `--features lockdep`.
//!
//! Recording (in `parking_lot::lockdep`) adds one edge `A → B` whenever a
//! thread acquires `B` while holding `A`. A cycle in that graph is a
//! *potential* deadlock: two threads that ever interleave the cyclic orders
//! can block each other forever, even if no run has deadlocked yet. The
//! classic two-lock instance is the ABBA inversion — thread 1 takes `A`
//! then `B`, thread 2 takes `B` then `A`.
//!
//! [`assert_acyclic`] is the test gate: call it at the end of any test that
//! exercised instrumented locks. Without the `lockdep` feature the recorded
//! graph is empty and the call is free, so call sites need no `cfg`.

use std::collections::{BTreeMap, BTreeSet};

use parking_lot::lockdep::Registry;

/// One edge of a [`LockOrderGraph`], with the evidence needed to report an
/// inversion: the acquisition sites of both locks (first time the edge was
/// seen).
#[derive(Debug, Clone)]
pub struct Edge {
    /// Held lock id.
    pub from: u64,
    /// Acquired lock id.
    pub to: u64,
    /// `file:line:col` where `from` was acquired by the recording thread.
    pub from_site: String,
    /// `file:line:col` where `to` was acquired while `from` was held.
    pub to_site: String,
}

/// A directed lock-order graph: nodes are lock instances, an edge `A → B`
/// means some thread acquired `B` while holding `A`. Pure data — build one
/// from a registry snapshot ([`LockOrderGraph::from_registry`]) or by hand
/// ([`LockOrderGraph::add_edge`], used by the proptest oracle).
#[derive(Debug, Default, Clone)]
pub struct LockOrderGraph {
    labels: BTreeMap<u64, String>,
    edges: BTreeMap<(u64, u64), Edge>,
}

impl LockOrderGraph {
    /// An empty graph.
    pub fn new() -> LockOrderGraph {
        LockOrderGraph::default()
    }

    /// Builds a graph from everything `registry` has recorded.
    pub fn from_registry(registry: &Registry) -> LockOrderGraph {
        let mut g = LockOrderGraph::new();
        for e in registry.snapshot() {
            g.labels.entry(e.from.id).or_insert(e.from.label);
            g.labels.entry(e.to.id).or_insert(e.to.label);
            g.edges.entry((e.from.id, e.to.id)).or_insert(Edge {
                from: e.from.id,
                to: e.to.id,
                from_site: e.from_site,
                to_site: e.to_site,
            });
        }
        g
    }

    /// Records `from → to` ("`to` acquired while holding `from`"). The
    /// first sites recorded for an edge win, matching the recorder.
    pub fn add_edge(&mut self, from: u64, to: u64, from_site: &str, to_site: &str) {
        self.labels.entry(from).or_insert_with(|| format!("lock#{from}"));
        self.labels.entry(to).or_insert_with(|| format!("lock#{to}"));
        self.edges.entry((from, to)).or_insert(Edge {
            from,
            to,
            from_site: from_site.to_string(),
            to_site: to_site.to_string(),
        });
    }

    /// Names a node (overrides the `lock#id` placeholder in reports).
    pub fn label(&mut self, id: u64, label: &str) {
        self.labels.insert(id, label.to_string());
    }

    /// Number of recorded ordering edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Finds a cycle, returned as the edges along it (last edge closes the
    /// loop back to the first node), or `None` when the graph is acyclic.
    pub fn find_cycle(&self) -> Option<Vec<Edge>> {
        // Iterative DFS with an explicit path stack; `state` is 1 while a
        // node is on the current path, 2 once fully explored.
        let mut state: BTreeMap<u64, u8> = BTreeMap::new();
        for &start in self.labels.keys() {
            if state.get(&start).copied().unwrap_or(0) != 0 {
                continue;
            }
            let mut path: Vec<u64> = vec![start];
            state.insert(start, 1);
            // Successor iteration via range scans over the edge map keyed
            // by (from, to): all of `from`'s edges are contiguous.
            let succs = |g: &Self, n: u64| -> Vec<u64> {
                g.edges.range((n, 0)..=(n, u64::MAX)).map(|(&(_, to), _)| to).collect()
            };
            let mut pending: Vec<Vec<u64>> = vec![succs(self, start)];
            while let Some(next_list) = pending.last_mut() {
                match next_list.pop() {
                    Some(next) => match state.get(&next).copied().unwrap_or(0) {
                        1 => {
                            // Found a back edge: the cycle is the path
                            // suffix from `next`, plus the closing edge.
                            let at = path.iter().position(|&n| n == next).unwrap_or(path.len() - 1);
                            let mut nodes = path[at..].to_vec();
                            nodes.push(next);
                            let edges = nodes
                                .windows(2)
                                .map(|w| self.edges[&(w[0], w[1])].clone())
                                .collect();
                            return Some(edges);
                        }
                        2 => {}
                        _ => {
                            state.insert(next, 1);
                            path.push(next);
                            pending.push(succs(self, next));
                        }
                    },
                    None => {
                        pending.pop();
                        let done = path.pop().expect("path tracks pending");
                        state.insert(done, 2);
                    }
                }
            }
        }
        None
    }

    /// A total order of the nodes consistent with every edge (Kahn's
    /// algorithm), or `Err` with the ids left over when a cycle makes one
    /// impossible. This is the oracle the cycle detector is tested against:
    /// a topological order exists if and only if `find_cycle` is `None`.
    pub fn topological_order(&self) -> Result<Vec<u64>, Vec<u64>> {
        let mut indegree: BTreeMap<u64, usize> = self.labels.keys().map(|&n| (n, 0)).collect();
        for &(_, to) in self.edges.keys() {
            *indegree.entry(to).or_insert(0) += 1;
        }
        let mut ready: BTreeSet<u64> =
            indegree.iter().filter_map(|(&n, &d)| (d == 0).then_some(n)).collect();
        let mut order = Vec::with_capacity(indegree.len());
        while let Some(&n) = ready.iter().next() {
            ready.remove(&n);
            order.push(n);
            for (&(_, to), _) in self.edges.range((n, 0)..=(n, u64::MAX)) {
                let d = indegree.get_mut(&to).expect("edge endpoints are nodes");
                *d -= 1;
                if *d == 0 {
                    ready.insert(to);
                }
            }
        }
        if order.len() == indegree.len() {
            Ok(order)
        } else {
            Err(indegree.iter().filter_map(|(&n, _)| (!order.contains(&n)).then_some(n)).collect())
        }
    }

    /// Human-readable report for a cycle from [`LockOrderGraph::find_cycle`]:
    /// one line per edge naming both locks and both acquisition sites.
    pub fn describe_cycle(&self, cycle: &[Edge]) -> String {
        let mut out = String::from("potential deadlock: lock-order cycle\n");
        for e in cycle {
            let from = self.labels.get(&e.from).map(String::as_str).unwrap_or("?");
            let to = self.labels.get(&e.to).map(String::as_str).unwrap_or("?");
            out.push_str(&format!(
                "  {from} (held, acquired at {}) -> {to} (acquired at {})\n",
                e.from_site, e.to_site
            ));
        }
        out.push_str(
            "two threads interleaving these orders can block each other forever; \
             pick one global order and stick to it",
        );
        out
    }
}

/// Panics if the *global* lock-order graph recorded so far contains a
/// cycle, printing every edge of the cycle with both acquisition sites.
/// Call at the end of instrumented tests; a no-op (empty graph) when the
/// `lockdep` feature is off, so call sites need no `cfg`.
pub fn assert_acyclic() {
    assert_registry_acyclic(parking_lot::lockdep::default_registry());
}

/// [`assert_acyclic`] against an explicit registry (isolated test graphs
/// from `Registry::leak()`).
pub fn assert_registry_acyclic(registry: &Registry) {
    let graph = LockOrderGraph::from_registry(registry);
    if let Some(cycle) = graph.find_cycle() {
        panic!("{}", graph.describe_cycle(&cycle));
    }
}

#[cfg(test)]
mod tests {
    use super::LockOrderGraph;

    fn graph(edges: &[(u64, u64)]) -> LockOrderGraph {
        let mut g = LockOrderGraph::new();
        for &(a, b) in edges {
            g.add_edge(a, b, "a.rs:1:1", "b.rs:2:2");
        }
        g
    }

    #[test]
    fn empty_and_chain_graphs_are_acyclic() {
        assert!(graph(&[]).find_cycle().is_none());
        let g = graph(&[(1, 2), (2, 3), (1, 3)]);
        assert!(g.find_cycle().is_none());
        assert_eq!(g.topological_order().expect("acyclic"), vec![1, 2, 3]);
    }

    #[test]
    fn abba_cycle_is_found_and_described() {
        let mut g = LockOrderGraph::new();
        g.add_edge(1, 2, "t1.rs:10:5", "t1.rs:11:5");
        g.add_edge(2, 1, "t2.rs:20:5", "t2.rs:21:5");
        g.label(1, "lock.a");
        g.label(2, "lock.b");
        let cycle = g.find_cycle().expect("ABBA must be flagged");
        assert_eq!(cycle.len(), 2);
        let report = g.describe_cycle(&cycle);
        assert!(report.contains("lock.a") && report.contains("lock.b"), "{report}");
        assert!(report.contains("t1.rs:11:5") && report.contains("t2.rs:21:5"), "{report}");
        assert!(g.topological_order().is_err());
    }

    #[test]
    fn self_loop_and_long_cycle() {
        assert!(graph(&[(7, 7)]).find_cycle().is_some());
        let g = graph(&[(1, 2), (2, 3), (3, 4), (4, 2)]);
        let cycle = g.find_cycle().expect("2→3→4→2");
        assert!(cycle.len() == 3, "{cycle:?}");
    }

    #[test]
    fn diamond_is_acyclic() {
        let g = graph(&[(1, 2), (1, 3), (2, 4), (3, 4)]);
        assert!(g.find_cycle().is_none());
        g.topological_order().expect("diamond has an order");
    }
}
