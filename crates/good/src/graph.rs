//! Object base graphs — the data model of GOOD (Gyssens, Paredaens &
//! Van Gucht, *A graph-oriented object database model*, PODS 1990; cited
//! as \[9\] and embedded into the tabular model as contribution (4) of the
//! 1996 paper).
//!
//! An object base is a finite directed graph: nodes are objects carrying a
//! *label* (their class), edges carry labels too. Node identities are
//! symbols (fresh values by default), which is exactly what makes the
//! tabular embedding (`Node(Id, Label)` / `Edge(Src, Lab, Dst)`) lossless.

use std::collections::HashSet;
use tabular_core::Symbol;

/// A labeled edge `(src, label, dst)`.
pub type Edge = (Symbol, Symbol, Symbol);

/// A GOOD object base: a directed graph with labeled nodes and edges.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    nodes: Vec<(Symbol, Symbol)>,
    node_set: HashSet<(Symbol, Symbol)>,
    edges: Vec<Edge>,
    edge_set: HashSet<Edge>,
}

impl Graph {
    /// The empty object base.
    pub fn new() -> Graph {
        Graph::default()
    }

    /// Add a node with a fresh object identity; returns the identity.
    pub fn add_node(&mut self, label: Symbol) -> Symbol {
        let id = Symbol::fresh_value();
        self.add_node_with_id(id, label);
        id
    }

    /// Add a node with an explicit identity (used by fixtures and by the
    /// tabular decoding). Idempotent per (id, label).
    pub fn add_node_with_id(&mut self, id: Symbol, label: Symbol) -> bool {
        if self.node_set.insert((id, label)) {
            self.nodes.push((id, label));
            true
        } else {
            false
        }
    }

    /// Add an edge; idempotent (the object base is a set of edges).
    pub fn add_edge(&mut self, src: Symbol, label: Symbol, dst: Symbol) -> bool {
        let e = (src, label, dst);
        if self.edge_set.insert(e) {
            self.edges.push(e);
            true
        } else {
            false
        }
    }

    /// Delete a node and every incident edge.
    pub fn delete_node(&mut self, id: Symbol) {
        self.nodes.retain(|&(n, _)| n != id);
        self.node_set.retain(|&(n, _)| n != id);
        self.edges.retain(|&(s, _, d)| s != id && d != id);
        self.edge_set.retain(|&(s, _, d)| s != id && d != id);
    }

    /// Delete one edge.
    pub fn delete_edge(&mut self, src: Symbol, label: Symbol, dst: Symbol) {
        let e = (src, label, dst);
        if self.edge_set.remove(&e) {
            self.edges.retain(|&x| x != e);
        }
    }

    /// All nodes as `(id, label)` pairs.
    pub fn nodes(&self) -> &[(Symbol, Symbol)] {
        &self.nodes
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Node ids with the given label.
    pub fn nodes_labeled(&self, label: Symbol) -> Vec<Symbol> {
        self.nodes
            .iter()
            .filter(|&&(_, l)| l == label)
            .map(|&(id, _)| id)
            .collect()
    }

    /// The label of a node (first one, if several were asserted).
    pub fn label_of(&self, id: Symbol) -> Option<Symbol> {
        self.nodes.iter().find(|&&(n, _)| n == id).map(|&(_, l)| l)
    }

    /// True if the edge exists.
    pub fn has_edge(&self, src: Symbol, label: Symbol, dst: Symbol) -> bool {
        self.edge_set.contains(&(src, label, dst))
    }

    /// Targets of `label`-edges out of `src`, as a sorted set.
    pub fn successors(&self, src: Symbol, label: Symbol) -> Vec<Symbol> {
        let mut out: Vec<Symbol> = self
            .edges
            .iter()
            .filter(|&&(s, l, _)| s == src && l == label)
            .map(|&(_, _, d)| d)
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Node count.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Edge count.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Graph equivalence up to a relabeling of object identities (graph
    /// isomorphism respecting node and edge labels). Exact backtracking
    /// with label/degree pruning; intended for the small graphs of the
    /// test-suite — the search is bounded and conservatively answers
    /// `false` past the budget.
    pub fn equiv(&self, other: &Graph) -> bool {
        if self.node_count() != other.node_count() || self.edge_count() != other.edge_count() {
            return false;
        }
        // Node signature: (label, out-degree per edge label, in-degree).
        let signature = |g: &Graph, id: Symbol, label: Symbol| -> Vec<(Symbol, isize)> {
            let mut sig: Vec<(Symbol, isize)> = vec![(label, -1)];
            for &(s, l, _) in g.edges() {
                if s == id {
                    sig.push((l, 1));
                }
            }
            for &(_, l, d) in g.edges() {
                if d == id {
                    sig.push((l, 2));
                }
            }
            sig.sort();
            sig
        };
        let mine: Vec<(Symbol, Vec<(Symbol, isize)>)> = self
            .nodes
            .iter()
            .map(|&(id, l)| (id, signature(self, id, l)))
            .collect();
        let theirs: Vec<(Symbol, Vec<(Symbol, isize)>)> = other
            .nodes
            .iter()
            .map(|&(id, l)| (id, signature(other, id, l)))
            .collect();
        {
            let mut a: Vec<_> = mine.iter().map(|(_, s)| s.clone()).collect();
            let mut b: Vec<_> = theirs.iter().map(|(_, s)| s.clone()).collect();
            a.sort();
            b.sort();
            if a != b {
                return false;
            }
        }

        #[allow(clippy::too_many_arguments)] // recursive search state
        fn search(
            k: usize,
            mine: &[(Symbol, Vec<(Symbol, isize)>)],
            theirs: &[(Symbol, Vec<(Symbol, isize)>)],
            mapping: &mut Vec<(Symbol, Symbol)>,
            used: &mut Vec<bool>,
            a: &Graph,
            b: &Graph,
            budget: &mut usize,
        ) -> bool {
            if *budget == 0 {
                return false;
            }
            *budget -= 1;
            if k == mine.len() {
                // All edges must map.
                return a.edges().iter().all(|&(s, l, d)| {
                    let ms = mapping.iter().find(|(x, _)| *x == s).map(|(_, y)| *y);
                    let md = mapping.iter().find(|(x, _)| *x == d).map(|(_, y)| *y);
                    match (ms, md) {
                        (Some(ms), Some(md)) => b.has_edge(ms, l, md),
                        _ => false,
                    }
                });
            }
            let (id, ref sig) = mine[k];
            for (j, (cand, csig)) in theirs.iter().enumerate() {
                if used[j] || csig != sig {
                    continue;
                }
                used[j] = true;
                mapping.push((id, *cand));
                if search(k + 1, mine, theirs, mapping, used, a, b, budget) {
                    return true;
                }
                mapping.pop();
                used[j] = false;
            }
            false
        }

        let mut mapping = Vec::new();
        let mut used = vec![false; theirs.len()];
        let mut budget = 1_000_000usize;
        search(
            0,
            &mine,
            &theirs,
            &mut mapping,
            &mut used,
            self,
            other,
            &mut budget,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nm(s: &str) -> Symbol {
        Symbol::name(s)
    }

    #[test]
    fn nodes_and_edges_are_sets() {
        let mut g = Graph::new();
        let a = g.add_node(nm("Person"));
        assert!(!g.add_node_with_id(a, nm("Person")));
        let b = g.add_node(nm("Person"));
        assert!(g.add_edge(a, nm("knows"), b));
        assert!(!g.add_edge(a, nm("knows"), b));
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn node_deletion_cascades() {
        let mut g = Graph::new();
        let a = g.add_node(nm("P"));
        let b = g.add_node(nm("P"));
        g.add_edge(a, nm("e"), b);
        g.add_edge(b, nm("e"), a);
        g.delete_node(a);
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn successors_are_sorted_sets() {
        let mut g = Graph::new();
        let a = g.add_node(nm("P"));
        let b = g.add_node(nm("Q"));
        let c = g.add_node(nm("Q"));
        g.add_edge(a, nm("e"), c);
        g.add_edge(a, nm("e"), b);
        g.add_edge(a, nm("f"), b);
        assert_eq!(g.successors(a, nm("e")).len(), 2);
        assert_eq!(g.successors(a, nm("f")), vec![b]);
        assert!(g.successors(b, nm("e")).is_empty());
    }

    #[test]
    fn isomorphic_graphs_are_equiv() {
        let build = || {
            let mut g = Graph::new();
            let a = g.add_node(nm("A"));
            let b = g.add_node(nm("B"));
            let c = g.add_node(nm("B"));
            g.add_edge(a, nm("e"), b);
            g.add_edge(a, nm("e"), c);
            g.add_edge(b, nm("f"), c);
            g
        };
        assert!(build().equiv(&build()));
    }

    #[test]
    fn non_isomorphic_graphs_are_not_equiv() {
        let mut g1 = Graph::new();
        let a = g1.add_node(nm("A"));
        let b = g1.add_node(nm("A"));
        g1.add_edge(a, nm("e"), b);

        let mut g2 = Graph::new();
        let c = g2.add_node(nm("A"));
        let d = g2.add_node(nm("A"));
        g2.add_edge(c, nm("e"), c); // self loop instead
        let _ = d;
        assert!(!g1.equiv(&g2));

        // Different labels.
        let mut g3 = Graph::new();
        let e = g3.add_node(nm("A"));
        let f = g3.add_node(nm("B"));
        g3.add_edge(e, nm("e"), f);
        assert!(!g1.equiv(&g3));
    }
}
