//! Probability propagation along a join path (paper §2.2).
//!
//! For a reference `r` and a join path `P`, the *connection strength*
//! between `r` and each neighbor tuple `t ∈ NB_P(r)` is modelled by
//! uniform probability propagation: the tuple containing `r` starts with
//! probability 1, and at each step every tuple with non-zero probability
//! splits its mass uniformly over the tuples joinable with it along the
//! next step of `P`.
//!
//! Both quantities the paper needs come out of one traversal:
//!
//! * `Prob_P(r → t)` — mass arriving at `t` walking the path forward; and
//! * `Prob_P(t → r)` — probability that a walk starting at `t` and
//!   following the *reverse* path lands exactly on `r`.

use crate::graph::{LinkGraph, NodeId};
use relstore::{Catalog, FxHashMap, JoinPath, TupleRef};

/// Result of propagating from one origin tuple along one join path.
///
/// Maps are over nodes of the path's **end relation**; a node absent from
/// the maps has zero probability. The key sets of `forward` and `backward`
/// are identical: a tuple is reachable from `r` iff `r` is reachable from
/// it along the reverse path.
#[derive(Debug, Clone, Default)]
pub struct Propagation {
    /// `Prob_P(r → t)` per reachable end-relation tuple `t`.
    pub forward: FxHashMap<NodeId, f64>,
    /// `Prob_P(t → r)` per reachable end-relation tuple `t`.
    pub backward: FxHashMap<NodeId, f64>,
}

impl Propagation {
    /// Number of distinct neighbor tuples reached.
    pub fn neighbor_count(&self) -> usize {
        self.forward.len()
    }

    /// True if no neighbor tuples were reached.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// The forward and backward maps as sorted [`crate::WeightedSet`]s,
    /// moving the maps rather than cloning them. Construction sorts by
    /// node id, so every accumulation over the sets is independent of the
    /// maps' insertion history (lint D107).
    pub fn into_sets(self) -> (crate::WeightedSet, crate::WeightedSet) {
        (
            crate::WeightedSet::from_map(self.forward),
            crate::WeightedSet::from_map(self.backward),
        )
    }
}

/// Propagate probabilities from `origin` along `path`.
///
/// `origin` must be a tuple of the path's start relation. The catalog is
/// only consulted for the path's relation sequence; all adjacency comes
/// from the [`LinkGraph`].
pub fn propagate(
    graph: &LinkGraph,
    catalog: &Catalog,
    path: &JoinPath,
    origin: TupleRef,
) -> Propagation {
    propagate_blocked(graph, catalog, path, origin, &[])
}

/// Like [`propagate`], but walks never pass through any of the `blocked`
/// nodes: mass stepping onto a blocked node is dropped (not renormalized),
/// in both the forward and the reverse direction.
///
/// DISTINCT blocks the tuple identified by a reference's own name: all
/// resembling references share it by definition, so any linkage routed
/// through it (e.g. reaching every same-named reference via the shared
/// author tuple) is vacuous for distinguishing them.
pub fn propagate_blocked(
    graph: &LinkGraph,
    catalog: &Catalog,
    path: &JoinPath,
    origin: TupleRef,
    blocked: &[NodeId],
) -> Propagation {
    propagate_blocked_guarded(graph, catalog, path, origin, blocked, &mut |_| true)
        // guard is the constant true closure above, so the traversal can never be abandoned
        .expect("permissive guard never stops propagation")
}

/// Like [`propagate_blocked`], but cooperatively interruptible.
///
/// `guard` is called once per propagation level (forward and backward) with
/// the number of frontier entries about to be expanded — the unit of work
/// that dominates propagation cost. Returning `false` abandons the
/// traversal: the function returns `None` and the partial frontier is
/// discarded (a half-propagated profile would silently distort similarity
/// values, which is worse than having no profile).
pub fn propagate_blocked_guarded(
    graph: &LinkGraph,
    catalog: &Catalog,
    path: &JoinPath,
    origin: TupleRef,
    blocked: &[NodeId],
    guard: &mut dyn FnMut(u64) -> bool,
) -> Option<Propagation> {
    debug_assert_eq!(
        origin.rel, path.start,
        "origin tuple not in path start relation"
    );
    let rels = path.relations(catalog);

    // Forward pass, keeping each level's frontier for the backward pass.
    // Each finished level moves into `levels` (no clones); the last one
    // joins them after the loop.
    let mut levels: Vec<FxHashMap<NodeId, f64>> = Vec::with_capacity(path.len() + 1);
    let mut frontier: FxHashMap<NodeId, f64> = FxHashMap::default();
    frontier.insert(graph.node(origin), 1.0);
    // Hoisted sort scratch, refilled per level instead of reallocated
    // (lint D110): each level clears it and re-extends from the frontier.
    let mut expand: Vec<(NodeId, f64)> = Vec::new();
    for (i, step) in path.steps.iter().enumerate() {
        if !guard(frontier.len() as u64) {
            return None;
        }
        let src_rel = rels[i];
        let mut next: FxHashMap<NodeId, f64> = FxHashMap::default();
        // Expand the frontier in ascending node order: several sources can
        // deposit mass on the same target, and f64 `+=` is order-sensitive,
        // so hash-order expansion would make the low-order bits of `next`
        // depend on the frontier map's insertion history (lint D107).
        expand.clear();
        expand.extend(frontier.iter().map(|(&u, &p)| (u, p)));
        expand.sort_unstable_by_key(|&(u, _)| u);
        for &(u, p) in &expand {
            let nbrs = graph.step_neighbors(*step, u, src_rel);
            if nbrs.is_empty() {
                continue; // dead end: mass is lost (e.g. null FK)
            }
            let share = p / nbrs.len() as f64;
            for &v in nbrs {
                if blocked.contains(&v) {
                    continue; // mass is lost at blocked nodes
                }
                *next.entry(v).or_insert(0.0) += share;
            }
        }
        levels.push(std::mem::replace(&mut frontier, next));
    }
    levels.push(frontier);

    // Backward pass: g_i(u) = P(reverse walk from u at level i reaches origin).
    // g_0(origin) = 1; g_i(u) = (Σ_{v ∈ rev(u)} g_{i-1}(v)) / |rev(u)| where
    // rev(u) enumerates *all* reverse-step neighbors of u (tuples off every
    // path to the origin contribute 0).
    let mut g: FxHashMap<NodeId, f64> = FxHashMap::default();
    g.insert(graph.node(origin), 1.0);
    for (i, step) in path.steps.iter().enumerate() {
        if !guard(levels[i + 1].len() as u64) {
            return None;
        }
        let rev = step.reversed();
        let rev_src_rel = rels[i + 1];
        let mut g_next: FxHashMap<NodeId, f64> = FxHashMap::default();
        // Each `u` gets an independent entry and `acc` sums over the
        // deterministic reverse-neighbor slice, so iteration order cannot
        // affect any value — only the map's (unobserved) internal layout.
        // per-key insert with no cross-key accumulation; acc sums a deterministic slice
        for &u in levels[i + 1].keys() {
            let nbrs = graph.step_neighbors(rev, u, rev_src_rel);
            debug_assert!(!nbrs.is_empty(), "reached tuple has no reverse neighbor");
            let mut acc = 0.0;
            for &v in nbrs {
                if let Some(&gv) = g.get(&v) {
                    acc += gv;
                }
            }
            if acc > 0.0 {
                g_next.insert(u, acc / nbrs.len() as f64);
            }
        }
        g = g_next;
    }

    Some(Propagation {
        forward: levels.pop().unwrap_or_default(),
        backward: g,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::{AttrType, JoinStep, SchemaBuilder, Value};

    /// The Fig. 3-style setup: R_r --fk--> R1 <--fk-- R2... We model the
    /// DBLP shape: Publish -> Papers <- Publish -> Authors.
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_relation(
            SchemaBuilder::new("Authors")
                .key("a", AttrType::Str)
                .build()
                .unwrap(),
        )
        .unwrap();
        c.add_relation(
            SchemaBuilder::new("Papers")
                .key("p", AttrType::Int)
                .build()
                .unwrap(),
        )
        .unwrap();
        c.add_relation(
            SchemaBuilder::new("Publish")
                .fk("a", AttrType::Str, "Authors")
                .fk("p", AttrType::Int, "Papers")
                .build()
                .unwrap(),
        )
        .unwrap();
        for a in ["w", "x", "y", "z"] {
            c.insert("Authors", [Value::str(a)].into()).unwrap();
        }
        for p in 1..=2 {
            c.insert("Papers", [Value::Int(p)].into()).unwrap();
        }
        // Paper 1 by (w, x, y); paper 2 by (w, z).
        for (a, p) in [("w", 1), ("x", 1), ("y", 1), ("w", 2), ("z", 2)] {
            c.insert("Publish", [Value::str(a), Value::Int(p)].into())
                .unwrap();
        }
        c.finalize(true).unwrap();
        c
    }

    fn coauthor_path(c: &Catalog) -> JoinPath {
        let publish = c.relation_id("Publish").unwrap();
        let fk_p = c
            .fk_edges()
            .iter()
            .find(|e| e.label == "Publish.p->Papers")
            .unwrap()
            .id;
        let fk_a = c
            .fk_edges()
            .iter()
            .find(|e| e.label == "Publish.a->Authors")
            .unwrap()
            .id;
        JoinPath::new(
            publish,
            vec![
                JoinStep::forward(fk_p),
                JoinStep::backward(fk_p),
                JoinStep::forward(fk_a),
            ],
            c,
        )
        .unwrap()
    }

    fn publish_tuple(c: &Catalog, idx: u32) -> TupleRef {
        TupleRef::new(c.relation_id("Publish").unwrap(), relstore::TupleId(idx))
    }

    fn author_node(c: &Catalog, g: &LinkGraph, name: &str) -> NodeId {
        let authors = c.relation_id("Authors").unwrap();
        let tid = c.relation(authors).by_key(&Value::str(name)).unwrap();
        g.node(TupleRef::new(authors, tid))
    }

    #[test]
    fn forward_mass_is_conserved() {
        let c = catalog();
        let g = LinkGraph::build(&c);
        let path = coauthor_path(&c);
        // Origin: (w, paper1) record.
        let prop = propagate(&g, &c, &path, publish_tuple(&c, 0));
        assert!((prop.clone().into_sets().0.total() - 1.0).abs() < 1e-12);
        assert_eq!(prop.neighbor_count(), 3); // w, x, y all author paper 1
        assert!(!prop.is_empty());
    }

    #[test]
    fn forward_probabilities_match_hand_computation() {
        let c = catalog();
        let g = LinkGraph::build(&c);
        let path = coauthor_path(&c);
        // From (w, paper1): forward to paper1 (prob 1), backward to its 3
        // records (1/3 each), forward to authors w, x, y (1/3 each).
        let prop = propagate(&g, &c, &path, publish_tuple(&c, 0));
        for name in ["w", "x", "y"] {
            let p = prop.forward[&author_node(&c, &g, name)];
            assert!((p - 1.0 / 3.0).abs() < 1e-12, "{name}: {p}");
        }
        assert!(!prop.forward.contains_key(&author_node(&c, &g, "z")));
    }

    #[test]
    fn backward_probabilities_match_hand_computation() {
        let c = catalog();
        let g = LinkGraph::build(&c);
        let path = coauthor_path(&c);
        let prop = propagate(&g, &c, &path, publish_tuple(&c, 0));
        // Reverse path from author x: Authors <- Publish -> Papers <- Publish.
        // x has 1 publish record; it maps to paper1 (prob 1), which has 3
        // records, so landing exactly on (w, paper1) has prob 1/3.
        let px = prop.backward[&author_node(&c, &g, "x")];
        assert!((px - 1.0 / 3.0).abs() < 1e-12);
        // From author w: 2 records (paper1, paper2); only the paper1 branch
        // can reach the origin record: 1/2 * 1/3 = 1/6.
        let pw = prop.backward[&author_node(&c, &g, "w")];
        assert!((pw - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn forward_and_backward_have_same_support() {
        let c = catalog();
        let g = LinkGraph::build(&c);
        let path = coauthor_path(&c);
        for idx in 0..5 {
            let prop = propagate(&g, &c, &path, publish_tuple(&c, idx));
            let mut fk: Vec<_> = prop.forward.keys().collect();
            let mut bk: Vec<_> = prop.backward.keys().collect();
            fk.sort();
            bk.sort();
            assert_eq!(fk, bk);
        }
    }

    #[test]
    fn probabilities_are_in_unit_interval() {
        let c = catalog();
        let g = LinkGraph::build(&c);
        let path = coauthor_path(&c);
        for idx in 0..5 {
            let prop = propagate(&g, &c, &path, publish_tuple(&c, idx));
            for (&n, &p) in &prop.forward {
                assert!(p > 0.0 && p <= 1.0 + 1e-12);
                let b = prop.backward[&n];
                assert!(b > 0.0 && b <= 1.0 + 1e-12);
            }
        }
    }

    #[test]
    fn single_step_path() {
        let c = catalog();
        let g = LinkGraph::build(&c);
        let publish = c.relation_id("Publish").unwrap();
        let fk_p = c
            .fk_edges()
            .iter()
            .find(|e| e.label == "Publish.p->Papers")
            .unwrap()
            .id;
        let path = JoinPath::new(publish, vec![JoinStep::forward(fk_p)], &c).unwrap();
        let prop = propagate(&g, &c, &path, publish_tuple(&c, 0));
        assert_eq!(prop.neighbor_count(), 1);
        let (&_paper, &p) = prop.forward.iter().next().unwrap();
        assert!((p - 1.0).abs() < 1e-12);
        // Reverse: paper1 has 3 records, so P(t -> r) = 1/3.
        let (_, &b) = prop.backward.iter().next().unwrap();
        assert!((b - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn dead_end_loses_mass() {
        let mut c = Catalog::new();
        c.add_relation(
            SchemaBuilder::new("B")
                .key("b", AttrType::Int)
                .build()
                .unwrap(),
        )
        .unwrap();
        c.add_relation(
            SchemaBuilder::new("A")
                .fk("b", AttrType::Int, "B")
                .build()
                .unwrap(),
        )
        .unwrap();
        c.insert("B", [Value::Int(1)].into()).unwrap();
        c.insert("A", [Value::Null].into()).unwrap(); // dangling-by-null
        c.finalize(true).unwrap();
        let g = LinkGraph::build(&c);
        let a = c.relation_id("A").unwrap();
        let fk = c.fk_edges()[0].id;
        let path = JoinPath::new(a, vec![JoinStep::forward(fk)], &c).unwrap();
        let prop = propagate(&g, &c, &path, TupleRef::new(a, relstore::TupleId(0)));
        assert!(prop.is_empty());
        assert_eq!(prop.clone().into_sets().0.total(), 0.0);
    }

    #[test]
    fn blocking_drops_mass_through_the_node_in_both_directions() {
        let c = catalog();
        let g = LinkGraph::build(&c);
        let path = coauthor_path(&c);
        let origin = publish_tuple(&c, 1); // (x, paper1)
                                           // Block author w: reachable via paper1's records.
        let blocked = vec![author_node(&c, &g, "w")];
        let prop = crate::propagate::propagate_blocked(&g, &c, &path, origin, &blocked);
        assert!(!prop.forward.contains_key(&blocked[0]));
        assert!(!prop.backward.contains_key(&blocked[0]));
        // Mass that would have reached w is *lost*, not redistributed:
        // x and y still carry exactly 1/3 each.
        for name in ["x", "y"] {
            let p = prop.forward[&author_node(&c, &g, name)];
            assert!((p - 1.0 / 3.0).abs() < 1e-12, "{name}: {p}");
        }
        assert!((prop.clone().into_sets().0.total() - 2.0 / 3.0).abs() < 1e-12);
        // Unblocked propagation is identical to propagate().
        let unblocked = crate::propagate::propagate_blocked(&g, &c, &path, origin, &[]);
        let plain = propagate(&g, &c, &path, origin);
        assert_eq!(unblocked.forward, plain.forward);
        assert_eq!(unblocked.backward, plain.backward);
    }

    #[test]
    fn blocking_an_intermediate_node_cuts_paths_through_it() {
        // Block paper1 itself: the coauthor path from (w, paper2) can only
        // flow through paper2, so it reaches w and z but none of paper1's
        // authors.
        let c = catalog();
        let g = LinkGraph::build(&c);
        let path = coauthor_path(&c);
        let papers = c.relation_id("Papers").unwrap();
        let p1 = TupleRef::new(papers, relstore::TupleId(0));
        let origin = publish_tuple(&c, 3); // (w, paper2)
        let prop = crate::propagate::propagate_blocked(&g, &c, &path, origin, &[g.node(p1)]);
        assert!(prop.forward.contains_key(&author_node(&c, &g, "z")));
        assert!(!prop.forward.contains_key(&author_node(&c, &g, "x")));
        assert!(!prop.forward.contains_key(&author_node(&c, &g, "y")));
    }

    #[test]
    fn guarded_propagation_stops_cleanly_or_matches_unguarded() {
        let c = catalog();
        let g = LinkGraph::build(&c);
        let path = coauthor_path(&c);
        let origin = publish_tuple(&c, 0);
        let full = propagate(&g, &c, &path, origin);
        // A permissive guard reproduces the unguarded result and is called
        // once per level in each direction.
        let mut calls = 0u32;
        let got = propagate_blocked_guarded(&g, &c, &path, origin, &[], &mut |u| {
            calls += 1;
            assert!(u > 0);
            true
        })
        .unwrap();
        assert_eq!(got.forward, full.forward);
        assert_eq!(got.backward, full.backward);
        assert_eq!(calls as usize, 2 * path.len());
        // Tripping the guard at every possible level returns None, never a
        // partial map.
        for stop_at in 1..=(2 * path.len() as u32) {
            let mut n = 0u32;
            let out = propagate_blocked_guarded(&g, &c, &path, origin, &[], &mut |_| {
                n += 1;
                n < stop_at
            });
            assert!(out.is_none(), "stop_at {stop_at} returned a partial result");
        }
    }

    #[test]
    fn empty_path_returns_origin_with_prob_one() {
        let c = catalog();
        let g = LinkGraph::build(&c);
        let publish = c.relation_id("Publish").unwrap();
        let path = JoinPath::empty(publish);
        let origin = publish_tuple(&c, 2);
        let prop = propagate(&g, &c, &path, origin);
        assert_eq!(prop.neighbor_count(), 1);
        assert_eq!(prop.forward[&g.node(origin)], 1.0);
        assert_eq!(prop.backward[&g.node(origin)], 1.0);
    }
}
