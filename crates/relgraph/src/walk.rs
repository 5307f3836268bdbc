//! Random-walk probabilities between references (paper §2.4).
//!
//! The linkage strength between two references along a join path `P` is
//! the probability of walking from one to the other: out along `P` and
//! back along its reverse. Because [`propagate()`](crate::propagate()) already
//! yields, for each reference `r`, both `Prob_P(r → t)` and
//! `Prob_P(t → r)` over the path's end relation, the walk probability is a
//! simple combination — the "combine such probabilities" optimization the
//! paper describes instead of walking long concatenated paths:
//!
//! ```text
//! Walk_P(r1 → r2) = Σ_t  Prob_P(r1 → t) · Prob_P(t → r2)
//! ```
//!
//! We report the symmetrized value `(Walk_P(r1→r2) + Walk_P(r2→r1)) / 2`.

use crate::neighbors::WeightedSet;

/// Directed walk probability `Walk_P(a → b)`: leave `a` forward along the
/// path, return to `b` along the reverse path. `forward` is `a`'s
/// `Prob_P(a → t)` set and `backward` is `b`'s `Prob_P(t → b)` set.
///
/// A merge-join of the two sorted sets: the cross terms are summed in
/// ascending node order (not hash-map iteration order), because float
/// addition is not associative and a hash-ordered sum would let insertion
/// history perturb low-order bits and break the bit-identical-at-any-
/// thread-count guarantee (lint D107). The result is `-0.0` when either
/// set is empty and `+0.0` plus the sum otherwise — the zero signs the
/// weighted path sums downstream depend on.
// O(|A|+|B|) per-pair leaf; DistinctMerger charges the budget per pair
pub fn directed_walk(forward: &WeightedSet, backward: &WeightedSet) -> f64 {
    if forward.is_empty() || backward.is_empty() {
        return -0.0;
    }
    let (fw, bw) = (forward.pairs(), backward.pairs());
    let mut sum = 0.0;
    let (mut i, mut j) = (0, 0);
    while i < fw.len() && j < bw.len() {
        match fw[i].0.cmp(&bw[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                sum += fw[i].1 * bw[j].1;
                i += 1;
                j += 1;
            }
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{LinkGraph, NodeId};
    use crate::propagate::propagate;
    use relstore::{
        AttrType, Catalog, JoinPath, JoinStep, SchemaBuilder, TupleId, TupleRef, Value,
    };

    /// One reference's `(forward, backward)` sets along a path.
    type Sets = (WeightedSet, WeightedSet);

    fn prop(fwd: &[(u32, f64)], bwd: &[(u32, f64)]) -> Sets {
        let set = |pairs: &[(u32, f64)]| pairs.iter().map(|&(n, w)| (NodeId(n), w)).collect();
        (set(fwd), set(bwd))
    }

    /// The symmetrized walk probability `(Walk(a→b) + Walk(b→a)) / 2`.
    fn walk_probability(a: &Sets, b: &Sets) -> f64 {
        0.5 * (directed_walk(&a.0, &b.1) + directed_walk(&b.0, &a.1))
    }

    #[test]
    fn directed_walk_hand_computed() {
        let a = prop(&[(1, 0.5), (2, 0.5)], &[(1, 0.2), (2, 0.3)]);
        let b = prop(&[(2, 1.0)], &[(2, 0.4)]);
        // a→b: f_a(2) * b_b(2) = 0.5 * 0.4 = 0.2 (node 1 not in b's support).
        assert!((directed_walk(&a.0, &b.1) - 0.2).abs() < 1e-12);
        // b→a: f_b(2) * b_a(2) = 1.0 * 0.3 = 0.3.
        assert!((directed_walk(&b.0, &a.1) - 0.3).abs() < 1e-12);
        assert!((walk_probability(&a, &b) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn disjoint_supports_walk_zero() {
        let a = prop(&[(1, 1.0)], &[(1, 1.0)]);
        let b = prop(&[(2, 1.0)], &[(2, 1.0)]);
        assert_eq!(walk_probability(&a, &b), 0.0);
    }

    /// The zero's sign records which case produced it: `-0.0` when either
    /// side is empty, `+0.0` when both are non-empty but share no node.
    #[test]
    fn zero_walks_carry_the_sign_of_their_cause() {
        let (a, b) = (
            prop(&[(1, 1.0)], &[(1, 1.0)]),
            prop(&[(2, 1.0)], &[(2, 1.0)]),
        );
        let empty = WeightedSet::new();
        assert_eq!(directed_walk(&a.0, &b.1).to_bits(), 0.0f64.to_bits());
        assert_eq!(directed_walk(&a.0, &empty).to_bits(), (-0.0f64).to_bits());
        assert_eq!(directed_walk(&empty, &b.1).to_bits(), (-0.0f64).to_bits());
        assert_eq!(directed_walk(&empty, &empty).to_bits(), (-0.0f64).to_bits());
        assert_eq!(directed_walk(&a.0, &a.1).to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn walk_probability_is_symmetric() {
        let a = prop(&[(1, 0.4), (3, 0.6)], &[(1, 0.5), (3, 0.1)]);
        let b = prop(&[(1, 0.9), (2, 0.1)], &[(1, 0.7), (2, 0.2)]);
        assert!((walk_probability(&a, &b) - walk_probability(&b, &a)).abs() < 1e-15);
    }

    /// End-to-end: walk probabilities computed from real propagations over
    /// a shared-paper graph behave as the paper intends — references that
    /// share a paper have a much higher walk probability than references
    /// merely sharing a venue-sized neighborhood.
    #[test]
    fn end_to_end_shared_paper_beats_unrelated() {
        let mut c = Catalog::new();
        c.add_relation(
            SchemaBuilder::new("Papers")
                .key("p", AttrType::Int)
                .build()
                .unwrap(),
        )
        .unwrap();
        c.add_relation(
            SchemaBuilder::new("Publish")
                .fk("p", AttrType::Int, "Papers")
                .build()
                .unwrap(),
        )
        .unwrap();
        for p in 1..=2 {
            c.insert("Papers", [Value::Int(p)].into()).unwrap();
        }
        // Records 0,1 share paper 1; record 2 is alone on paper 2.
        for p in [1, 1, 2] {
            c.insert("Publish", [Value::Int(p)].into()).unwrap();
        }
        c.finalize(true).unwrap();
        let g = LinkGraph::build(&c);
        let publish = c.relation_id("Publish").unwrap();
        let fk = c.fk_edges()[0].id;
        let path = JoinPath::new(publish, vec![JoinStep::forward(fk)], &c).unwrap();
        let p0 = propagate(&g, &c, &path, TupleRef::new(publish, TupleId(0))).into_sets();
        let p1 = propagate(&g, &c, &path, TupleRef::new(publish, TupleId(1))).into_sets();
        let p2 = propagate(&g, &c, &path, TupleRef::new(publish, TupleId(2))).into_sets();
        let same = walk_probability(&p0, &p1);
        let diff = walk_probability(&p0, &p2);
        // Shared paper: 1 * 1/2 both ways = 0.5. Unrelated: 0.
        assert!((same - 0.5).abs() < 1e-12);
        assert_eq!(diff, 0.0);
    }

    #[test]
    fn self_walk_reflects_fanout() {
        // A reference's walk probability to itself along a path equals the
        // chance of returning to itself — 1/|paper records|.
        let mut c = Catalog::new();
        c.add_relation(
            SchemaBuilder::new("Papers")
                .key("p", AttrType::Int)
                .build()
                .unwrap(),
        )
        .unwrap();
        c.add_relation(
            SchemaBuilder::new("Publish")
                .fk("p", AttrType::Int, "Papers")
                .build()
                .unwrap(),
        )
        .unwrap();
        c.insert("Papers", [Value::Int(1)].into()).unwrap();
        for _ in 0..4 {
            c.insert("Publish", [Value::Int(1)].into()).unwrap();
        }
        c.finalize(true).unwrap();
        let g = LinkGraph::build(&c);
        let publish = c.relation_id("Publish").unwrap();
        let fk = c.fk_edges()[0].id;
        let path = JoinPath::new(publish, vec![JoinStep::forward(fk)], &c).unwrap();
        let p = propagate(&g, &c, &path, TupleRef::new(publish, TupleId(0))).into_sets();
        assert!((walk_probability(&p, &p) - 0.25).abs() < 1e-12);
    }
}
