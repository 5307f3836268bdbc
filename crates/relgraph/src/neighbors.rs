//! Weighted neighbor-tuple sets and the weighted Jaccard resemblance.
//!
//! The forward probabilities of a [`Propagation`](crate::Propagation) form
//! a weighted set of neighbor tuples; Definition 2 of the paper compares
//! two such sets with a connection-strength-weighted Jaccard coefficient:
//!
//! ```text
//!                Σ_{t ∈ A ∩ B} min(w_A(t), w_B(t))
//! Resem(A, B) = -----------------------------------
//!                Σ_{t ∈ A ∪ B} max(w_A(t), w_B(t))
//! ```

use crate::graph::NodeId;
use relstore::FxHashMap;

/// A weighted set of nodes (neighbor tuples with connection strengths).
///
/// Stored as `(node, weight)` pairs sorted by node id with strictly
/// positive weights. The sorted representation makes every float
/// accumulation over the set (totals, resemblance numerators) run in a
/// fixed node order regardless of how the set was built — hash-map
/// insertion history can never perturb low-order bits (lint D107) — and
/// turns intersection into a cache-friendly merge-join.
#[derive(Debug, Clone, Default)]
pub struct WeightedSet {
    weights: Vec<(NodeId, f64)>,
}

/// Debug check for the representation invariant: strictly ascending node
/// ids (which also rules out duplicates).
fn is_sorted(w: &[(NodeId, f64)]) -> bool {
    w.iter().zip(w.iter().skip(1)).all(|(x, y)| x.0 < y.0)
}

impl WeightedSet {
    /// An empty set.
    pub fn new() -> Self {
        WeightedSet::default()
    }

    /// Build from a map of node weights; non-positive weights are dropped.
    pub fn from_map(map: FxHashMap<NodeId, f64>) -> Self {
        let mut w: Vec<(NodeId, f64)> = map.into_iter().filter(|&(_, v)| v > 0.0).collect();
        w.sort_unstable_by_key(|&(n, _)| n);
        WeightedSet { weights: w }
    }

    /// Build from `(node, weight)` pairs, summing duplicates (in input
    /// order, so the result is a pure function of the input sequence).
    // bounded per-set construction; callers charge the budget per profile/pair
    pub fn from_pairs(pairs: impl IntoIterator<Item = (NodeId, f64)>) -> Self {
        let mut w: Vec<(NodeId, f64)> = pairs.into_iter().collect();
        w.sort_by_key(|&(n, _)| n); // stable: duplicate runs keep input order
        let mut out: Vec<(NodeId, f64)> = Vec::with_capacity(w.len());
        for (n, v) in w {
            match out.last_mut() {
                Some((m, acc)) if *m == n => *acc += v,
                _ => out.push((n, v)),
            }
        }
        out.retain(|&(_, v)| v > 0.0);
        WeightedSet { weights: out }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Weight of a node (0 when absent).
    pub fn weight(&self, n: NodeId) -> f64 {
        self.weights
            .binary_search_by_key(&n, |&(m, _)| m)
            .map(|i| self.weights[i].1)
            .unwrap_or(0.0)
    }

    /// Iterate `(node, weight)` pairs in ascending node order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.weights.iter().copied()
    }

    /// The `(node, weight)` pairs in ascending node order.
    pub(crate) fn pairs(&self) -> &[(NodeId, f64)] {
        &self.weights
    }

    /// Sum of all weights, accumulated in node order.
    pub fn total(&self) -> f64 {
        self.weights.iter().map(|&(_, w)| w).sum()
    }

    /// Scale every weight by `factor` (used when averaging cluster members).
    // O(len) leaf over one set; callers charge the budget per merge
    pub fn scale(&mut self, factor: f64) {
        for w in &mut self.weights {
            w.1 *= factor;
        }
    }

    /// Merge another set into this one, summing weights (merge-join of the
    /// two sorted pair lists, so the result is order-independent).
    // O(len) leaf over two sets; callers charge the budget per merge
    pub fn merge(&mut self, other: &WeightedSet) {
        // The merge-join below is only correct on sorted inputs; every
        // constructor sorts, so a violation here means a corrupted set.
        debug_assert!(is_sorted(&self.weights), "merge target not sorted");
        debug_assert!(is_sorted(&other.weights), "merge source not sorted");
        if other.is_empty() {
            return;
        }
        let a = std::mem::take(&mut self.weights);
        let b = &other.weights;
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push((a[i].0, a[i].1 + b[j].1));
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        self.weights = out;
    }

    /// Weighted Jaccard resemblance of Definition 2.
    ///
    /// Returns 0 when either set is empty (no shared context — the paper's
    /// convention for references with no neighbors along a path).
    ///
    /// ```
    /// use relgraph::{NodeId, WeightedSet};
    /// let a: WeightedSet = [(NodeId(1), 0.5), (NodeId(2), 0.5)].into_iter().collect();
    /// let b: WeightedSet = [(NodeId(2), 0.25), (NodeId(3), 0.75)].into_iter().collect();
    /// // Σ min over ∩ = 0.25; Σ max over ∪ = 0.5 + 0.5 + 0.75 = 1.75.
    /// assert!((a.resemblance(&b) - 0.25 / 1.75).abs() < 1e-12);
    /// ```
    // O(|A|+|B|) per-pair leaf; DistinctMerger charges the budget per pair
    pub fn resemblance(&self, other: &WeightedSet) -> f64 {
        debug_assert!(is_sorted(&self.weights), "resemblance lhs not sorted");
        debug_assert!(is_sorted(&other.weights), "resemblance rhs not sorted");
        if self.is_empty() || other.is_empty() {
            return 0.0;
        }
        // Merge-join of the two sorted pair lists: Σ min accumulates in
        // ascending node order, bit-identical however the sets were built.
        let (aw, bw) = (&self.weights, &other.weights);
        let mut num = 0.0; // Σ min over intersection
        let (mut i, mut j) = (0, 0);
        while i < aw.len() && j < bw.len() {
            match aw[i].0.cmp(&bw[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    num += aw[i].1.min(bw[j].1);
                    i += 1;
                    j += 1;
                }
            }
        }
        // Σ max over the union = total_A + total_B − Σ min over the
        // intersection (min + max = w_A + w_B pointwise on the intersection).
        let den = self.total() + other.total() - num;
        debug_assert!(den >= num - 1e-12);
        if den <= 0.0 {
            0.0
        } else {
            num / den
        }
    }

    /// Unweighted Jaccard (|A ∩ B| / |A ∪ B|) — the ablation baseline that
    /// ignores connection strengths.
    // O(|A|+|B|) per-pair leaf; DistinctMerger charges the budget per pair
    pub fn jaccard_unweighted(&self, other: &WeightedSet) -> f64 {
        if self.is_empty() || other.is_empty() {
            return 0.0;
        }
        let (aw, bw) = (&self.weights, &other.weights);
        let mut inter = 0usize;
        let (mut i, mut j) = (0, 0);
        while i < aw.len() && j < bw.len() {
            match aw[i].0.cmp(&bw[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    inter += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        let union = self.len() + other.len() - inter;
        let j = inter as f64 / union as f64;
        debug_assert!((0.0..=1.0).contains(&j), "jaccard out of range: {j}");
        j
    }
}

impl FromIterator<(NodeId, f64)> for WeightedSet {
    fn from_iter<T: IntoIterator<Item = (NodeId, f64)>>(iter: T) -> Self {
        Self::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn set(pairs: &[(u32, f64)]) -> WeightedSet {
        pairs.iter().map(|&(n, w)| (NodeId(n), w)).collect()
    }

    #[test]
    fn construction_drops_nonpositive_and_sums_duplicates() {
        let s = set(&[(1, 0.5), (1, 0.25), (2, 0.0), (3, -1.0)]);
        assert_eq!(s.len(), 1);
        assert!((s.weight(NodeId(1)) - 0.75).abs() < 1e-12);
        assert_eq!(s.weight(NodeId(2)), 0.0);
    }

    #[test]
    fn identical_sets_have_resemblance_one() {
        let s = set(&[(1, 0.3), (2, 0.7)]);
        assert!((s.resemblance(&s) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_sets_have_resemblance_zero() {
        let a = set(&[(1, 0.5)]);
        let b = set(&[(2, 0.5)]);
        assert_eq!(a.resemblance(&b), 0.0);
    }

    #[test]
    fn empty_set_convention() {
        let a = WeightedSet::new();
        let b = set(&[(1, 1.0)]);
        assert_eq!(a.resemblance(&b), 0.0);
        assert_eq!(b.resemblance(&a), 0.0);
        assert_eq!(a.resemblance(&a), 0.0);
        assert_eq!(a.jaccard_unweighted(&b), 0.0);
        assert!(a.is_empty());
    }

    #[test]
    fn hand_computed_resemblance() {
        // A = {1: .5, 2: .5}, B = {2: .25, 3: .75}
        // Σ min over ∩ = min(.5,.25) = .25
        // Σ max over ∪ = .5 (1) + max(.5,.25)=.5 (2) + .75 (3) = 1.75
        let a = set(&[(1, 0.5), (2, 0.5)]);
        let b = set(&[(2, 0.25), (3, 0.75)]);
        let r = a.resemblance(&b);
        assert!((r - 0.25 / 1.75).abs() < 1e-12, "{r}");
        // Symmetric.
        assert!((b.resemblance(&a) - r).abs() < 1e-12);
    }

    #[test]
    fn unweighted_jaccard_hand_computed() {
        let a = set(&[(1, 0.9), (2, 0.1)]);
        let b = set(&[(2, 0.5), (3, 0.5)]);
        assert!((a.jaccard_unweighted(&b) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_and_scale() {
        let mut a = set(&[(1, 0.5)]);
        let b = set(&[(1, 0.5), (2, 1.0)]);
        a.merge(&b);
        assert!((a.weight(NodeId(1)) - 1.0).abs() < 1e-12);
        assert!((a.total() - 2.0).abs() < 1e-12);
        a.scale(0.5);
        assert!((a.total() - 1.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn resemblance_is_symmetric_and_bounded(
            xs in proptest::collection::vec((0u32..20, 0.01f64..1.0), 0..15),
            ys in proptest::collection::vec((0u32..20, 0.01f64..1.0), 0..15),
        ) {
            let a = set(&xs);
            let b = set(&ys);
            let r1 = a.resemblance(&b);
            let r2 = b.resemblance(&a);
            prop_assert!((r1 - r2).abs() < 1e-9);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&r1));
        }

        #[test]
        fn self_resemblance_is_one_for_nonempty(
            xs in proptest::collection::vec((0u32..20, 0.01f64..1.0), 1..15),
        ) {
            let a = set(&xs);
            prop_assert!((a.resemblance(&a) - 1.0).abs() < 1e-9);
        }

        #[test]
        fn resemblance_bounded_for_arbitrary_weights(
            xs in proptest::collection::vec((0u32..64, 1e-12f64..1e12), 0..40),
            ys in proptest::collection::vec((0u32..64, 1e-12f64..1e12), 0..40),
        ) {
            // Wildly mixed magnitudes (12 orders apart) must still land in
            // [0,1]: the D102 contract the clustering thresholds rely on.
            let a = set(&xs);
            let b = set(&ys);
            let r = a.resemblance(&b);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&r), "{r}");
            prop_assert!(r.is_finite());
        }

        #[test]
        fn unweighted_bounded_and_symmetric(
            xs in proptest::collection::vec((0u32..20, 0.01f64..1.0), 0..15),
            ys in proptest::collection::vec((0u32..20, 0.01f64..1.0), 0..15),
        ) {
            let a = set(&xs);
            let b = set(&ys);
            let j = a.jaccard_unweighted(&b);
            prop_assert!((j - b.jaccard_unweighted(&a)).abs() < 1e-12);
            prop_assert!((0.0..=1.0).contains(&j));
        }
    }
}
