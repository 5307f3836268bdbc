//! Clustering references with the composite similarity measure (paper §4).
//!
//! Cluster similarity combines, by geometric mean:
//!
//! * **average set resemblance** — Average-Link over the weighted per-pair
//!   resemblances (robust to individual misleading linkages); and
//! * **collective random walk probability** — the probability of walking
//!   from one cluster to the other, treating each cluster as a single
//!   object (robust to an author's weakly linked collaboration partitions).
//!
//! Both are maintained *incrementally* (§4.2): the tables hold pairwise
//! **sums**, so the values for a merged cluster are the sums of its
//! children's values — O(live clusters) per merge instead of a full
//! recomputation.

use crate::config::{CompositeMode, MeasureMode};
use crate::features::{weighted_pair, Profile};
use crate::learn::PathWeights;
use cluster::Merger;
use relgraph::{NodeId, WeightedSet};
use std::borrow::Borrow;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};

/// Similarity kernel-unit accounting of one matrix build.
///
/// One *unit* is one (unordered reference pair, join path) evaluation,
/// covering that pair's set resemblance and both directed walks along the
/// path — so `total = pairs × paths`. A unit is **pruned** when the
/// pair's sets share no node along the path, so the indexed pass never
/// touched it (all three values are the exact kernels' zeros), **cached**
/// when its values were copied from a previous build's tables
/// (incremental resolution), and **exact** otherwise. `pruned + exact +
/// cached == total` holds by construction; `cached` is zero for every cold
/// matrix build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PairCounters {
    /// Kernel units scheduled (`pairs × paths`).
    pub total: u64,
    /// Units whose sets share no node (never evaluated).
    pub pruned: u64,
    /// Units with at least one shared node (evaluated).
    pub exact: u64,
    /// Units copied from cached tables of a previous build.
    pub cached: u64,
    /// Neighbor sets (forward and backward, per reference and path) the
    /// indexed pass indexed: `2 · refs · paths` on a cold build, 0 on a
    /// table-cache hit.
    pub interned: u64,
}

/// One row chunk's upper-triangle cells `(resemblance, walk i→j, walk
/// j→i)` in row-major order, plus the exact kernel units they took.
type ChunkValues = (Vec<(f64, f64, f64)>, u64);

/// One direction (forward or backward) of every reference's sets along
/// one join path, inverted: per node of the path's dictionary, the
/// references whose set holds it, ascending, with their weights.
struct Postings {
    /// Node slot `s`'s postings are `refs[heads[s]..heads[s + 1]]`, with
    /// weights at the same positions of `weights`.
    heads: Vec<u32>,
    refs: Vec<u32>,
    weights: Vec<f64>,
}

impl Postings {
    /// Invert `sets` (one per reference) over the sorted node dictionary
    /// `nodes`, which holds every member of every set.
    fn build<'a>(sets: impl Iterator<Item = &'a WeightedSet> + Clone, nodes: &[NodeId]) -> Self {
        let slot = |t: NodeId| nodes.partition_point(|&x| x < t);
        let mut heads = vec![0u32; nodes.len() + 1];
        for set in sets.clone() {
            for (t, _) in set.iter() {
                heads[slot(t) + 1] += 1;
            }
        }
        for s in 0..nodes.len() {
            heads[s + 1] += heads[s];
        }
        // Filling in reference order leaves each node's postings sorted
        // by reference.
        let mut fill = heads.clone();
        let len = heads[nodes.len()] as usize;
        let mut refs = vec![0u32; len];
        let mut weights = vec![0.0; len];
        for (i, set) in sets.enumerate() {
            for (t, w) in set.iter() {
                let at = &mut fill[slot(t)];
                refs[*at as usize] = i as u32;
                weights[*at as usize] = w;
                *at += 1;
            }
        }
        Postings {
            heads,
            refs,
            weights,
        }
    }

    /// The postings of node slot `s` from references after `i`:
    /// `(refs, weights)`.
    fn after(&self, s: usize, i: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.heads[s] as usize, self.heads[s + 1] as usize);
        let start = lo + self.refs[lo..hi].partition_point(|&j| j as usize <= i);
        (&self.refs[start..hi], &self.weights[start..hi])
    }
}

/// One join path's inverted index over a name's profiles.
struct PathIndex {
    /// Every node of every forward and backward set along the path,
    /// ascending: a node's position is its slot in the postings.
    nodes: Vec<NodeId>,
    fwd: Postings,
    bwd: Postings,
    /// Forward-set total per reference (the resemblance denominator).
    totals: Vec<f64>,
}

impl PathIndex {
    fn build<P: Borrow<Profile>>(profiles: &[P], p: usize) -> Self {
        let mut nodes: Vec<NodeId> = profiles
            .iter()
            .flat_map(|x| {
                let x = x.borrow();
                x.sets[p].iter().chain(x.back[p].iter()).map(|(t, _)| t)
            })
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.shrink_to_fit();
        let fwd = Postings::build(profiles.iter().map(|x| &x.borrow().sets[p]), &nodes);
        let bwd = Postings::build(profiles.iter().map(|x| &x.borrow().back[p]), &nodes);
        PathIndex {
            nodes,
            fwd,
            bwd,
            totals: profiles
                .iter()
                .map(|x| x.borrow().sets[p].total())
                .collect(),
        }
    }

    /// `set`'s members as `(slot, weight)`, in ascending node order. The
    /// members ascend, so each search resumes where the last one ended.
    fn slots<'a>(&'a self, set: &'a WeightedSet) -> impl Iterator<Item = (usize, f64)> + 'a {
        let mut lo = 0;
        set.iter().map(move |(t, w)| {
            lo += self.nodes[lo..].partition_point(|&x| x < t);
            (lo, w)
        })
    }
}

/// Per-column accumulators of the indexed pass, reused for every row and
/// path of a chunk: zero outside the row being filled.
struct RowScratch {
    /// Σ min(wᵢ, wⱼ) over shared forward nodes.
    num: Vec<f64>,
    /// Σ fwdᵢ·bwdⱼ (walk i → j).
    out: Vec<f64>,
    /// Σ fwdⱼ·bwdᵢ (walk j → i).
    back: Vec<f64>,
    /// Whether the (pair, path) unit shared any node.
    hit: Vec<bool>,
}

impl RowScratch {
    fn new(n: usize) -> Self {
        RowScratch {
            num: vec![0.0; n],
            out: vec![0.0; n],
            back: vec![0.0; n],
            hit: vec![false; n],
        }
    }

    /// Append row `i`'s upper-triangle cells (`j > i`) to `cells` and
    /// return the exact units they took.
    ///
    /// Per path, the walks over `i`'s members visit nodes in ascending
    /// order, so every `(i, j)` sum accumulates its terms in the order of
    /// the merge-join kernels ([`WeightedSet::resemblance`],
    /// [`relgraph::directed_walk`]); the path values then fold into the
    /// cells in path order from `-0.0`, as [`weighted_pair`] does. A unit
    /// no posting reached gets the kernels' zeros: `+0.0` resemblance, and
    /// a walk of `-0.0` when a side is empty, `+0.0` otherwise. So every
    /// cell carries the bits of the exact build, zero signs included.
    // O(row postings + paths · n) per row; the chunk charged the guard for its pairs
    fn fill_row<P: Borrow<Profile>>(
        &mut self,
        profiles: &[P],
        indexes: &[PathIndex],
        weights: &PathWeights,
        i: usize,
        cells: &mut Vec<(f64, f64, f64)>,
    ) -> u64 {
        let n = self.num.len();
        let base = cells.len();
        cells.resize(base + (n - i - 1), (-0.0, -0.0, -0.0));
        let row = &mut cells[base..];
        let pi = profiles[i].borrow();
        let mut exact = 0u64;
        for (p, ix) in indexes.iter().enumerate() {
            for (slot, w) in ix.slots(&pi.sets[p]) {
                let (js, ws) = ix.fwd.after(slot, i);
                for (&j, &wj) in js.iter().zip(ws) {
                    self.num[j as usize] += w.min(wj);
                    self.hit[j as usize] = true;
                }
                let (js, bs) = ix.bwd.after(slot, i);
                for (&j, &bj) in js.iter().zip(bs) {
                    self.out[j as usize] += w * bj;
                    self.hit[j as usize] = true;
                }
            }
            for (slot, b) in ix.slots(&pi.back[p]) {
                let (js, fs) = ix.fwd.after(slot, i);
                for (&j, &fj) in js.iter().zip(fs) {
                    self.back[j as usize] += fj * b;
                    self.hit[j as usize] = true;
                }
            }
            let (wr, ww) = (weights.resem[p], weights.walk[p]);
            let (fwd_i_empty, bwd_i_empty) = (pi.sets[p].is_empty(), pi.back[p].is_empty());
            for (cell, j) in row.iter_mut().zip(i + 1..n) {
                let pj = profiles[j].borrow();
                let num = std::mem::take(&mut self.num[j]);
                let out = std::mem::take(&mut self.out[j]);
                let back = std::mem::take(&mut self.back[j]);
                // `num > 0` exactly when the forward sets share a node.
                let r = if num > 0.0 {
                    let den = ix.totals[i] + ix.totals[j] - num;
                    if den <= 0.0 {
                        0.0
                    } else {
                        num / den
                    }
                } else {
                    0.0
                };
                let out = if fwd_i_empty || pj.back[p].is_empty() {
                    -0.0
                } else {
                    out
                };
                let back = if bwd_i_empty || pj.sets[p].is_empty() {
                    -0.0
                } else {
                    back
                };
                cell.0 += r * wr;
                cell.1 += out * ww;
                cell.2 += back * ww;
                if std::mem::take(&mut self.hit[j]) {
                    exact += 1;
                }
            }
        }
        exact
    }
}

/// A [`Merger`] implementing DISTINCT's composite cluster similarity.
#[derive(Debug, Clone)]
pub struct DistinctMerger {
    /// `resem[a][b]` = Σ over member pairs of weighted set resemblance
    /// (symmetric).
    resem: Vec<Vec<f64>>,
    /// `dwalk[a][b]` = Σ over member pairs of weighted *directed* walk
    /// probability from a member of `a` to a member of `b` (asymmetric).
    dwalk: Vec<Vec<f64>>,
    /// Cluster sizes (leaves = 1).
    sizes: Vec<usize>,
    measure: MeasureMode,
    composite: CompositeMode,
    n: usize,
}

impl DistinctMerger {
    /// Build the pairwise tables pair by pair with the exact kernel
    /// ([`weighted_pair`]), sequentially. This is the differential
    /// reference: [`DistinctMerger::from_profiles_exec`] must build the
    /// same tables bit for bit, and the tests compare the two.
    pub fn from_profiles<P: Borrow<Profile>>(
        profiles: &[P],
        weights: &PathWeights,
        measure: MeasureMode,
        composite: CompositeMode,
    ) -> Self {
        let n = profiles.len();
        let mut resem = vec![vec![0.0; n]; n];
        let mut dwalk = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in i + 1..n {
                let (r, dij, dji) =
                    weighted_pair(profiles[i].borrow(), profiles[j].borrow(), weights);
                resem[i][j] = r;
                resem[j][i] = r;
                dwalk[i][j] = dij;
                dwalk[j][i] = dji;
            }
        }
        DistinctMerger {
            resem,
            dwalk,
            sizes: vec![1; n],
            measure,
            composite,
            n,
        }
    }

    /// Build the pairwise tables **in parallel** — the similarity-matrix
    /// hot path of resolution. It first indexes, per join path, every
    /// reference's forward and backward set by node, then fills each row
    /// `i` of the upper triangle in one pass over the postings of `i`'s
    /// nodes (see `RowScratch::fill_row`), so only units whose sets share
    /// a node are evaluated, with the exact kernels' accumulation order.
    /// Rows fan out in chunks and commit in row order, so the tables are
    /// bit-identical to [`DistinctMerger::from_profiles`] at any thread
    /// count.
    ///
    /// `guard` is charged with the set count of each path index and the
    /// pair count of each row chunk; if it trips, pending work is
    /// abandoned and `None` is returned — a partially filled matrix would
    /// silently bias the clustering toward whichever pairs happened to be
    /// computed. The [`exec::ParStats`] records how far the stage got
    /// either way (tasks are pairs), and the returned [`PairCounters`]
    /// record how many kernel units were pruned (zeroed on an interrupted
    /// build, like the tables).
    pub fn from_profiles_exec<P>(
        profiles: &[P],
        weights: &PathWeights,
        measure: MeasureMode,
        composite: CompositeMode,
        executor: &exec::Executor,
        guard: &(dyn Fn(u64) -> bool + Sync),
    ) -> (Option<Self>, exec::ParStats, PairCounters)
    where
        P: Borrow<Profile> + Sync,
    {
        let n = profiles.len();
        let n_paths = profiles.first().map_or(0, |p| p.borrow().path_count());
        let n_pairs = exec::triangle_count(n);
        let unit_total = (n_pairs * n_paths) as u64;
        let tripped = AtomicBool::new(false);

        // The indexed pass needs every path's index before any row runs.
        let path_idx: Vec<usize> = (0..n_paths).collect();
        let (built, index_stats) = executor.par_map_guarded(
            &path_idx,
            |_, &p| {
                if guard(2 * n as u64) {
                    Some(PathIndex::build(profiles, p))
                } else {
                    tripped.store(true, Ordering::Relaxed);
                    None
                }
            },
            || tripped.load(Ordering::Relaxed),
        );
        let Some(indexes) = built.into_iter().collect::<Option<Vec<PathIndex>>>() else {
            let stats = exec::ParStats {
                tasks: n_pairs,
                completed: 0,
                stopped: true,
                ..index_stats
            };
            return (None, stats, PairCounters::default());
        };

        let (chunks, mut stats) = executor.par_chunks(
            n,
            |rows: Range<usize>| -> Option<ChunkValues> {
                let pairs: usize = rows.clone().map(|i| n - i - 1).sum();
                if !guard(pairs as u64) {
                    tripped.store(true, Ordering::Relaxed);
                    return None;
                }
                let mut cells = Vec::with_capacity(pairs);
                let mut exact_units = 0u64;
                // distinct-lint: scratch(per row chunk: every row's fill leaves the accumulators zeroed for the next row, and the chunk drops them)
                let mut scratch = RowScratch::new(n);
                for i in rows {
                    exact_units += scratch.fill_row(profiles, &indexes, weights, i, &mut cells);
                }
                Some((cells, exact_units))
            },
            || tripped.load(Ordering::Relaxed),
        );
        // One ParStats for the whole stage, in pairs (the unit existing
        // probes assert on), wall covering both phases.
        stats.tasks = n_pairs;
        stats.completed = chunks
            .iter()
            .filter_map(|(_, v)| v.as_ref())
            .map(|(cells, _)| cells.len())
            .sum();
        stats.stopped = stats.stopped || tripped.load(Ordering::Relaxed);
        stats.threads = stats.threads.max(index_stats.threads);
        stats.wall += index_stats.wall;
        if stats.stopped {
            return (None, stats, PairCounters::default());
        }
        let mut exact_units = 0u64;
        let mut resem = vec![vec![0.0; n]; n];
        let mut dwalk = vec![vec![0.0; n]; n];
        for (rows, vals) in chunks {
            // distinct-lint: allow(D101, reason="stats.stopped was checked above; a complete run leaves every chunk Some by the exec pool contract")
            let (cells, chunk_exact) = vals.expect("complete run has no refused chunks");
            exact_units += chunk_exact;
            let mut cells = cells.into_iter();
            for i in rows {
                for ((r, dij, dji), j) in cells.by_ref().take(n - i - 1).zip(i + 1..n) {
                    resem[i][j] = r;
                    resem[j][i] = r;
                    dwalk[i][j] = dij;
                    dwalk[j][i] = dji;
                }
            }
        }
        let counters = PairCounters {
            total: unit_total,
            pruned: unit_total - exact_units,
            exact: exact_units,
            cached: 0,
            interned: (2 * n * n_paths) as u64,
        };
        (
            Some(DistinctMerger {
                resem,
                dwalk,
                sizes: vec![1; n],
                measure,
                composite,
                n,
            }),
            stats,
            counters,
        )
    }

    /// Number of leaf references.
    pub fn items(&self) -> usize {
        self.n
    }

    /// The leaf pairwise tables `(resemblance, directed walk)`, for the
    /// run manager's similarity-stage checkpoint. Only meaningful on a
    /// freshly built merger (before any merge extends the tables).
    pub(crate) fn to_tables(&self) -> (&[Vec<f64>], &[Vec<f64>]) {
        (&self.resem, &self.dwalk)
    }

    /// Rebuild a merger from checkpointed leaf tables. Inverse of
    /// [`DistinctMerger::to_tables`] — JSON round-trips `f64` exactly, so
    /// a merger restored this way clusters bit-identically to the one that
    /// was saved. Returns `None` when the tables are not square matrices
    /// of matching size.
    pub(crate) fn from_tables(
        resem: Vec<Vec<f64>>,
        dwalk: Vec<Vec<f64>>,
        measure: MeasureMode,
        composite: CompositeMode,
    ) -> Option<Self> {
        let n = resem.len();
        if dwalk.len() != n
            || resem.iter().any(|row| row.len() != n)
            || dwalk.iter().any(|row| row.len() != n)
        {
            return None;
        }
        Some(DistinctMerger {
            resem,
            dwalk,
            sizes: vec![1; n],
            measure,
            composite,
            n,
        })
    }

    /// The weighted resemblance between two leaf references (diagnostics).
    pub fn leaf_resemblance(&self, i: usize, j: usize) -> f64 {
        self.resem[i][j]
    }

    /// The symmetrized weighted walk probability between two leaves.
    pub fn leaf_walk(&self, i: usize, j: usize) -> f64 {
        0.5 * (self.dwalk[i][j] + self.dwalk[j][i])
    }

    /// Average-Link resemblance between clusters `a` and `b`.
    fn average_resemblance(&self, a: usize, b: usize) -> f64 {
        self.resem[a][b] / (self.sizes[a] * self.sizes[b]) as f64
    }

    /// Collective random walk probability between clusters: start at a
    /// uniformly random member of one cluster, land anywhere in the other;
    /// symmetrized by averaging both directions.
    fn collective_walk(&self, a: usize, b: usize) -> f64 {
        let a_to_b = self.dwalk[a][b] / self.sizes[a] as f64;
        let b_to_a = self.dwalk[b][a] / self.sizes[b] as f64;
        0.5 * (a_to_b + b_to_a)
    }
}

impl Merger for DistinctMerger {
    fn similarity(&self, a: usize, b: usize) -> f64 {
        match self.measure {
            MeasureMode::SetResemblance => self.average_resemblance(a, b),
            MeasureMode::RandomWalk => self.collective_walk(a, b),
            MeasureMode::Combined => {
                let r = self.average_resemblance(a, b);
                let w = self.collective_walk(a, b);
                match self.composite {
                    CompositeMode::Geometric => (r * w).sqrt(),
                    CompositeMode::Arithmetic => 0.5 * (r + w),
                }
            }
        }
    }

    // Merger callback doing O(live clusters) row sums; the clustering driver charges the budget once per merge
    fn merged(&mut self, a: usize, b: usize, into: usize, size_a: usize, size_b: usize) {
        debug_assert_eq!(into, self.resem.len());
        let total = into + 1;
        // New resemblance row: plain sums.
        let mut r_row = Vec::with_capacity(total);
        for c in 0..into {
            r_row.push(self.resem[a][c] + self.resem[b][c]);
        }
        r_row.push(0.0); // self entry, never queried
        for (c, &v) in r_row.iter().enumerate().take(into) {
            self.resem[c].push(v);
        }
        self.resem.push(r_row);
        // New directed-walk row and column.
        let mut out_row = Vec::with_capacity(total); // into -> c
        for c in 0..into {
            out_row.push(self.dwalk[a][c] + self.dwalk[b][c]);
        }
        out_row.push(0.0);
        for c in 0..into {
            let incoming = self.dwalk[c][a] + self.dwalk[c][b]; // c -> into
            self.dwalk[c].push(incoming);
        }
        self.dwalk.push(out_row);
        self.sizes.push(size_a + size_b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::agglomerate;
    use proptest::prelude::*;
    use relgraph::{NodeId, WeightedSet};
    use relstore::{RelId, TupleId, TupleRef};

    /// Build a synthetic profile over one "path" whose forward set is given
    /// by (node, weight) pairs; backward mirrors forward (good enough for
    /// merger arithmetic tests).
    fn profile(idx: u32, pairs: &[(u32, f64)]) -> Profile {
        let set: WeightedSet = pairs.iter().map(|&(n, w)| (NodeId(n), w)).collect();
        Profile {
            reference: TupleRef::new(RelId(0), TupleId(idx)),
            sets: vec![set.clone()],
            back: vec![set],
            placeholder: false,
        }
    }

    fn weights() -> PathWeights {
        PathWeights {
            resem: vec![1.0],
            walk: vec![1.0],
        }
    }

    /// Two tight groups: {0,1} share node 1, {2,3} share node 2.
    fn two_groups() -> Vec<Profile> {
        vec![
            profile(0, &[(1, 1.0)]),
            profile(1, &[(1, 1.0)]),
            profile(2, &[(2, 1.0)]),
            profile(3, &[(2, 1.0)]),
        ]
    }

    #[test]
    fn leaf_similarities_reflect_shared_context() {
        let m = DistinctMerger::from_profiles(
            &two_groups(),
            &weights(),
            MeasureMode::Combined,
            CompositeMode::Geometric,
        );
        assert_eq!(m.items(), 4);
        assert!((m.leaf_resemblance(0, 1) - 1.0).abs() < 1e-12);
        assert_eq!(m.leaf_resemblance(0, 2), 0.0);
        assert!(m.leaf_walk(0, 1) > 0.0);
        assert_eq!(m.leaf_walk(0, 3), 0.0);
    }

    #[test]
    fn combined_measure_clusters_the_groups() {
        let mut m = DistinctMerger::from_profiles(
            &two_groups(),
            &weights(),
            MeasureMode::Combined,
            CompositeMode::Geometric,
        );
        let c = agglomerate(4, &mut m, 0.01);
        assert_eq!(c.cluster_count(), 2);
        let g = c.groups();
        assert!(g.contains(&vec![0, 1]));
        assert!(g.contains(&vec![2, 3]));
    }

    #[test]
    fn geometric_composite_vetoes_on_either_zero() {
        // Profiles share neighbors (resemblance > 0) but have zero walk
        // probability: different nodes in backward maps would be needed.
        // Construct resem > 0, walk = 0 by giving asymmetric supports:
        // here we instead verify the arithmetic difference directly.
        let p = vec![profile(0, &[(1, 1.0)]), profile(1, &[(1, 1.0)])];
        let geo = DistinctMerger::from_profiles(
            &p,
            &weights(),
            MeasureMode::Combined,
            CompositeMode::Geometric,
        );
        let ari = DistinctMerger::from_profiles(
            &p,
            &weights(),
            MeasureMode::Combined,
            CompositeMode::Arithmetic,
        );
        let sg = geo.similarity(0, 1);
        let sa = ari.similarity(0, 1);
        // Both positive here; geometric <= arithmetic (AM-GM).
        assert!(sg > 0.0);
        assert!(sg <= sa + 1e-12);
    }

    #[test]
    fn single_measure_modes() {
        let p = two_groups();
        let r_only = DistinctMerger::from_profiles(
            &p,
            &weights(),
            MeasureMode::SetResemblance,
            CompositeMode::Geometric,
        );
        assert!((r_only.similarity(0, 1) - 1.0).abs() < 1e-12);
        let w_only = DistinctMerger::from_profiles(
            &p,
            &weights(),
            MeasureMode::RandomWalk,
            CompositeMode::Geometric,
        );
        assert!((w_only.similarity(0, 1) - 1.0).abs() < 1e-12); // 1*1 both ways
        assert_eq!(w_only.similarity(0, 2), 0.0);
    }

    #[test]
    fn incremental_aggregation_matches_recomputation() {
        // After merging 0 and 1, avg resemblance to 2 must equal the mean
        // of the leaf resemblances, and collective walk must equal the
        // formula over members.
        let profiles = vec![
            profile(0, &[(1, 0.8), (2, 0.2)]),
            profile(1, &[(1, 0.5), (3, 0.5)]),
            profile(2, &[(1, 0.4), (2, 0.6)]),
        ];
        let mut m = DistinctMerger::from_profiles(
            &profiles,
            &weights(),
            MeasureMode::Combined,
            CompositeMode::Geometric,
        );
        let r02 = m.leaf_resemblance(0, 2);
        let r12 = m.leaf_resemblance(1, 2);
        let d02 = m.dwalk[0][2];
        let d12 = m.dwalk[1][2];
        let d20 = m.dwalk[2][0];
        let d21 = m.dwalk[2][1];
        m.merged(0, 1, 3, 1, 1);
        let avg = m.average_resemblance(3, 2);
        assert!((avg - 0.5 * (r02 + r12)).abs() < 1e-12);
        let cw = m.collective_walk(3, 2);
        let expected = 0.5 * ((d02 + d12) / 2.0 + (d20 + d21) / 1.0);
        assert!((cw - expected).abs() < 1e-12);
    }

    #[test]
    fn parallel_matrix_build_matches_sequential() {
        // A spread of profiles with varying overlap so the matrices are
        // non-trivial; compare every table entry across thread counts.
        let profiles: Vec<Profile> = (0..12)
            .map(|i| profile(i, &[(i % 4, 0.5 + 0.04 * i as f64), ((i + 1) % 4, 0.3)]))
            .collect();
        let reference = DistinctMerger::from_profiles(
            &profiles,
            &weights(),
            MeasureMode::Combined,
            CompositeMode::Geometric,
        );
        for threads in [2usize, 5, 8] {
            let (m, stats, counters) = DistinctMerger::from_profiles_exec(
                &profiles,
                &weights(),
                MeasureMode::Combined,
                CompositeMode::Geometric,
                &exec::Executor::with_threads(threads),
                &|_| true,
            );
            let m = m.expect("permissive guard");
            assert!(!stats.stopped);
            assert_eq!(stats.completed, 12 * 11 / 2);
            // One join path in this fixture, so units == pairs.
            assert_eq!(counters.total, 12 * 11 / 2);
            assert_eq!(counters.pruned + counters.exact, counters.total);
            assert_eq!(m.resem, reference.resem, "threads={threads}");
            assert_eq!(m.dwalk, reference.dwalk, "threads={threads}");
        }
    }

    /// The losslessness contract on a hand-built case: the indexed pass's
    /// matrices carry the exact build's bits, including zero signs, and
    /// its counters account for real pruning.
    #[test]
    fn pruned_build_is_bit_identical_and_actually_prunes() {
        // Three disconnected cliques: most pairs share no node, and a
        // content-identical reference joins the first clique.
        let mut profiles: Vec<Profile> = Vec::new();
        for g in 0..3u32 {
            for m in 0..3u32 {
                profiles.push(profile(
                    g * 3 + m,
                    &[(10 * g, 0.5 + 0.1 * m as f64), (10 * g + 1, 0.2)],
                ));
            }
        }
        profiles.push(profile(9, &[(0, 0.5), (1, 0.2)])); // same content as profile 0
        profiles.push(profile(10, &[])); // empty: exercises the -0.0 walk zero
        let n = profiles.len();
        let exact = DistinctMerger::from_profiles(
            &profiles,
            &weights(),
            MeasureMode::Combined,
            CompositeMode::Geometric,
        );
        let (pruned, stats, counters) = DistinctMerger::from_profiles_exec(
            &profiles,
            &weights(),
            MeasureMode::Combined,
            CompositeMode::Geometric,
            &exec::Executor::with_threads(3),
            &|_| true,
        );
        let pruned = pruned.expect("permissive guard");
        assert!(!stats.stopped);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(
                    pruned.resem[i][j].to_bits(),
                    exact.resem[i][j].to_bits(),
                    "resem[{i}][{j}]"
                );
                assert_eq!(
                    pruned.dwalk[i][j].to_bits(),
                    exact.dwalk[i][j].to_bits(),
                    "dwalk[{i}][{j}]"
                );
            }
        }
        assert_eq!(counters.total, exec::triangle_count(n) as u64);
        assert_eq!(counters.pruned + counters.exact, counters.total);
        // Cross-clique and empty-profile units are all provably zero:
        // 9 same-clique pairs + the pair joining profile 0's duplicate
        // to its clique... every nonzero unit involves two refs of one
        // clique (clique 0 has 4 members now): C(4,2) + C(3,2) + C(3,2) = 12.
        assert_eq!(counters.exact, 12);
        assert!(counters.pruned > counters.exact);
    }

    #[test]
    fn table_round_trip_restores_a_bit_identical_merger() {
        let profiles: Vec<Profile> = (0..9)
            .map(|i| profile(i, &[(i % 3, 0.4 + 0.05 * i as f64), ((i + 1) % 3, 0.25)]))
            .collect();
        let m = DistinctMerger::from_profiles(
            &profiles,
            &weights(),
            MeasureMode::Combined,
            CompositeMode::Geometric,
        );
        let (resem, dwalk) = m.to_tables();
        let restored = DistinctMerger::from_tables(
            resem.to_vec(),
            dwalk.to_vec(),
            MeasureMode::Combined,
            CompositeMode::Geometric,
        )
        .unwrap();
        let (mut a, mut b) = (m.clone(), restored);
        let ca = agglomerate(9, &mut a, 0.01);
        let cb = agglomerate(9, &mut b, 0.01);
        assert_eq!(ca.labels, cb.labels);
        assert_eq!(ca.dendrogram.merges(), cb.dendrogram.merges());
        // Malformed tables are refused, not misindexed.
        assert!(DistinctMerger::from_tables(
            vec![vec![0.0; 2]; 3],
            vec![vec![0.0; 3]; 3],
            MeasureMode::Combined,
            CompositeMode::Geometric,
        )
        .is_none());
    }

    #[test]
    fn tripped_matrix_build_returns_none() {
        let profiles = two_groups();
        let (m, stats, counters) = DistinctMerger::from_profiles_exec(
            &profiles,
            &weights(),
            MeasureMode::Combined,
            CompositeMode::Geometric,
            &exec::Executor::sequential(),
            &|_| false,
        );
        assert!(m.is_none());
        assert!(stats.stopped);
        assert_eq!(stats.completed, 0);
        assert_eq!(counters, PairCounters::default());
    }

    #[test]
    fn merged_tables_stay_symmetric_in_resemblance() {
        let profiles = two_groups();
        let mut m = DistinctMerger::from_profiles(
            &profiles,
            &weights(),
            MeasureMode::Combined,
            CompositeMode::Geometric,
        );
        m.merged(0, 1, 4, 1, 1);
        for c in 0..4 {
            assert_eq!(m.resem[4][c], m.resem[c][4]);
        }
    }

    /// Node weights across magnitudes: tiny (products underflow),
    /// small, ordinary and large.
    fn weight(kind: u8, frac: f64) -> f64 {
        match kind {
            0 => 1e-300 * (1.0 + frac),
            1 => 1e-9 * (1.0 + frac),
            2 => 0.01 + frac,
            _ => 1.0 + 49.0 * frac,
        }
    }

    /// Profiles over 1–4 paths whose forward and backward sets are picked
    /// from a small pool (so content-identical sets recur) of empty,
    /// single-node and small sets, with path weights that include zeros
    /// and negatives (so zero signs matter).
    fn arb_case() -> impl Strategy<Value = (Vec<Profile>, PathWeights)> {
        let member = (0u32..10, 0u8..4, 0.0f64..1.0);
        let pool =
            proptest::collection::vec((0u8..3, proptest::collection::vec(member, 1..7)), 1..8);
        let picks =
            proptest::collection::vec(proptest::collection::vec((0usize..8, 0usize..8), 4), 0..40);
        let path_weights = proptest::collection::vec((0u8..3, -2.0f64..2.0), 8);
        (1usize..5, pool, picks, path_weights).prop_map(|(paths, pool, picks, pw)| {
            let sets: Vec<WeightedSet> = pool
                .iter()
                .map(|(shape, members)| {
                    let keep = match shape {
                        0 => 0,
                        1 => 1,
                        _ => members.len(),
                    };
                    members[..keep]
                        .iter()
                        .map(|&(t, kind, frac)| (NodeId(t), weight(kind, frac)))
                        .collect()
                })
                .collect();
            let k = sets.len();
            let profiles = picks
                .iter()
                .enumerate()
                .map(|(i, per_path)| Profile {
                    reference: TupleRef::new(RelId(0), TupleId(i as u32)),
                    sets: per_path[..paths]
                        .iter()
                        .map(|&(f, _)| sets[f % k].clone())
                        .collect(),
                    back: per_path[..paths]
                        .iter()
                        .map(|&(_, b)| sets[b % k].clone())
                        .collect(),
                    placeholder: false,
                })
                .collect();
            let w = |&(sel, x): &(u8, f64)| match sel {
                0 => 0.0,
                1 => 1.0,
                _ => x,
            };
            let weights = PathWeights {
                resem: pw[..paths].iter().map(w).collect(),
                walk: pw[4..4 + paths].iter().map(w).collect(),
            };
            (profiles, weights)
        })
    }

    fn shares_a_node(a: &WeightedSet, b: &WeightedSet) -> bool {
        a.iter().any(|(t, _)| b.weight(t) > 0.0)
    }

    proptest! {
        // The losslessness contract at the table level: the indexed pass
        // carries the exact build's bits, zero signs included, at any
        // thread count, and prunes exactly the units whose sets share no
        // node.
        #[test]
        fn indexed_pass_is_bit_identical_to_exact((profiles, weights) in arb_case()) {
            let n = profiles.len();
            let exact = DistinctMerger::from_profiles(
                &profiles,
                &weights,
                MeasureMode::Combined,
                CompositeMode::Geometric,
            );
            let mut touching = 0u64;
            for i in 0..n {
                for j in i + 1..n {
                    let (a, b) = (&profiles[i], &profiles[j]);
                    for p in 0..weights.resem.len() {
                        if shares_a_node(&a.sets[p], &b.sets[p])
                            || shares_a_node(&a.sets[p], &b.back[p])
                            || shares_a_node(&b.sets[p], &a.back[p])
                        {
                            touching += 1;
                        }
                    }
                }
            }
            for threads in [1usize, 2, 4] {
                let (m, stats, counters) = DistinctMerger::from_profiles_exec(
                    &profiles,
                    &weights,
                    MeasureMode::Combined,
                    CompositeMode::Geometric,
                    &exec::Executor::with_threads(threads),
                    &|_| true,
                );
                let m = m.expect("permissive guard");
                prop_assert!(!stats.stopped);
                prop_assert_eq!(stats.completed, exec::triangle_count(n));
                for i in 0..n {
                    for j in 0..n {
                        prop_assert_eq!(
                            m.resem[i][j].to_bits(),
                            exact.resem[i][j].to_bits(),
                            "resem[{}][{}] threads={}", i, j, threads
                        );
                        prop_assert_eq!(
                            m.dwalk[i][j].to_bits(),
                            exact.dwalk[i][j].to_bits(),
                            "dwalk[{}][{}] threads={}", i, j, threads
                        );
                    }
                }
                let total = (exec::triangle_count(n) * weights.resem.len()) as u64;
                prop_assert_eq!(counters.total, total);
                prop_assert_eq!(counters.exact, touching);
                prop_assert_eq!(counters.pruned, total - touching);
                prop_assert_eq!(counters.interned, (2 * n * weights.resem.len()) as u64);
            }
        }
    }
}
