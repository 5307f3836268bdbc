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
use crate::features::{directed_walk_features, resemblance_features, weighted_sum, Profile};
use crate::learn::PathWeights;
use cluster::Merger;
use relgraph::{ArenaPool, Resemblance, SetArena};
use relstore::FxHashMap;
use std::borrow::Borrow;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};

/// Similarity kernel-unit accounting of one matrix build.
///
/// One *unit* is one (unordered reference pair, join path) evaluation,
/// covering that pair's set resemblance and both directed walks along the
/// path — so `total = pairs × paths`. A unit is **pruned** when the
/// engine proved all three kernel values exactly zero without running a
/// merge-join for the pair, **cached** when its values were copied from a
/// previous build's tables (incremental resolution), and **exact**
/// otherwise (at least one kernel evaluated, possibly reused from a
/// content-identical row pair). `pruned + exact + cached == total` holds
/// by construction; `cached` is zero for every cold matrix build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PairCounters {
    /// Kernel units scheduled (`pairs × paths`).
    pub total: u64,
    /// Units skipped under a provably-exactly-zero certificate.
    pub pruned: u64,
    /// Units that ran (or reused) at least one exact kernel.
    pub exact: u64,
    /// Units copied from cached tables of a previous build.
    pub cached: u64,
    /// Distinct neighbor-set rows interned into [`SetArena`]s during the
    /// build (0 under [`Resemblance::Exact`] and on table-cache hits).
    pub interned: u64,
}

/// One assembly chunk's `(resemblance, walk i→j, walk j→i)` triples plus
/// the exact kernel units the chunk consumed.
type ChunkValues = (Vec<(f64, f64, f64)>, u64);

/// Per-path kernel memos of the pruned similarity build: interned row
/// assignments plus the *nonzero* kernel values, computed once per
/// distinct row pair. A missing memo entry is a proof that the kernel
/// value is exactly zero.
struct PathKernels {
    /// Distinct forward-set row of each reference.
    row_f: Vec<u32>,
    /// Distinct backward-set row of each reference.
    row_b: Vec<u32>,
    /// Per distinct row: is the row empty? (Decides the zero's sign for
    /// walk misses: `directed_walk`'s `Sum` folds from `-0.0`, which only
    /// survives when the iterated support is empty.)
    row_empty: Vec<bool>,
    /// Resemblance per normalized `(min, max)` forward-row pair.
    resem: FxHashMap<(u32, u32), f64>,
    /// Walk dot product per normalized `(min, max)` row pair (the dot is
    /// symmetric in its rows, so one entry serves both directions).
    dot: FxHashMap<(u32, u32), f64>,
    /// Distinct rows interned into this path's arena (accounting).
    interned: u64,
}

impl PathKernels {
    fn resem_at(&self, i: usize, j: usize) -> Option<f64> {
        let (a, b) = (self.row_f[i], self.row_f[j]);
        self.resem.get(&(a.min(b), a.max(b))).copied()
    }

    /// Walk dot `i → j` (forward row of `i` against backward row of `j`).
    fn dot_at(&self, i: usize, j: usize) -> Option<f64> {
        let (a, b) = (self.row_f[i], self.row_b[j]);
        self.dot.get(&(a.min(b), a.max(b))).copied()
    }

    /// The exact kernel's zero for a pruned `i → j` walk: `-0.0` when
    /// either side's support is empty, `+0.0` when both are non-empty but
    /// provably disjoint — bit-identical to what `directed_walk` returns.
    fn zero_walk(&self, i: usize, j: usize) -> f64 {
        if self.row_empty[self.row_f[i] as usize] || self.row_empty[self.row_b[j] as usize] {
            -0.0
        } else {
            0.0
        }
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
    /// Build the pairwise tables from reference profiles with the exact
    /// kernel — the canonical reference for tests and oracles.
    pub fn from_profiles(
        profiles: &[Profile],
        weights: &PathWeights,
        measure: MeasureMode,
        composite: CompositeMode,
    ) -> Self {
        Self::from_profiles_exec(
            profiles,
            weights,
            measure,
            composite,
            &Resemblance::Exact,
            &exec::Executor::sequential(),
            &|_| true,
        )
        .0
        // guard is the constant true closure above, so the build can never be refused
        .expect("permissive guard never stops the matrix build")
    }

    /// Like [`DistinctMerger::from_profiles`], but computes the O(n²)
    /// pairwise feature tables **in parallel** — this is the
    /// similarity-matrix hot path of resolution. The resulting tables are
    /// bit-identical for any thread count *and any kernel*:
    ///
    /// * [`Resemblance::Exact`] fans the flat upper-triangle pair index
    ///   space out in chunks and runs every merge-join kernel directly;
    /// * [`Resemblance::Pruned`] first builds, per join path, a columnar
    ///   [`SetArena`] over all forward and backward sets (deduplicating
    ///   content-identical rows), sketches and an exact support-overlap
    ///   matrix over the distinct rows, and evaluates only the kernels
    ///   not *proven* exactly zero — then assembles the same
    ///   upper-triangle chunks from memo lookups, where a missing entry
    ///   is a proof the exact kernel returns zero. Only provably-zero
    ///   work is skipped, so the tables (and every downstream merge) are
    ///   bit-identical to `Exact` — the losslessness contract.
    ///
    /// `guard` is charged with kernel-pair counts (per assembly chunk,
    /// and per arena build / surviving kernel batch on the pruned path);
    /// if it trips, pending work is abandoned and `None` is returned — a
    /// partially filled matrix would silently bias the clustering toward
    /// whichever pairs happened to be computed. The [`exec::ParStats`]
    /// records how far the stage got either way, and the returned
    /// [`PairCounters`] record how many kernel units the chosen kernel
    /// pruned (zeroed on an interrupted build, like the tables).
    pub fn from_profiles_exec<P>(
        profiles: &[P],
        weights: &PathWeights,
        measure: MeasureMode,
        composite: CompositeMode,
        kernel: &Resemblance,
        executor: &exec::Executor,
        guard: &(dyn Fn(u64) -> bool + Sync),
    ) -> (Option<Self>, exec::ParStats, PairCounters)
    where
        P: Borrow<Profile> + Sync,
    {
        // distinct-lint: scratch(transient: oracle and test callers build and drop a private pool per call; engine callers thread the engine-owned pool through from_profiles_pooled instead)
        let pool = ArenaPool::new();
        Self::from_profiles_pooled(
            profiles, weights, measure, composite, kernel, executor, guard, &pool,
        )
    }

    /// Like [`DistinctMerger::from_profiles_exec`], but the pruned
    /// kernel's per-path [`SetArena`]s are taken from (and returned to)
    /// `pool` instead of being rebuilt from cold heap on every call —
    /// the scratch seam that lets an engine reuse arena capacity across
    /// resolves of different names. Tables are bit-identical to the
    /// per-call build: [`SetArena::rebuild`] is content-equivalent to
    /// `SetArena::build`, and the exact path never touches the pool.
    #[allow(clippy::too_many_arguments)]
    pub fn from_profiles_pooled<P>(
        profiles: &[P],
        weights: &PathWeights,
        measure: MeasureMode,
        composite: CompositeMode,
        kernel: &Resemblance,
        executor: &exec::Executor,
        guard: &(dyn Fn(u64) -> bool + Sync),
        pool: &ArenaPool,
    ) -> (Option<Self>, exec::ParStats, PairCounters)
    where
        P: Borrow<Profile> + Sync,
    {
        let n = profiles.len();
        let n_paths = profiles.first().map_or(0, |p| p.borrow().path_count());
        let n_pairs = exec::triangle_count(n);
        let unit_total = (n_pairs * n_paths) as u64;
        let tripped = AtomicBool::new(false);

        // The pruned path precomputes per-path kernel memos; the exact
        // path computes kernels inline during assembly.
        let (kernels, prep_stats) = match kernel {
            Resemblance::Exact => (None, exec::ParStats::default()),
            Resemblance::Pruned { sketch } => {
                let path_idx: Vec<usize> = (0..n_paths).collect();
                let (built, stats) = executor.par_map_guarded(
                    &path_idx,
                    |_, &k| build_path_kernels(profiles, k, sketch, guard, &tripped, pool),
                    || tripped.load(Ordering::Relaxed),
                );
                if built.iter().any(Option::is_none) {
                    tripped.store(true, Ordering::Relaxed);
                    let mut stats = stats;
                    stats.stopped = true;
                    return (None, stats, PairCounters::default());
                }
                (
                    Some(built.into_iter().map(Option::unwrap).collect::<Vec<_>>()),
                    stats,
                )
            }
        };

        // Assembly over the flat upper-triangle pair index space. Each
        // pair's features depend only on its two (immutable) profiles /
        // memos and every value lands in a fixed matrix cell.
        let (chunks, mut stats) = executor.par_chunks(
            n_pairs,
            |range: Range<usize>| -> Option<ChunkValues> {
                if !guard(range.len() as u64) {
                    tripped.store(true, Ordering::Relaxed);
                    return None;
                }
                let mut exact_units = 0u64;
                let vals = range
                    .map(|k| {
                        let (i, j) = exec::triangle_pair(n, k);
                        match &kernels {
                            None => {
                                let (pi, pj) = (profiles[i].borrow(), profiles[j].borrow());
                                exact_units += n_paths as u64;
                                let r = weighted_sum(&resemblance_features(pi, pj), &weights.resem);
                                let dij =
                                    weighted_sum(&directed_walk_features(pi, pj), &weights.walk);
                                let dji =
                                    weighted_sum(&directed_walk_features(pj, pi), &weights.walk);
                                (r, dij, dji)
                            }
                            Some(kernels) => {
                                let mut r_feats = vec![0.0f64; n_paths];
                                let mut dij_feats = vec![0.0f64; n_paths];
                                let mut dji_feats = vec![0.0f64; n_paths];
                                for (p, pk) in kernels.iter().enumerate() {
                                    let mut hit = false;
                                    r_feats[p] =
                                        pk.resem_at(i, j).inspect(|_| hit = true).unwrap_or(0.0);
                                    dij_feats[p] = pk
                                        .dot_at(i, j)
                                        .inspect(|_| hit = true)
                                        .unwrap_or_else(|| pk.zero_walk(i, j));
                                    dji_feats[p] = pk
                                        .dot_at(j, i)
                                        .inspect(|_| hit = true)
                                        .unwrap_or_else(|| pk.zero_walk(j, i));
                                    if hit {
                                        exact_units += 1;
                                    }
                                }
                                let r = weighted_sum(&r_feats, &weights.resem);
                                let dij = weighted_sum(&dij_feats, &weights.walk);
                                let dji = weighted_sum(&dji_feats, &weights.walk);
                                (r, dij, dji)
                            }
                        }
                    })
                    .collect();
                Some((vals, exact_units))
            },
            || tripped.load(Ordering::Relaxed),
        );
        stats.stopped = stats.stopped || tripped.load(Ordering::Relaxed);
        stats.completed = chunks
            .iter()
            .filter(|(_, v)| v.is_some())
            .map(|(r, _)| r.len())
            .sum();
        // One ParStats for the whole stage: pair-granularity tasks (the
        // unit existing probes assert on), wall covering both phases.
        stats.threads = stats.threads.max(prep_stats.threads);
        stats.wall += prep_stats.wall;
        stats.stopped = stats.stopped || prep_stats.stopped;
        if stats.stopped {
            return (None, stats, PairCounters::default());
        }
        let mut exact_units = 0u64;
        let mut resem = vec![vec![0.0; n]; n];
        let mut dwalk = vec![vec![0.0; n]; n];
        for (range, vals) in chunks {
            // distinct-lint: allow(D101, reason="stats.stopped was checked above; a complete run leaves every chunk Some by the exec pool contract")
            let (vals, chunk_exact) = vals.expect("complete run has no refused chunks");
            exact_units += chunk_exact;
            for (k, (r, dij, dji)) in range.zip(vals) {
                let (i, j) = exec::triangle_pair(n, k);
                resem[i][j] = r;
                resem[j][i] = r;
                dwalk[i][j] = dij;
                dwalk[j][i] = dji;
            }
        }
        let counters = PairCounters {
            total: unit_total,
            pruned: unit_total - exact_units,
            exact: exact_units,
            cached: 0,
            interned: kernels
                .as_ref()
                .map_or(0, |ks| ks.iter().map(|k| k.interned).sum()),
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

/// Build the kernel memos for one join path: intern all forward and
/// backward sets into a columnar [`SetArena`], prove most distinct row
/// pairs exactly zero (sketch tier first, then the exact support-overlap
/// matrix), and run the merge-join kernels only for the survivors.
///
/// `guard` is charged once with the interned set count (the arena /
/// sketch / overlap build) and once with the surviving kernel count.
///
/// The arena is taken from `pool` and rebuilt in place (bit-identical
/// to a fresh [`SetArena::build`]); it returns to the pool on every
/// exit path, including a tripped guard.
fn build_path_kernels<P: Borrow<Profile>>(
    profiles: &[P],
    k: usize,
    sketch: &relgraph::SketchConfig,
    guard: &(dyn Fn(u64) -> bool + Sync),
    tripped: &AtomicBool,
    pool: &ArenaPool,
) -> Option<PathKernels> {
    let n = profiles.len();
    if !guard(2 * n as u64) {
        tripped.store(true, Ordering::Relaxed);
        return None;
    }
    let bwd: Vec<relgraph::WeightedSet> = profiles
        .iter()
        .map(|p| p.borrow().props[k].backward_set())
        .collect();
    let mut arena: SetArena = pool.take();
    arena.rebuild(
        profiles
            .iter()
            .map(|p| &p.borrow().sets[k])
            .chain(bwd.iter()),
    );
    let sketches = arena.sketches(sketch);
    let overlap = arena.intersections();
    let row_f: Vec<u32> = (0..n).map(|i| arena.row_of(i)).collect();
    let row_b: Vec<u32> = (0..n).map(|i| arena.row_of(n + i)).collect();
    let row_empty: Vec<bool> = sketches.iter().map(|s| s.is_empty()).collect();

    // Distinct forward rows (ascending), remembering which are realized
    // by at least two references — only those can produce a same-row
    // (r, r) resemblance lookup from an i ≠ j pair.
    let mut used_f: Vec<u32> = row_f.clone();
    used_f.sort_unstable();
    let mut uniq_f: Vec<(u32, bool)> = Vec::with_capacity(used_f.len());
    for &r in &used_f {
        match uniq_f.last_mut() {
            Some((p, twice)) if *p == r => *twice = true,
            _ => uniq_f.push((r, false)),
        }
    }
    let mut used_b: Vec<u32> = row_b.clone();
    used_b.sort_unstable();
    used_b.dedup();

    // Candidate row pairs, normalized (min, max). The dot candidates are
    // the cross product of distinct forward × backward rows — a handful
    // of combos only realized by i == j ride along harmlessly.
    let mut resem_cands: Vec<(u32, u32)> =
        Vec::with_capacity(uniq_f.len() * (uniq_f.len() + 1) / 2);
    for (x, &(a, twice)) in uniq_f.iter().enumerate() {
        if twice {
            resem_cands.push((a, a));
        }
        for &(b, _) in &uniq_f[x + 1..] {
            resem_cands.push((a, b));
        }
    }
    let mut dot_cands: Vec<(u32, u32)> = Vec::with_capacity(uniq_f.len() * used_b.len());
    for &(a, _) in &uniq_f {
        for &b in &used_b {
            dot_cands.push((a.min(b), a.max(b)));
        }
    }
    dot_cands.sort_unstable();
    dot_cands.dedup();

    // Zero certificates: the sketch bound prunes first (cheap, sound),
    // the exact overlap matrix catches everything a saturated mask
    // missed — together they are complete, so a surviving pair has a
    // provably nonzero kernel and a skipped pair a provably zero one.
    let survives = |&(a, b): &(u32, u32)| {
        sketches[a as usize].upper_bound(&sketches[b as usize]) != 0.0 && overlap.intersects(a, b)
    };
    let resem_cands: Vec<(u32, u32)> = resem_cands.into_iter().filter(|c| survives(c)).collect();
    let dot_cands: Vec<(u32, u32)> = dot_cands.into_iter().filter(|c| survives(c)).collect();
    if !guard((resem_cands.len() + dot_cands.len()) as u64) {
        tripped.store(true, Ordering::Relaxed);
        pool.put(arena);
        return None;
    }
    let mut resem = FxHashMap::default();
    for (a, b) in resem_cands {
        resem.insert((a, b), arena.resemblance_rows(a, b));
    }
    let mut dot = FxHashMap::default();
    for (a, b) in dot_cands {
        dot.insert((a, b), arena.dot_rows(a, b));
    }
    pool.put(arena);
    Some(PathKernels {
        row_f,
        row_b,
        row_empty,
        resem,
        dot,
        interned: sketches.len() as u64,
    })
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
    use relgraph::{NodeId, Propagation, WeightedSet};
    use relstore::{FxHashMap, RelId, TupleId, TupleRef};

    /// Build a synthetic profile over one "path" whose forward map is given
    /// by (node, weight) pairs; backward mirrors forward (good enough for
    /// merger arithmetic tests).
    fn profile(idx: u32, pairs: &[(u32, f64)]) -> Profile {
        let mut fwd: FxHashMap<NodeId, f64> = FxHashMap::default();
        for &(n, w) in pairs {
            fwd.insert(NodeId(n), w);
        }
        let prop = Propagation {
            forward: fwd.clone(),
            backward: fwd.clone(),
        };
        Profile {
            reference: TupleRef::new(RelId(0), TupleId(idx)),
            sets: vec![WeightedSet::from_map(prop.forward.clone())],
            props: vec![prop],
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
            for kernel in [Resemblance::Exact, Resemblance::default()] {
                let (m, stats, counters) = DistinctMerger::from_profiles_exec(
                    &profiles,
                    &weights(),
                    MeasureMode::Combined,
                    CompositeMode::Geometric,
                    &kernel,
                    &exec::Executor::with_threads(threads),
                    &|_| true,
                );
                let m = m.expect("permissive guard");
                assert!(!stats.stopped);
                assert_eq!(stats.completed, 12 * 11 / 2);
                // One join path in this fixture, so units == pairs.
                assert_eq!(counters.total, 12 * 11 / 2);
                assert_eq!(counters.pruned + counters.exact, counters.total);
                if kernel == Resemblance::Exact {
                    assert_eq!(counters.pruned, 0);
                }
                assert_eq!(m.resem, reference.resem, "threads={threads} {kernel:?}");
                assert_eq!(m.dwalk, reference.dwalk, "threads={threads} {kernel:?}");
            }
        }
    }

    /// The losslessness contract at the table level: the pruned build's
    /// matrices carry the exact build's bits, including zero signs, and
    /// its counters account for real pruning.
    #[test]
    fn pruned_build_is_bit_identical_and_actually_prunes() {
        // Three disconnected cliques: most pairs have provably-zero
        // kernels, a few same-row references exercise memo reuse.
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
            &Resemblance::default(),
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
        for kernel in [Resemblance::Exact, Resemblance::default()] {
            let (m, stats, counters) = DistinctMerger::from_profiles_exec(
                &profiles,
                &weights(),
                MeasureMode::Combined,
                CompositeMode::Geometric,
                &kernel,
                &exec::Executor::sequential(),
                &|_| false,
            );
            assert!(m.is_none(), "{kernel:?}");
            assert!(stats.stopped);
            assert_eq!(stats.completed, 0);
            assert_eq!(counters, PairCounters::default());
        }
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
}
