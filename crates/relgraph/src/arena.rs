//! Columnar kernel arena: interned, flattened weighted sets.
//!
//! [`SetArena::build`] takes the weighted sets of one similarity stage
//! (e.g. all forward and backward maps of one join path) and re-encodes
//! them for the pairwise kernels:
//!
//! * **row dedup** — content-identical sets share one *distinct row*
//!   ([`SetArena::row_of`] maps input index → row). Same-context
//!   references (e.g. same-year references on a deterministic
//!   single-fanout path) produce literally identical sets, so one kernel
//!   evaluation per distinct row pair serves every reference pair that
//!   realizes it;
//! * **id interning** — every [`NodeId`] appearing in any row is mapped
//!   to a dense `u32` by ascending node id. The mapping is
//!   order-preserving, so ascending interned order *is* ascending node
//!   order and merge-joins accumulate in exactly the order the
//!   [`WeightedSet`] kernels use — the bit-identity the determinism
//!   contract needs;
//! * **flat columns** — all rows live in two contiguous `ids`/`weights`
//!   columns sliced by offset, so a kernel streams two cache-resident
//!   runs instead of chasing per-pair map storage.
//!
//! [`SetArena::resemblance_rows`] and [`SetArena::dot_rows`] are
//! bit-identical to [`WeightedSet::resemblance`] and
//! [`crate::directed_walk`] respectively (property-tested below):
//! row totals are accumulated left-to-right like `WeightedSet::total`,
//! `x + 0.0 == x` for the non-negative partial sums makes the
//! intersection-only dot equal to the walk's zero-including sum, and
//! f64 multiplication is commutative bitwise.
//!
//! [`SetArena::intersections`] precomputes the exact support-overlap
//! matrix over distinct rows from per-id posting lists, giving the
//! pruned similarity engine its second (complete) zero certificate after
//! the sketch tier.

use crate::graph::NodeId;
use crate::sketch::{Sketch, SketchConfig};
use crate::WeightedSet;
use relstore::FxHashMap;

/// SplitMix64 step used to combine content hashes for row/posting dedup.
/// Purely an in-process bucketing aid; equality is always confirmed by an
/// exact comparison, so hash quality affects speed, never results.
fn mix(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A flat, deduplicated, interned arena of weighted sets (module docs).
#[derive(Debug, Clone)]
pub struct SetArena {
    /// Input set index → distinct row index.
    row_of: Vec<u32>,
    /// Distinct row → half-open range into `ids`/`weights` (`len + 1`).
    offsets: Vec<u32>,
    /// Interned member ids, ascending within each row.
    ids: Vec<u32>,
    /// Member weights, aligned with `ids`.
    weights: Vec<f64>,
    /// Per-row total mass, accumulated left-to-right (bit-identical to
    /// the source set's `total()`).
    totals: Vec<f64>,
    /// Number of distinct interned ids.
    universe: u32,
}

impl SetArena {
    /// An arena over zero sets, holding no heap capacity. The unit
    /// [`ArenaPool::take`] hands out when the pool is dry; feed it to
    /// [`SetArena::rebuild`] before use.
    pub fn empty() -> SetArena {
        SetArena {
            row_of: Vec::new(),
            offsets: Vec::new(),
            ids: Vec::new(),
            weights: Vec::new(),
            totals: Vec::new(),
            universe: 0,
        }
    }

    /// Build an arena over the given sets (in order; the index of each
    /// set in this iteration is its input index for [`SetArena::row_of`]).
    pub fn build<'a>(sets: impl IntoIterator<Item = &'a WeightedSet>) -> SetArena {
        let mut arena = Self::empty();
        arena.rebuild(sets);
        arena
    }

    /// Rebuild this arena in place over a new set sequence, reusing the
    /// column capacity left by the previous build. The result is
    /// field-for-field identical to `SetArena::build(sets)` — same
    /// algorithm, same first-appearance row numbering, same
    /// left-to-right total accumulation — capacity is the only thing
    /// that survives; no content does. This is the reuse seam the
    /// resolve spine's pooled arenas go through (lint D112).
    pub fn rebuild<'a>(&mut self, sets: impl IntoIterator<Item = &'a WeightedSet>) {
        self.row_of.clear();
        self.offsets.clear();
        self.ids.clear();
        self.weights.clear();
        self.totals.clear();
        let sets: Vec<&WeightedSet> = sets.into_iter().collect();
        // Row dedup: bucket by content hash, confirm by exact comparison.
        // Distinct rows are numbered in first-appearance order, so the
        // arena is a pure function of the input sequence.
        let mut buckets: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
        let mut distinct: Vec<&WeightedSet> = Vec::new();
        self.row_of.reserve(sets.len());
        for set in &sets {
            let mut h = 0xcbf2_9ce4_8422_2325u64 ^ set.len() as u64;
            for (NodeId(n), w) in set.iter() {
                h = mix(h ^ u64::from(n));
                h = mix(h ^ w.to_bits());
            }
            let bucket = buckets.entry(h).or_default();
            let row = bucket
                .iter()
                .copied()
                .find(|&r| {
                    let d = distinct[r as usize];
                    d.len() == set.len()
                        && d.iter()
                            .zip(set.iter())
                            .all(|((n1, w1), (n2, w2))| n1 == n2 && w1.to_bits() == w2.to_bits())
                })
                .unwrap_or_else(|| {
                    let r = distinct.len() as u32;
                    distinct.push(set);
                    bucket.push(r);
                    r
                });
            self.row_of.push(row);
        }
        // Intern: dense ids assigned by ascending NodeId, so ascending
        // interned order within a row is ascending node order.
        let mut universe: Vec<u32> = distinct
            .iter()
            .flat_map(|s| s.iter().map(|(NodeId(n), _)| n))
            .collect();
        universe.sort_unstable();
        universe.dedup();
        self.offsets.reserve(distinct.len() + 1);
        self.totals.reserve(distinct.len());
        self.offsets.push(0u32);
        for set in &distinct {
            // `-0.0` is std's `Sum<f64>` identity, so starting there makes
            // the accumulated total bit-identical to `WeightedSet::total()`
            // even for empty rows (where the sum *is* `-0.0`).
            let mut total = -0.0f64;
            for (NodeId(n), w) in set.iter() {
                let dense = universe
                    .binary_search(&n)
                    // distinct-lint: allow(D101, reason="universe is the sorted dedup of exactly the ids iterated here (collected one loop above from the same sets), so the search always succeeds")
                    .expect("every row id was collected into the universe");
                self.ids.push(dense as u32);
                self.weights.push(w);
                total += w;
            }
            self.offsets.push(self.ids.len() as u32);
            self.totals.push(total);
        }
        self.universe = universe.len() as u32;
    }

    /// Distinct row holding input set `i`.
    pub fn row_of(&self, i: usize) -> u32 {
        self.row_of[i]
    }

    /// Number of distinct rows.
    pub fn rows(&self) -> usize {
        self.totals.len()
    }

    /// Number of input sets the arena was built over.
    pub fn inputs(&self) -> usize {
        self.row_of.len()
    }

    /// Number of distinct interned member ids.
    pub fn universe(&self) -> u32 {
        self.universe
    }

    /// The `(interned id, weight)` column slice of one distinct row.
    fn row(&self, r: u32) -> (&[u32], &[f64]) {
        let lo = self.offsets[r as usize] as usize;
        let hi = self.offsets[r as usize + 1] as usize;
        (&self.ids[lo..hi], &self.weights[lo..hi])
    }

    /// Total mass of a distinct row (bit-identical to the source set's
    /// [`WeightedSet::total`]).
    pub fn total(&self, r: u32) -> f64 {
        self.totals[r as usize]
    }

    /// Weighted Jaccard resemblance of two distinct rows, bit-identical
    /// to [`WeightedSet::resemblance`] on the source sets.
    pub fn resemblance_rows(&self, a: u32, b: u32) -> f64 {
        let (ia, wa) = self.row(a);
        let (ib, wb) = self.row(b);
        if ia.is_empty() || ib.is_empty() {
            return 0.0;
        }
        // Same merge-join, same ascending order (interning preserves node
        // order), same `Σ min` accumulation as the WeightedSet kernel.
        let mut num = 0.0;
        let (mut i, mut j) = (0, 0);
        while i < ia.len() && j < ib.len() {
            match ia[i].cmp(&ib[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    num += wa[i].min(wb[j]);
                    i += 1;
                    j += 1;
                }
            }
        }
        let den = self.totals[a as usize] + self.totals[b as usize] - num;
        if den <= 0.0 {
            0.0
        } else {
            num / den
        }
    }

    /// Intersection dot product `Σ_t w_a(t) · w_b(t)` of two distinct
    /// rows — bit-identical to [`crate::directed_walk`] when `a` encodes
    /// the forward map and `b` the backward map (or vice versa: the dot
    /// is symmetric, and f64 multiplication commutes bitwise).
    ///
    /// The walk sums over the smaller support *including* zero-product
    /// terms for unmatched nodes; adding `+0.0` to the non-negative
    /// partial sums is the identity, so the intersection-only merge-join
    /// reproduces every bit. Zero signs match too: the walk's `Sum` folds
    /// from `-0.0`, which survives only when the iterated support is
    /// empty — so an empty row yields `-0.0` here, and a non-empty
    /// disjoint pair yields `+0.0` (the first `w · 0.0` term flips it).
    pub fn dot_rows(&self, a: u32, b: u32) -> f64 {
        let (ia, wa) = self.row(a);
        let (ib, wb) = self.row(b);
        if ia.is_empty() || ib.is_empty() {
            return -0.0;
        }
        let mut sum = 0.0;
        let (mut i, mut j) = (0, 0);
        while i < ia.len() && j < ib.len() {
            match ia[i].cmp(&ib[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    sum += wa[i] * wb[j];
                    i += 1;
                    j += 1;
                }
            }
        }
        sum
    }

    /// Sketch every distinct row under `config` (interned ids as keys).
    pub fn sketches(&self, config: &SketchConfig) -> Vec<Sketch> {
        (0..self.rows() as u32)
            .map(|r| {
                let (ids, weights) = self.row(r);
                Sketch::build(
                    ids.iter().zip(weights).map(|(&n, &w)| (u64::from(n), w)),
                    config,
                )
            })
            .collect()
    }

    /// Exact support-overlap matrix over distinct rows, from per-id
    /// posting lists. Posting lists are deduplicated by content first:
    /// ids sharing the same set of rows (common when rows share long
    /// runs) are marked once instead of once per id.
    pub fn intersections(&self) -> IntersectionMatrix {
        let d = self.rows();
        let mut postings: Vec<Vec<u32>> = vec![Vec::new(); self.universe as usize];
        for r in 0..d as u32 {
            let (ids, _) = self.row(r);
            for &n in ids {
                // Rows are visited in ascending order, so postings come
                // out sorted — content hashes below are canonical.
                postings[n as usize].push(r);
            }
        }
        let mut bits = vec![0u64; (d * d).div_ceil(64)];
        let set = |bits: &mut Vec<u64>, a: usize, b: usize| {
            let k = a * d + b;
            bits[k / 64] |= 1u64 << (k % 64);
        };
        let mut seen: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
        let mut uniques: Vec<usize> = Vec::new(); // posting indices marked so far
        for (p, rows) in postings.iter().enumerate() {
            if rows.len() < 2 {
                continue;
            }
            let mut h = 0xcbf2_9ce4_8422_2325u64 ^ rows.len() as u64;
            for &r in rows {
                h = mix(h ^ u64::from(r));
            }
            let bucket = seen.entry(h).or_default();
            if bucket.iter().any(|&q| postings[q] == *rows) {
                continue; // identical posting already marked
            }
            bucket.push(p);
            uniques.push(p);
            for (x, &a) in rows.iter().enumerate() {
                for &b in &rows[x + 1..] {
                    set(&mut bits, a as usize, b as usize);
                    set(&mut bits, b as usize, a as usize);
                }
            }
        }
        let nonempty = (0..d as u32).map(|r| !self.row(r).0.is_empty()).collect();
        IntersectionMatrix { bits, d, nonempty }
    }
}

/// A free-list of [`SetArena`]s reused across similarity stages.
///
/// One similarity stage builds one arena per join path; with per-call
/// construction every resolve re-grows the same five columns from zero.
/// An engine-owned pool instead recycles the columns: [`ArenaPool::take`]
/// pops a previously built arena (or mints an empty one), the stage
/// [`SetArena::rebuild`]s it in place — bit-identical to a fresh build,
/// only capacity survives — and [`ArenaPool::put`] returns it when the
/// stage ends. Behind a `Mutex` because resolves run under `&self`; the
/// lock is touched twice per stage, never inside a kernel loop.
#[derive(Debug, Default)]
pub struct ArenaPool {
    // distinct-lint: shared(free-list handoff: take pops and put pushes under a lock held for that single Vec op; a taken arena is exclusively owned until put back, so no two stages ever alias one)
    free: std::sync::Mutex<Vec<SetArena>>,
}

impl ArenaPool {
    /// An empty pool: the first takes mint empty arenas.
    pub fn new() -> ArenaPool {
        ArenaPool {
            free: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// Pop a recycled arena, or mint an empty one when the pool is dry.
    /// Callers must [`SetArena::rebuild`] it before use and should
    /// [`ArenaPool::put`] it back when the stage is done.
    pub fn take(&self) -> SetArena {
        // distinct-lint: allow(D101, reason="a poisoned pool mutex means a kernel stage panicked mid-build; resolve is already unwinding and recycled capacity is unrecoverable")
        if let Some(arena) = self.free.lock().unwrap().pop() {
            return arena;
        }
        // distinct-lint: scratch(pooled per engine: taken at the start of a similarity stage, rebuilt in place over that stage's weighted sets, returned to the free list when the stage ends)
        SetArena::empty()
    }

    /// Return an arena to the free list for the next stage to reuse.
    pub fn put(&self, arena: SetArena) {
        // distinct-lint: allow(D101, reason="a poisoned pool mutex means a kernel stage panicked mid-build; resolve is already unwinding, so losing the returned capacity is the correct degraded behavior")
        self.free.lock().unwrap().push(arena);
    }

    /// Number of arenas currently parked in the free list (diagnostics
    /// and tests; the pool never caps it — it is bounded by the number
    /// of concurrently live stages, i.e. the resolver thread count).
    pub fn parked(&self) -> usize {
        // A poisoned pool reads as empty rather than panicking: this is
        // a diagnostic, not a correctness surface.
        self.free.lock().map(|f| f.len()).unwrap_or(0)
    }
}

/// Symmetric boolean matrix: do two distinct rows share a member?
#[derive(Debug, Clone)]
pub struct IntersectionMatrix {
    bits: Vec<u64>,
    d: usize,
    nonempty: Vec<bool>,
}

impl IntersectionMatrix {
    /// True when rows `a` and `b` share at least one member. For `a == b`
    /// that means the row itself is non-empty.
    pub fn intersects(&self, a: u32, b: u32) -> bool {
        if a == b {
            return self.nonempty[a as usize];
        }
        let k = a as usize * self.d + b as usize;
        self.bits[k / 64] & (1u64 << (k % 64)) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directed_walk;
    use crate::propagate::Propagation;
    use proptest::prelude::*;

    fn set(pairs: &[(u32, f64)]) -> WeightedSet {
        pairs.iter().map(|&(n, w)| (NodeId(n), w)).collect()
    }

    /// A propagation whose forward map is `fwd` and backward map is `bwd`
    /// (only the fields `directed_walk` reads).
    fn prop(fwd: &WeightedSet, bwd: &WeightedSet) -> Propagation {
        Propagation {
            forward: fwd.iter().collect(),
            backward: bwd.iter().collect(),
        }
    }

    #[test]
    fn dedup_shares_rows_and_row_of_is_stable() {
        let a = set(&[(1, 0.5), (3, 0.5)]);
        let b = set(&[(2, 1.0)]);
        let a2 = set(&[(1, 0.5), (3, 0.5)]);
        let arena = SetArena::build([&a, &b, &a2]);
        assert_eq!(arena.inputs(), 3);
        assert_eq!(arena.rows(), 2);
        assert_eq!(arena.row_of(0), arena.row_of(2));
        assert_ne!(arena.row_of(0), arena.row_of(1));
        assert_eq!(arena.universe(), 3); // nodes 1, 2, 3
    }

    #[test]
    fn near_identical_weights_do_not_dedup() {
        let a = set(&[(1, 0.5)]);
        let b = set(&[(1, 0.5 + f64::EPSILON)]);
        let arena = SetArena::build([&a, &b]);
        assert_eq!(arena.rows(), 2);
    }

    #[test]
    fn totals_match_sets_bitwise() {
        let sets = [
            set(&[(1, 0.1), (2, 0.2), (7, 0.7)]),
            set(&[]),
            set(&[(4, 1e-9), (5, 1e9)]),
        ];
        let arena = SetArena::build(sets.iter());
        for (i, s) in sets.iter().enumerate() {
            let t = arena.total(arena.row_of(i));
            assert_eq!(t.to_bits(), s.total().to_bits());
        }
    }

    #[test]
    fn empty_rows_kernel_to_zero_and_do_not_intersect() {
        let e = set(&[]);
        let s = set(&[(1, 1.0)]);
        let arena = SetArena::build([&e, &s]);
        let (re, rs) = (arena.row_of(0), arena.row_of(1));
        assert_eq!(arena.resemblance_rows(re, rs), 0.0);
        assert_eq!(arena.resemblance_rows(re, re), 0.0);
        assert_eq!(arena.dot_rows(re, rs), 0.0);
        let m = arena.intersections();
        assert!(!m.intersects(re, rs));
        assert!(!m.intersects(re, re)); // empty row: even self is empty
        assert!(m.intersects(rs, rs));
    }

    #[test]
    fn self_resemblance_is_exactly_one() {
        let s = set(&[(1, 0.3), (5, 0.2), (9, 0.5)]);
        let arena = SetArena::build([&s]);
        let r = arena.row_of(0);
        // num accumulates the same bits as the total, and t + t − t == t
        // exactly, so the division is t / t == 1.0 with no rounding.
        assert_eq!(arena.resemblance_rows(r, r), 1.0);
    }

    #[test]
    fn intersections_match_brute_force() {
        let sets = [
            set(&[(1, 0.5), (2, 0.5)]),
            set(&[(2, 0.25), (3, 0.75)]),
            set(&[(4, 1.0)]),
            set(&[(1, 0.1), (4, 0.9)]),
            set(&[]),
        ];
        let arena = SetArena::build(sets.iter());
        let m = arena.intersections();
        for i in 0..sets.len() {
            for j in 0..sets.len() {
                let expect =
                    sets[i].jaccard_unweighted(&sets[j]) > 0.0 || (i == j && !sets[i].is_empty());
                let (ri, rj) = (arena.row_of(i), arena.row_of(j));
                assert_eq!(m.intersects(ri, rj), expect, "({i}, {j})");
            }
        }
    }

    /// Field-for-field bitwise equality of two arenas.
    fn identical(a: &SetArena, b: &SetArena) -> bool {
        a.row_of == b.row_of
            && a.offsets == b.offsets
            && a.ids == b.ids
            && a.weights.iter().map(|w| w.to_bits()).collect::<Vec<_>>()
                == b.weights.iter().map(|w| w.to_bits()).collect::<Vec<_>>()
            && a.totals.iter().map(|w| w.to_bits()).collect::<Vec<_>>()
                == b.totals.iter().map(|w| w.to_bits()).collect::<Vec<_>>()
            && a.universe == b.universe
    }

    #[test]
    fn rebuild_over_dirty_arena_matches_fresh_build() {
        let first = [
            set(&[(9, 0.25), (11, 0.75)]),
            set(&[(2, 1.0), (3, 0.5), (7, 0.125)]),
            set(&[(9, 0.25), (11, 0.75)]),
        ];
        let second = [set(&[(1, 0.5)]), set(&[])];
        let mut reused = SetArena::build(first.iter());
        reused.rebuild(second.iter());
        assert!(identical(&reused, &SetArena::build(second.iter())));
        // And back again: stale capacity from `second` must not leak.
        reused.rebuild(first.iter());
        assert!(identical(&reused, &SetArena::build(first.iter())));
    }

    #[test]
    fn empty_arena_has_no_rows_or_capacity() {
        let e = SetArena::empty();
        assert_eq!(e.rows(), 0);
        assert_eq!(e.inputs(), 0);
        assert_eq!(e.universe(), 0);
        // `empty()` is the pre-rebuild unit (no heap capacity at all, not
        // even the offsets sentinel); only after a rebuild over zero sets
        // is it field-for-field the same as a fresh `build([])`.
        let mut rebuilt = SetArena::empty();
        rebuilt.rebuild([]);
        assert!(identical(&rebuilt, &SetArena::build([])));
    }

    #[test]
    fn pool_recycles_capacity_and_is_bit_transparent() {
        let pool = ArenaPool::new();
        assert_eq!(pool.parked(), 0);
        let sets = [set(&[(1, 0.5), (2, 0.5)]), set(&[(3, 1.0)])];
        let mut a = pool.take(); // dry pool mints an empty arena
        a.rebuild(sets.iter());
        let ids_cap = a.ids.capacity();
        pool.put(a);
        assert_eq!(pool.parked(), 1);
        let mut b = pool.take(); // recycled: same allocation comes back
        assert_eq!(pool.parked(), 0);
        assert!(b.ids.capacity() >= ids_cap);
        b.rebuild(sets.iter());
        assert!(identical(&b, &SetArena::build(sets.iter())));
        pool.put(b);
    }

    proptest! {
        // The load-bearing property: the columnar kernel reproduces the
        // nested-representation kernel bit for bit.
        #[test]
        fn resemblance_rows_bit_identical(
            xs in proptest::collection::vec((0u32..32, 1e-6f64..1.0), 0..25),
            ys in proptest::collection::vec((0u32..32, 1e-6f64..1.0), 0..25),
        ) {
            let (a, b) = (set(&xs), set(&ys));
            let arena = SetArena::build([&a, &b]);
            let got = arena.resemblance_rows(arena.row_of(0), arena.row_of(1));
            prop_assert_eq!(got.to_bits(), a.resemblance(&b).to_bits());
        }

        // Same for the walk kernel: `dot_rows` vs `directed_walk` on
        // propagations carrying the identical maps, both argument orders
        // (the walk internally iterates whichever support is smaller).
        #[test]
        fn dot_rows_bit_identical_to_directed_walk(
            xs in proptest::collection::vec((0u32..32, 1e-6f64..1.0), 0..25),
            ys in proptest::collection::vec((0u32..32, 1e-6f64..1.0), 0..25),
        ) {
            let (fwd, bwd) = (set(&xs), set(&ys));
            let arena = SetArena::build([&fwd, &bwd]);
            let got = arena.dot_rows(arena.row_of(0), arena.row_of(1));
            let pa = prop(&fwd, &set(&[]));
            let pb = prop(&set(&[]), &bwd);
            prop_assert_eq!(got.to_bits(), directed_walk(&pa, &pb).to_bits());
            // Symmetric in the rows (f64 multiply commutes bitwise).
            let rev = arena.dot_rows(arena.row_of(1), arena.row_of(0));
            prop_assert_eq!(got.to_bits(), rev.to_bits());
        }

        // Interning and flattening round-trip: weights and order survive.
        #[test]
        fn totals_and_dedup_agree_with_sources(
            sets in proptest::collection::vec(
                proptest::collection::vec((0u32..16, 1e-3f64..1.0), 0..10),
                1..8,
            ),
        ) {
            let sets: Vec<WeightedSet> = sets.iter().map(|s| set(s)).collect();
            let arena = SetArena::build(sets.iter());
            prop_assert_eq!(arena.inputs(), sets.len());
            for (i, s) in sets.iter().enumerate() {
                prop_assert_eq!(
                    arena.total(arena.row_of(i)).to_bits(),
                    s.total().to_bits()
                );
                // Dedup is exact: equal rows ⟺ equal content.
                for (j, t) in sets.iter().enumerate() {
                    let same_row = arena.row_of(i) == arena.row_of(j);
                    let same_content = s.len() == t.len()
                        && s.iter().zip(t.iter()).all(|((n1, w1), (n2, w2))| {
                            n1 == n2 && w1.to_bits() == w2.to_bits()
                        });
                    prop_assert_eq!(same_row, same_content, "{} vs {}", i, j);
                }
            }
        }

        // Pool-reuse soundness on arbitrary inputs: a rebuild over a
        // dirty arena is indistinguishable from a fresh build.
        #[test]
        fn dirty_rebuild_bit_identical_to_fresh(
            first in proptest::collection::vec(
                proptest::collection::vec((0u32..16, 1e-3f64..1.0), 0..10),
                1..6,
            ),
            second in proptest::collection::vec(
                proptest::collection::vec((0u32..16, 1e-3f64..1.0), 0..10),
                1..6,
            ),
        ) {
            let first: Vec<WeightedSet> = first.iter().map(|s| set(s)).collect();
            let second: Vec<WeightedSet> = second.iter().map(|s| set(s)).collect();
            let mut reused = SetArena::build(first.iter());
            reused.rebuild(second.iter());
            prop_assert!(identical(&reused, &SetArena::build(second.iter())));
        }

        // Exactness of the intersection matrix on arbitrary inputs.
        #[test]
        fn intersections_exact(
            sets in proptest::collection::vec(
                proptest::collection::vec((0u32..12, 1e-3f64..1.0), 0..8),
                1..8,
            ),
        ) {
            let sets: Vec<WeightedSet> = sets.iter().map(|s| set(s)).collect();
            let arena = SetArena::build(sets.iter());
            let m = arena.intersections();
            for i in 0..sets.len() {
                for j in 0..sets.len() {
                    let expect = if arena.row_of(i) == arena.row_of(j) {
                        !sets[i].is_empty()
                    } else {
                        sets[i].jaccard_unweighted(&sets[j]) > 0.0
                    };
                    prop_assert_eq!(
                        m.intersects(arena.row_of(i), arena.row_of(j)),
                        expect
                    );
                }
            }
        }
    }
}
