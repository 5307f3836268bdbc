//! Sequential Minimal Optimization (Platt's SMO) for the dual soft-margin
//! SVM — the same algorithm family as LIBSVM, hand-rolled.
//!
//! Solves
//! `max_α Σα_i − ½ ΣΣ α_i α_j y_i y_j (x_i · x_j)` subject to
//! `0 ≤ α_i ≤ C` and `Σ α_i y_i = 0`, by repeatedly optimizing one pair of
//! multipliers analytically (the "simplified SMO" variant with randomized
//! second choice, run to KKT convergence).

use crate::data::{dot, Dataset, Result, SvmError};
use crate::model::KernelModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hyperparameters for the SMO solver.
#[derive(Debug, Clone)]
pub struct SmoConfig {
    /// Soft-margin penalty (> 0). Larger C fits the training set harder.
    pub c: f64,
    /// KKT violation tolerance.
    pub tol: f64,
    /// Number of consecutive full passes without any update before
    /// declaring convergence.
    pub max_passes: usize,
    /// Hard cap on full passes (guards against cycling on noisy data).
    pub max_iters: usize,
    /// RNG seed for the randomized second-multiplier choice.
    pub seed: u64,
}

impl Default for SmoConfig {
    fn default() -> Self {
        SmoConfig {
            c: 1.0,
            tol: 1e-3,
            max_passes: 5,
            max_iters: 200,
            seed: 7,
        }
    }
}

/// Train a linear SVM with SMO.
///
/// ```
/// use svm::{train_smo, Dataset, SmoConfig};
/// let data = Dataset::from_parts(
///     vec![vec![2.0], vec![1.5], vec![-2.0], vec![-1.5]],
///     vec![1.0, 1.0, -1.0, -1.0],
/// ).unwrap();
/// let model = train_smo(&data, &SmoConfig::default()).unwrap();
/// assert_eq!(model.accuracy(&data), 1.0);
/// ```
pub fn train_smo(data: &Dataset, cfg: &SmoConfig) -> Result<KernelModel> {
    train_smo_guarded(data, cfg, &mut |_| true)
}

/// Like [`train_smo`], but cooperatively interruptible.
///
/// `guard` is called once per full pass over the multipliers with the
/// number of examples about to be scanned (each scan is `O(n)` kernel-row
/// work). Returning `false` aborts the optimization with
/// [`SvmError::Interrupted`] — a half-converged hyperplane is not returned,
/// because its weights can be arbitrarily far from the optimum and the
/// caller could not tell.
pub fn train_smo_guarded(
    data: &Dataset,
    cfg: &SmoConfig,
    guard: &mut dyn FnMut(u64) -> bool,
) -> Result<KernelModel> {
    if cfg.c <= 0.0 {
        return Err(SvmError::BadParameter {
            name: "c",
            reason: "must be > 0".into(),
        });
    }
    data.require_both_classes()?;
    let n = data.len();
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Cache the kernel matrix: the training sets here are small (the paper
    // uses 1000+1000 examples), so O(n²) memory is the right trade.
    let mut k = vec![0.0f64; n * n];
    for i in 0..n {
        for j in i..n {
            let v = dot(data.x(i), data.x(j));
            k[i * n + j] = v;
            k[j * n + i] = v;
        }
    }
    let kij = |i: usize, j: usize| k[i * n + j];

    let mut alpha = vec![0.0f64; n];
    let mut b = 0.0f64;

    // f(x_m) − y_m under the current multipliers. `k` is symmetric, so
    // row m holds column m's values and is read contiguously.
    let err = |alpha: &[f64], b: f64, m: usize| -> f64 {
        let row = &k[m * n..(m + 1) * n];
        let mut f = b;
        for i in 0..n {
            if alpha[i] > 0.0 {
                f += alpha[i] * data.y(i) * row[i];
            }
        }
        f - data.y(m)
    };

    let mut passes = 0usize;
    let mut iters = 0usize;
    while passes < cfg.max_passes && iters < cfg.max_iters {
        if !guard(n as u64) {
            return Err(SvmError::Interrupted { passes_done: iters });
        }
        let mut changed = 0usize;
        for i in 0..n {
            let ei = err(&alpha, b, i);
            let yi = data.y(i);
            let ri = yi * ei;
            if (ri < -cfg.tol && alpha[i] < cfg.c) || (ri > cfg.tol && alpha[i] > 0.0) {
                // Second multiplier: random j != i.
                let mut j = rng.gen_range(0..n - 1);
                if j >= i {
                    j += 1;
                }
                let ej = err(&alpha, b, j);
                let yj = data.y(j);
                let (ai_old, aj_old) = (alpha[i], alpha[j]);
                let (lo, hi) = if yi != yj {
                    (
                        (aj_old - ai_old).max(0.0),
                        (cfg.c + aj_old - ai_old).min(cfg.c),
                    )
                } else {
                    (
                        (ai_old + aj_old - cfg.c).max(0.0),
                        (ai_old + aj_old).min(cfg.c),
                    )
                };
                // Degenerate (or floating-point-inverted) box: nothing to
                // optimize for this pair.
                if hi - lo < 1e-12 {
                    continue;
                }
                let eta = 2.0 * kij(i, j) - kij(i, i) - kij(j, j);
                if eta >= 0.0 {
                    continue;
                }
                let mut aj = aj_old - yj * (ei - ej) / eta;
                aj = aj.clamp(lo, hi);
                if (aj - aj_old).abs() < 1e-5 {
                    continue;
                }
                let ai = ai_old + yi * yj * (aj_old - aj);
                alpha[i] = ai;
                alpha[j] = aj;
                let b1 = b - ei - yi * (ai - ai_old) * kij(i, i) - yj * (aj - aj_old) * kij(i, j);
                let b2 = b - ej - yi * (ai - ai_old) * kij(i, j) - yj * (aj - aj_old) * kij(j, j);
                b = if ai > 0.0 && ai < cfg.c {
                    b1
                } else if aj > 0.0 && aj < cfg.c {
                    b2
                } else {
                    0.5 * (b1 + b2)
                };
                changed += 1;
            }
        }
        if changed == 0 {
            passes += 1;
        } else {
            passes = 0;
        }
        iters += 1;
    }

    // Keep only support vectors.
    let kept = alpha.iter().filter(|&&a| a > 1e-12).count();
    let mut svs = Vec::with_capacity(kept);
    let mut coefs = Vec::with_capacity(kept);
    for i in 0..n {
        if alpha[i] > 1e-12 {
            // distinct-lint: allow(D110, reason="each support-vector row is copied exactly once into the returned model, which owns its vectors by contract")
            svs.push(data.x(i).to_vec());
            coefs.push(alpha[i] * data.y(i));
        }
    }
    if svs.is_empty() {
        return Err(SvmError::Degenerate(
            "SMO produced no support vectors".into(),
        ));
    }
    Ok(KernelModel {
        support_vectors: svs,
        coefficients: coefs,
        bias: b,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Linearly separable 2-D blobs.
    fn blobs(n_per: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new();
        for _ in 0..n_per {
            d.push(
                vec![
                    2.0 + rng.gen_range(-0.5..0.5),
                    2.0 + rng.gen_range(-0.5..0.5),
                ],
                1.0,
            )
            .unwrap();
            d.push(
                vec![
                    -2.0 + rng.gen_range(-0.5..0.5),
                    -2.0 + rng.gen_range(-0.5..0.5),
                ],
                -1.0,
            )
            .unwrap();
        }
        d
    }

    #[test]
    fn separable_blobs_reach_full_accuracy() {
        let d = blobs(40, 1);
        let m = train_smo(&d, &SmoConfig::default()).unwrap();
        assert_eq!(m.accuracy(&d), 1.0);
        // Margin is large, so few support vectors.
        assert!(m.sv_count() < d.len() / 2, "sv_count = {}", m.sv_count());
    }

    #[test]
    fn linear_collapse_agrees_with_dual() {
        let d = blobs(30, 2);
        let m = train_smo(&d, &SmoConfig::default()).unwrap();
        let lm = m.to_linear();
        for (x, _) in d.iter() {
            assert!((m.decision(x) - lm.decision(x)).abs() < 1e-9);
        }
        assert_eq!(lm.accuracy(&d), 1.0);
    }

    #[test]
    fn weight_direction_reflects_informative_feature() {
        // Feature 0 carries the class; feature 1 is noise.
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = Dataset::new();
        for _ in 0..60 {
            let noise = rng.gen_range(-1.0..1.0);
            d.push(vec![1.0 + rng.gen_range(-0.2..0.2), noise], 1.0)
                .unwrap();
            let noise = rng.gen_range(-1.0..1.0);
            d.push(vec![-1.0 + rng.gen_range(-0.2..0.2), noise], -1.0)
                .unwrap();
        }
        let m = train_smo(&d, &SmoConfig::default()).unwrap();
        let lm = m.to_linear();
        assert!(
            lm.weights[0] > 5.0 * lm.weights[1].abs(),
            "informative weight should dominate: {:?}",
            lm.weights
        );
    }

    #[test]
    fn noisy_overlap_still_trains() {
        // Overlapping classes: soft margin must tolerate misclassification.
        let mut rng = StdRng::seed_from_u64(4);
        let mut d = Dataset::new();
        for _ in 0..50 {
            d.push(vec![0.5 + rng.gen_range(-1.0..1.0)], 1.0).unwrap();
            d.push(vec![-0.5 + rng.gen_range(-1.0..1.0)], -1.0).unwrap();
        }
        let m = train_smo(
            &d,
            &SmoConfig {
                c: 0.5,
                ..Default::default()
            },
        )
        .unwrap();
        let acc = m.accuracy(&d);
        assert!(acc > 0.7, "accuracy {acc}");
    }

    #[test]
    fn bad_c_rejected() {
        let d = blobs(5, 5);
        assert!(matches!(
            train_smo(
                &d,
                &SmoConfig {
                    c: 0.0,
                    ..Default::default()
                }
            ),
            Err(SvmError::BadParameter { .. })
        ));
    }

    #[test]
    fn single_class_rejected() {
        let d = Dataset::from_parts(vec![vec![1.0], vec![2.0]], vec![1.0, 1.0]).unwrap();
        assert!(train_smo(&d, &SmoConfig::default()).is_err());
    }

    #[test]
    fn guarded_training_matches_unguarded_and_interrupts_cleanly() {
        let d = blobs(20, 6);
        let full = train_smo(&d, &SmoConfig::default()).unwrap();
        let mut charged = 0u64;
        let guarded = train_smo_guarded(&d, &SmoConfig::default(), &mut |u| {
            charged += u;
            true
        })
        .unwrap();
        assert_eq!(full.to_linear().weights, guarded.to_linear().weights);
        assert!(charged >= d.len() as u64, "at least one pass charged");
        // Guard tripping on the second pass: typed error, pass count = 1.
        let mut passes = 0u32;
        let err = train_smo_guarded(&d, &SmoConfig::default(), &mut |_| {
            passes += 1;
            passes <= 1
        })
        .unwrap_err();
        assert!(matches!(err, SvmError::Interrupted { passes_done: 1 }));
    }

    #[test]
    fn deterministic_given_seed() {
        let d = blobs(20, 6);
        let m1 = train_smo(&d, &SmoConfig::default()).unwrap();
        let m2 = train_smo(&d, &SmoConfig::default()).unwrap();
        assert_eq!(m1.to_linear().weights, m2.to_linear().weights);
    }

    #[test]
    fn learned_hyperplane_bits_are_pinned() {
        // Overlapping 3-D classes, large enough that the solver runs tens
        // of passes: any change to the order or the values of the kernel
        // sums shows up in the low bits of the learned hyperplane.
        let mut rng = StdRng::seed_from_u64(2007);
        let mut d = Dataset::new();
        for _ in 0..120 {
            let pos = (0..3).map(|_| 0.4 + rng.gen_range(-1.0..1.0)).collect();
            d.push(pos, 1.0).unwrap();
            let neg = (0..3).map(|_| -0.4 + rng.gen_range(-1.0..1.0)).collect();
            d.push(neg, -1.0).unwrap();
        }
        let mut passes = 0usize;
        let m = train_smo_guarded(&d, &SmoConfig::default(), &mut |_| {
            passes += 1;
            true
        })
        .unwrap();
        assert!(passes >= 20, "only {passes} passes");
        // Recorded when the solver still read kernel columns; rows hold
        // the same values, summed in the same order, so no bit may move.
        let lm = m.to_linear();
        assert_eq!(lm.bias.to_bits(), 0x3fc2_a1dc_2307_bbdb);
        let bits: Vec<u64> = lm.weights.iter().map(|w| w.to_bits()).collect();
        assert_eq!(
            bits,
            [
                0x3ff6_8212_0ad4_c70c,
                0x3ff3_1b35_1c56_99f0,
                0x3fef_f2d7_61a8_7a91
            ]
        );
    }

    #[test]
    fn dual_constraint_holds() {
        // Σ α_i y_i = 0 — equivalently Σ coefficients = 0.
        let d = blobs(25, 8);
        let m = train_smo(&d, &SmoConfig::default()).unwrap();
        let s: f64 = m.coefficients.iter().sum();
        assert!(s.abs() < 1e-9, "Σ α y = {s}");
    }

    #[test]
    fn alphas_bounded_by_c() {
        let c = 0.7;
        let d = blobs(25, 9);
        let m = train_smo(
            &d,
            &SmoConfig {
                c,
                ..Default::default()
            },
        )
        .unwrap();
        for (coef, sv) in m.coefficients.iter().zip(&m.support_vectors) {
            assert!(
                coef.abs() <= c + 1e-9,
                "|α y| = {} for sv {:?}",
                coef.abs(),
                sv
            );
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Random binary datasets: arbitrary points in a box, arbitrary
        /// labels (not necessarily separable).
        fn arbitrary_dataset() -> impl Strategy<Value = Dataset> {
            proptest::collection::vec(
                (
                    proptest::collection::vec(-5.0f64..5.0, 2),
                    proptest::bool::ANY,
                ),
                4..30,
            )
            .prop_filter_map("need both classes", |rows| {
                let mut d = Dataset::new();
                for (x, pos) in &rows {
                    d.push(x.clone(), if *pos { 1.0 } else { -1.0 }).ok()?;
                }
                d.require_both_classes().ok()?;
                Some(d)
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn smo_invariants_hold_on_arbitrary_data(
                d in arbitrary_dataset(),
                c in 0.1f64..5.0,
            ) {
                let cfg = SmoConfig { c, max_iters: 40, ..Default::default() };
                let Ok(m) = train_smo(&d, &cfg) else {
                    // Degenerate optimizations (no support vectors) are a
                    // legal outcome on adversarial data.
                    return Ok(());
                };
                // Dual feasibility: 0 < α ≤ C and Σ α y = 0.
                for &coef in &m.coefficients {
                    prop_assert!(coef.is_finite());
                    prop_assert!(coef.abs() <= c + 1e-6, "|α y| = {}", coef.abs());
                    prop_assert!(coef != 0.0);
                }
                let balance: f64 = m.coefficients.iter().sum();
                prop_assert!(balance.abs() < 1e-6, "Σ α y = {balance}");
                // The model classifies at least as well as the majority class.
                let (pos, neg) = d.class_counts();
                let majority = pos.max(neg) as f64 / d.len() as f64;
                prop_assert!(m.accuracy(&d) >= majority - 0.35);
            }

            #[test]
            fn pegasos_never_produces_non_finite_models(
                d in arbitrary_dataset(),
                lambda in 1e-5f64..1.0,
            ) {
                let cfg = crate::pegasos::PegasosConfig {
                    lambda,
                    iterations: 2_000,
                    ..Default::default()
                };
                let m = crate::pegasos::train_pegasos(&d, &cfg).unwrap();
                prop_assert!(m.bias.is_finite());
                prop_assert!(m.weights.iter().all(|w| w.is_finite()));
            }
        }
    }
}
