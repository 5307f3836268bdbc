//! Pegasos: primal estimated sub-gradient solver for the linear SVM
//! (Shalev-Shwartz et al.), compiled only into the tests as an independent
//! cross-check of the SMO solver — both optimize the same objective, so
//! their models must agree in direction on well-separated data.

use crate::data::{Dataset, Result, SvmError};
use crate::model::LinearModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hyperparameters for Pegasos.
#[derive(Debug, Clone)]
pub struct PegasosConfig {
    /// Regularization strength λ (> 0). Roughly `1 / (C · n)`.
    pub lambda: f64,
    /// Number of stochastic iterations.
    pub iterations: usize,
    /// RNG seed for sample selection.
    pub seed: u64,
    /// Average the iterates of the final half of training (reduces variance).
    pub average: bool,
}

impl Default for PegasosConfig {
    fn default() -> Self {
        PegasosConfig {
            lambda: 1e-3,
            iterations: 50_000,
            seed: 7,
            average: true,
        }
    }
}

/// Train a linear SVM with Pegasos SGD.
///
/// The bias is learned via feature augmentation (an implicit constant-1
/// feature, unregularized in effect because λ is small).
pub fn train_pegasos(data: &Dataset, cfg: &PegasosConfig) -> Result<LinearModel> {
    if cfg.lambda <= 0.0 {
        return Err(SvmError::BadParameter {
            name: "lambda",
            reason: "must be > 0".into(),
        });
    }
    if cfg.iterations == 0 {
        return Err(SvmError::BadParameter {
            name: "iterations",
            reason: "must be >= 1".into(),
        });
    }
    data.require_both_classes()?;

    let n = data.len();
    let dim = data.dim();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut w = vec![0.0f64; dim];
    let mut b = 0.0f64;
    let mut w_avg = vec![0.0f64; dim];
    let mut b_avg = 0.0f64;
    let avg_start = cfg.iterations / 2;
    let mut avg_count = 0usize;

    for t in 1..=cfg.iterations {
        let i = rng.gen_range(0..n);
        let (x, y) = (data.x(i), data.y(i));
        let eta = 1.0 / (cfg.lambda * t as f64);
        let margin = y * (crate::data::dot(&w, x) + b);
        let shrink = 1.0 - eta * cfg.lambda;
        for wj in w.iter_mut() {
            *wj *= shrink;
        }
        // The bias is treated as an augmented constant feature: shrinking it
        // with w keeps the early steps (η = 1/(λt) is huge at t = 1) from
        // launching b far from the optimum.
        b *= shrink;
        if margin < 1.0 {
            for (wj, &xj) in w.iter_mut().zip(x) {
                *wj += eta * y * xj;
            }
            b += eta * y;
        }
        if cfg.average && t > avg_start {
            for (aj, &wj) in w_avg.iter_mut().zip(&w) {
                *aj += wj;
            }
            b_avg += b;
            avg_count += 1;
        }
    }

    if cfg.average && avg_count > 0 {
        let inv = 1.0 / avg_count as f64;
        for aj in w_avg.iter_mut() {
            *aj *= inv;
        }
        Ok(LinearModel {
            weights: w_avg,
            bias: b_avg * inv,
        })
    } else {
        Ok(LinearModel {
            weights: w,
            bias: b,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smo::{train_smo, SmoConfig};

    fn blobs(n_per: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new();
        for _ in 0..n_per {
            d.push(
                vec![
                    1.5 + rng.gen_range(-0.5..0.5),
                    1.5 + rng.gen_range(-0.5..0.5),
                ],
                1.0,
            )
            .unwrap();
            d.push(
                vec![
                    -1.5 + rng.gen_range(-0.5..0.5),
                    -1.5 + rng.gen_range(-0.5..0.5),
                ],
                -1.0,
            )
            .unwrap();
        }
        d
    }

    #[test]
    fn separable_blobs_reach_full_accuracy() {
        let d = blobs(50, 1);
        let m = train_pegasos(&d, &PegasosConfig::default()).unwrap();
        assert_eq!(m.accuracy(&d), 1.0);
    }

    #[test]
    fn agrees_with_smo_in_direction() {
        let d = blobs(40, 2);
        let p = train_pegasos(&d, &PegasosConfig::default()).unwrap();
        let s = train_smo(&d, &SmoConfig::default()).unwrap().to_linear();
        // Cosine similarity of the weight vectors should be high.
        let dotp = crate::data::dot(&p.weights, &s.weights);
        let cos = dotp / (p.weight_norm() * s.weight_norm());
        assert!(
            cos > 0.95,
            "cosine {cos}, pegasos {:?}, smo {:?}",
            p.weights,
            s.weights
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let d = blobs(20, 3);
        let m1 = train_pegasos(&d, &PegasosConfig::default()).unwrap();
        let m2 = train_pegasos(&d, &PegasosConfig::default()).unwrap();
        assert_eq!(m1.weights, m2.weights);
        assert_eq!(m1.bias, m2.bias);
    }

    #[test]
    fn unaveraged_variant_also_learns() {
        let d = blobs(40, 4);
        let m = train_pegasos(
            &d,
            &PegasosConfig {
                average: false,
                iterations: 30_000,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(m.accuracy(&d) > 0.95);
    }

    #[test]
    fn informative_feature_dominates_noise() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut d = Dataset::new();
        for _ in 0..80 {
            d.push(
                vec![1.0 + rng.gen_range(-0.3..0.3), rng.gen_range(-1.0..1.0)],
                1.0,
            )
            .unwrap();
            d.push(
                vec![-1.0 + rng.gen_range(-0.3..0.3), rng.gen_range(-1.0..1.0)],
                -1.0,
            )
            .unwrap();
        }
        let m = train_pegasos(&d, &PegasosConfig::default()).unwrap();
        assert!(m.weights[0] > 3.0 * m.weights[1].abs(), "{:?}", m.weights);
    }

    #[test]
    fn parameter_validation() {
        let d = blobs(5, 6);
        assert!(train_pegasos(
            &d,
            &PegasosConfig {
                lambda: 0.0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(train_pegasos(
            &d,
            &PegasosConfig {
                iterations: 0,
                ..Default::default()
            }
        )
        .is_err());
        let single = Dataset::from_parts(vec![vec![1.0]], vec![1.0]).unwrap();
        assert!(train_pegasos(&single, &PegasosConfig::default()).is_err());
    }
}
