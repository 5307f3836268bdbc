//! # svm — from-scratch linear Support Vector Machine
//!
//! DISTINCT learns one weight per join path with a linear-kernel SVM
//! (paper §3). Rust has no canonical SVM crate, so this one implements
//! what that needs from scratch:
//!
//! * [`Dataset`] — binary-labeled dense feature vectors;
//! * [`train_smo`] — Platt's Sequential Minimal Optimization for the dual
//!   soft-margin problem with the linear kernel (the LIBSVM algorithm
//!   family);
//! * [`KernelModel`] / [`LinearModel`] — the dual form SMO returns and the
//!   primal weights it collapses to;
//! * [`PlattScaler`] — probability calibration of decision values.
//!
//! The tests also carry a Pegasos primal sub-gradient solver, used only
//! as an independent cross-check of SMO on the same objective.

#![warn(missing_docs)]

pub mod data;
pub mod model;
#[cfg(test)]
mod pegasos;
pub mod platt;
pub mod smo;

pub use data::{dot, Dataset, Result, SvmError};
pub use model::{KernelModel, LinearModel};
pub use platt::PlattScaler;
pub use smo::{train_smo, train_smo_guarded, SmoConfig};
