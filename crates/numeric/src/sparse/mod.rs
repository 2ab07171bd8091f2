//! Sparse matrix storage and the three-phase LU pipeline.
//!
//! Modified nodal analysis produces matrices whose density falls quickly with
//! circuit size, and the Nano-Sim engines re-solve the same pattern at every
//! time point. This module provides:
//!
//! * [`TripletMatrix`] — coordinate-format assembly ("stamping") storage,
//! * [`CsrMatrix`] — compressed sparse row storage with counted mat-vec,
//! * the sparse-LU pipeline, split into explicit phases:
//!   * [`order`] — fill-reducing orderings ([`Natural`], [`Rcm`], [`Amd`]),
//!     selected by [`OrderingChoice`] (default `Auto`),
//!   * [`SymbolicAnalysis`] — the permuted pattern + scatter maps, built
//!     once per sparsity structure,
//!   * [`SparseLu`] — the left-looking (Gilbert–Peierls) numeric
//!     factorization with threshold partial pivoting, values-only
//!     refactorization, and ordering-transparent solves.

mod csr;
mod kernels;
mod lu;
pub mod order;
mod symbolic;
mod triplet;

pub use csr::CsrMatrix;
pub(crate) use lu::REFACTOR_PIVOT_RATIO;
pub use lu::{PivotStrategy, SparseLu, PIVOT_COLLAPSE_RATIO};
pub use order::{Amd, Natural, Ordering, OrderingChoice, Rcm};
pub use symbolic::SymbolicAnalysis;
pub use triplet::TripletMatrix;
