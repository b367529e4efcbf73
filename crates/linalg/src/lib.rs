//! # least-linalg
//!
//! Self-contained dense and sparse linear algebra substrate for the LEAST
//! reproduction. The paper's algorithms need:
//!
//! * a dense matrix type with parallel multiplication, the matrix exponential
//!   (for the NOTEARS baseline constraint `h(W) = tr(e^{W∘W}) − d`), and
//!   matrix powers (for the DAG-GNN polynomial constraint);
//! * a CSR sparse matrix with `O(nnz)` row/column sums, diagonal similarity
//!   scaling and masked element-wise kernels (for the LEAST spectral bound);
//! * exact (power iteration) and stochastic (Hutchinson) spectral utilities
//!   used to validate the bound and to track `h(W)` on graphs far too large
//!   for a dense exponential;
//! * a deterministic, seedable random number generator with the Gaussian,
//!   Exponential and Gumbel distributions required by the paper's linear SEM
//!   benchmark data (the offline crate set has no `rand_distr`).
//!
//! Everything is written from scratch: no BLAS, no `ndarray`.

pub mod coo;
pub mod csr;
pub mod dense;
pub mod error;
pub mod expm;
pub mod init;
pub mod lu;
pub mod matpow;
pub mod par;
pub mod power_iter;
pub mod rng;
pub mod serialize;
pub mod sym;
pub mod tile;
pub mod trace_est;
pub mod vecops;

pub use coo::Coo;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use error::LinalgError;
pub use rng::Xoshiro256pp;
pub use sym::PackedSym;

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, LinalgError>;
