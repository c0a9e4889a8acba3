//! # sz-solver: arithmetic function solvers
//!
//! Szalinski's "arithmetic component": given lists of concrete vector
//! components extracted from the e-graph, find editable **closed forms**
//! (paper §4.1). Three model classes are supported, exactly as in the
//! paper:
//!
//! 1. degree-1 polynomials `a·i + b` — [`fit_poly1`];
//! 2. degree-2 polynomials `a·i² + b·i + c` — [`fit_poly2`];
//! 3. sinusoids `a·sin(b·i + c) + d` (degrees) — [`fit_trig`].
//!
//! The paper solves (1)–(2) with Z3 under an explicit noise tolerance
//! (`|model(i) − x_i| ≤ ε`, ε = 0.001) and (3) with nonlinear least
//! squares on top of the Owl library. Both external dependencies are
//! replaced here by self-contained implementations with the same
//! contracts: least squares via a one-sided Jacobi [`svd`], hard ε
//! *verification* of every returned polynomial, and a frequency-scan +
//! Gauss–Newton sine fitter selected by the coefficient of determination
//! ([`r_squared`]), with parameter snapping ([`snap`], [`snap_angle`]) so
//! results stay human-editable.
//!
//! [`fit_sequence`] performs the paper's model selection and
//! [`FittedFn::to_expr`] emits the result as a LambdaCAD expression
//! (including the `360·(i+1)/b` rotation heuristic via
//! [`FittedFn::to_rotation_expr`]).
//!
//! ## The least-squares kernel
//!
//! Every solve — the polynomial fits, each of the sinusoid fit's `n`
//! frequency-scan solves and its Gauss–Newton steps, and the public
//! [`svd`] and [`lstsq`] — runs on one one-sided Jacobi kernel. It works
//! in place on a column-major slice (column `j` of an `m × n` matrix is
//! `[j·m, (j+1)·m)`), so a rotation streams down two contiguous columns.
//! The fitters fill their design matrices into one scratch buffer per
//! call and keep `V` and the singular values on the stack (at most four
//! columns); the sinusoid fit also keeps the sampled `sin`/`cos` columns
//! for the residual instead of recomputing them. [`svd`] and [`lstsq`]
//! copy their row-major [`Mat`] into the same layout.
//!
//! **Bit-identity contract.** The kernel performs the textbook row-major
//! Jacobi SVD and truncated pseudo-inverse operation for operation: the
//! column sums `α`, `β`, `γ` accumulate in row order, the rotation, the
//! column norms (the same `Iterator::sum`) and the `rcond` truncation are
//! the same expressions. Rust does not contract or reassociate floating
//! point, so every fit equals the allocating row-major solver's in every
//! bit. The workspace's `tests/solver_differential.rs` checks this
//! against that solver, kept as a test oracle.
//!
//! ## Example
//!
//! ```
//! use sz_solver::fit_sequence;
//! // Noisy decompiler output, recovered as 5·(i+1):
//! let f = fit_sequence(&[5.001, 10.00001, 14.9998, 20.0], 1e-3).unwrap();
//! assert_eq!(f.to_expr(0).to_string(), "(* 5 (+ i 1))");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod fit;
mod mat;
mod poly;
mod snap;
mod svd;
mod trig;

pub use fit::{fit_sequence, fit_sequence_all, FittedFn};
pub use mat::Mat;
pub use poly::{fit_const, fit_poly1, fit_poly2, Poly, DEFAULT_EPS};
pub use snap::{is_nice, snap, snap_angle, snap_rational};
pub use svd::{lstsq, svd, Svd};
pub use trig::{fit_trig, r_squared, sinusoid_ruled_out, TrigFit, MIN_TRIG_R2};
