//! # sz-cad: the CSG and LambdaCAD languages
//!
//! The two languages of the Szalinski/ShrinkRay pipeline (paper Fig. 6),
//! realized as one [`Cad`] AST:
//!
//! * **flat CSG** — the input language produced by mesh decompilers or by
//!   flattening parametric OpenSCAD: primitives, affine transformations
//!   with constant vectors, and boolean operations
//!   ([`Cad::is_flat_csg`]);
//! * **LambdaCAD** — the output language, adding lists
//!   (`Nil`/`Cons`/`Concat`), [`Cad::Repeat`], [`Cad::Fold`],
//!   [`Cad::Mapi`] with [`Cad::Fun`], pure index loops
//!   ([`Cad::MapIdx`]), and arithmetic [`Expr`]s with trigonometry
//!   (degrees).
//!
//! The crate also provides:
//!
//! * [`Sexp`] — the s-expression interchange format, with a parser and
//!   printer ([`Cad`] implements `FromStr` through it; its `Display`
//!   writes the same text straight to the formatter, without building
//!   the tree);
//! * the evaluator [`Cad::eval_to_flat`] — the language's semantics:
//!   every LambdaCAD program unrolls to a flat CSG trace;
//! * program metrics ([`Cad::num_nodes`], [`Cad::depth`],
//!   [`Cad::num_prims`]) matching the columns of the paper's Table 1;
//! * a pretty-printer ([`Cad::to_pretty`]) in the paper's indented style.
//!
//! ## Example
//!
//! ```
//! use sz_cad::Cad;
//!
//! // The Figure 2 output program: five cubes spaced 2 apart.
//! let prog: Cad =
//!     "(Fold Union Empty (Mapi (Fun (Translate (* 2 (+ i 1)) 0 0 c)) (Repeat Unit 5)))"
//!         .parse().unwrap();
//! let flat = prog.eval_to_flat().unwrap();
//! assert!(flat.is_flat_csg());
//! assert_eq!(flat.num_prims(), 5);
//! assert!(prog.num_nodes() < flat.num_nodes());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod ast;
mod eval;
mod metrics;
mod num;
mod parse;
mod print;
mod sexp;

pub use ast::{AffineKind, BoolOp, Cad, Expr, V3};
pub use eval::{eval_expr, simplify_empty, EvalError};
pub use num::OrderedF64;
pub use parse::{cad_from_sexp, cad_to_sexp, expr_from_sexp, expr_to_sexp, CadParseError};
pub use print::pretty_sexp;
pub use sexp::{Sexp, SexpParseError};
