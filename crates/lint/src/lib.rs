//! # sz-lint: static analysis for the synthesis stack
//!
//! Three analyzers, one [`Diagnostic`] vocabulary:
//!
//! 1. **Rule-set analysis** ([`lint_ruleset`]) over any
//!    `&[Rewrite<L, N>]` — binding soundness, unused variables, exact and
//!    α-renamed duplicates, inverse pairs, expansivity. Works through the
//!    introspection surface `sz-egraph` exposes
//!    ([`Rewrite::rhs_pattern`](sz_egraph::Rewrite::rhs_pattern),
//!    [`Rewrite::compiled`](sz_egraph::Rewrite::compiled)); dynamic Rust
//!    appliers are treated as opaque.
//! 2. **VM program verification** ([`verify_program`]) — an abstract
//!    interpreter over the compiled e-matcher's Bind/Compare/Lookup
//!    stream ([`ProgramView`](sz_egraph::ProgramView)), reconciled
//!    against the source pattern's [`PatternShape`]. The static
//!    complement of the dynamic VM-vs-naive differential oracle: it
//!    catches pattern-compiler bugs without running an e-graph.
//! 3. **CAD input linting** ([`lint_cad`]) over parsed
//!    [`Cad`](sz_cad::Cad) programs — degenerate transforms, empty
//!    boolean operands, ill-sorted terms — run by `szb lint` before a
//!    corpus enters the batch pipeline.
//!
//! Every finding carries a stable code:
//!
//! | code | severity | meaning |
//! |--------|------|---------------------------------------------------|
//! | SZL001 | deny | RHS pattern variable unbound by the LHS            |
//! | SZL002 | warn | LHS variable never read by the RHS                 |
//! | SZL003 | warn | exact duplicate rule                               |
//! | SZL004 | warn | duplicate rule up to variable renaming             |
//! | SZL005 | info | inverse rule pair (incl. self-inverse comm rules)  |
//! | SZL006 | info | expansive rule (RHS strictly larger than LHS)      |
//! | SZL101 | deny | VM register used before definition / clobbered     |
//! | SZL102 | deny | VM ground-table index out of range                 |
//! | SZL103 | deny | VM substitution maps a variable badly              |
//! | SZL104 | deny | VM program disagrees with its source pattern       |
//! | SZL200 | deny | corpus file failed to parse (emitted by `sz-batch`)|
//! | SZL201 | deny | non-finite (`NaN`/`inf`) numeric literal           |
//! | SZL202 | deny | `Scale` with a zero component                      |
//! | SZL203 | warn | `Empty` operand of `Union`/`Inter`, `Fold` of `Nil`|
//! | SZL204 | info | identity transform no-op                           |
//! | SZL205 | warn | non-positive / fractional `Repeat`/`MapIdx` count  |
//! | SZL206 | deny | ill-sorted term (solid/list/function confusion)    |
//!
//! Severities gate differently: **deny** findings fail `szb lint` and turn
//! into a structured `SynthError` inside `szalinski::Synthesizer`;
//! **warn**/**info** are reported but never fail a build. Both renderings
//! ([`Report::render_text`], [`Report::to_json`]) are deterministic and
//! pinned byte-exact by golden fixtures in `tests/golden.rs`.
//!
//! ## Example
//!
//! ```
//! use sz_egraph::{Rewrite, tests_lang::Arith};
//! use sz_lint::lint_ruleset;
//!
//! let rules: Vec<Rewrite<Arith, ()>> = vec![
//!     Rewrite::parse("comm-add", "(+ ?a ?b)", "(+ ?b ?a)").unwrap(),
//! ];
//! let report = lint_ruleset(&rules);
//! assert!(report.is_clean());
//! // Commutativity is its own inverse — flagged info-level for audit.
//! assert_eq!(report.info_count(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cad;
mod diag;
mod program;
mod ruleset;

pub use cad::lint_cad;
pub use diag::{Diagnostic, Report, Severity};
pub use program::{verify_program, PatternShape};
pub use ruleset::lint_ruleset;
