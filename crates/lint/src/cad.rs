//! Linting parsed [`Cad`] programs: degenerate transforms, empty boolean
//! operands, ill-sorted terms.
//!
//! The CAD s-expression parser is deliberately permissive — `NaN`, `inf`,
//! zero scales, and solid/list confusions all parse — because the paper's
//! corpus conversion must accept whatever the `.scad` frontend produced.
//! This pass runs between parsing and synthesis (`szb lint`) so
//! degenerate inputs are rejected with a location instead of producing
//! degenerate geometry or an evaluator panic mid-batch.

use sz_cad::{AffineKind, BoolOp, Cad, Expr, V3};

use crate::diag::{Diagnostic, Report, Severity};

/// The sort of a [`Cad`] term: the grammar shares one type between solids
/// and lists, so the linter re-derives which one each node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sort {
    Solid,
    List,
    Fun,
}

impl Sort {
    fn name(self) -> &'static str {
        match self {
            Sort::Solid => "solid",
            Sort::List => "list",
            Sort::Fun => "function",
        }
    }
}

/// The sort a node constructs, independent of its children.
fn sort_of(cad: &Cad) -> Sort {
    match cad {
        Cad::Empty
        | Cad::Unit
        | Cad::Cylinder
        | Cad::Sphere
        | Cad::Hexagon
        | Cad::External(_)
        | Cad::Param
        | Cad::Affine(..)
        | Cad::Binop(..)
        | Cad::Fold(..) => Sort::Solid,
        Cad::Nil
        | Cad::Cons(..)
        | Cad::Concat(..)
        | Cad::Repeat(..)
        | Cad::Mapi(..)
        | Cad::MapIdx(..) => Sort::List,
        Cad::Fun(_) => Sort::Fun,
    }
}

struct CadLinter<'a> {
    name: &'a str,
    path: Vec<usize>,
    report: Report,
}

impl CadLinter<'_> {
    fn location(&self) -> String {
        if self.path.is_empty() {
            format!("input:{}", self.name)
        } else {
            let dotted: Vec<String> = self.path.iter().map(usize::to_string).collect();
            format!("input:{}@{}", self.name, dotted.join("."))
        }
    }

    fn push(&mut self, severity: Severity, code: &'static str, message: String) {
        let loc = self.location();
        self.report
            .push(Diagnostic::new(severity, code, loc, message));
    }

    /// Any non-finite literal anywhere in an expression tree is SZL201.
    fn check_expr(&mut self, e: &Expr, ctx: &str) {
        match e {
            Expr::Num(x) => {
                if !x.get().is_finite() {
                    self.push(
                        Severity::Deny,
                        "SZL201",
                        format!("non-finite literal {} in {ctx}", x.get()),
                    );
                }
            }
            Expr::Idx(_) => {}
            Expr::Sin(a) | Expr::Cos(a) => self.check_expr(a, ctx),
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                self.check_expr(a, ctx);
                self.check_expr(b, ctx);
            }
        }
    }

    fn check_v3(&mut self, v: &V3, ctx: &str) {
        for c in v.components() {
            self.check_expr(c, ctx);
        }
    }

    fn require_sort(&mut self, child: &Cad, expected: Sort, ctx: &str) {
        let actual = sort_of(child);
        if actual != expected {
            self.push(
                Severity::Deny,
                "SZL206",
                format!(
                    "{ctx} expects a {}, found a {}",
                    expected.name(),
                    actual.name()
                ),
            );
        }
    }

    fn check_count(&mut self, e: &Expr, ctx: &str) {
        self.check_expr(e, ctx);
        if let Some(n) = e.as_num() {
            if n.is_finite() && (n <= 0.0 || n.fract() != 0.0) {
                self.push(
                    Severity::Warn,
                    "SZL205",
                    format!("degenerate {ctx} {n} (expected a positive integer)"),
                );
            }
        }
    }

    fn lint(&mut self, cad: &Cad) {
        match cad {
            Cad::Empty
            | Cad::Unit
            | Cad::Cylinder
            | Cad::Sphere
            | Cad::Hexagon
            | Cad::External(_)
            | Cad::Nil
            | Cad::Param => {}
            Cad::Affine(kind, v, child) => {
                let ctx = format!("{} vector", kind.name());
                self.check_v3(v, &ctx);
                if *kind == AffineKind::Scale {
                    if let Some(nums) = v.as_nums() {
                        if nums.contains(&0.0) {
                            self.push(
                                Severity::Deny,
                                "SZL202",
                                format!(
                                    "zero scale component [{}, {}, {}] collapses the geometry",
                                    nums[0], nums[1], nums[2]
                                ),
                            );
                        }
                    }
                }
                if v.as_nums() == Some(kind.identity()) {
                    self.push(
                        Severity::Info,
                        "SZL204",
                        format!("identity {} is a no-op", kind.name()),
                    );
                }
                self.require_sort(child, Sort::Solid, kind.name());
                self.recurse(child, 0);
            }
            Cad::Binop(op, a, b) => {
                if matches!(op, BoolOp::Union | BoolOp::Inter) {
                    for (idx, operand) in [(0usize, a), (1usize, b)] {
                        if **operand == Cad::Empty {
                            self.push(
                                Severity::Warn,
                                "SZL203",
                                format!("Empty operand {idx} of {}", op.name()),
                            );
                        }
                    }
                }
                self.require_sort(a, Sort::Solid, op.name());
                self.require_sort(b, Sort::Solid, op.name());
                self.recurse(a, 0);
                self.recurse(b, 1);
            }
            Cad::Cons(head, tail) => {
                self.require_sort(head, Sort::Solid, "Cons head");
                self.require_sort(tail, Sort::List, "Cons tail");
                self.recurse(head, 0);
                self.recurse(tail, 1);
            }
            Cad::Concat(a, b) => {
                self.require_sort(a, Sort::List, "Concat operand");
                self.require_sort(b, Sort::List, "Concat operand");
                self.recurse(a, 0);
                self.recurse(b, 1);
            }
            Cad::Repeat(child, n) => {
                self.check_count(n, "Repeat count");
                self.require_sort(child, Sort::Solid, "Repeat element");
                self.recurse(child, 0);
            }
            Cad::Mapi(fun, list) => {
                self.require_sort(fun, Sort::Fun, "Mapi function");
                self.require_sort(list, Sort::List, "Mapi list");
                self.recurse(fun, 0);
                self.recurse(list, 1);
            }
            Cad::MapIdx(bounds, body) => {
                if bounds.is_empty() || bounds.len() > 3 {
                    self.push(
                        Severity::Deny,
                        "SZL206",
                        format!("MapIdx has {} bounds (expected 1-3)", bounds.len()),
                    );
                }
                for b in bounds {
                    self.check_count(b, "MapIdx bound");
                }
                self.require_sort(body, Sort::Solid, "MapIdx body");
                self.recurse(body, 0);
            }
            Cad::Fun(body) => {
                self.require_sort(body, Sort::Solid, "Fun body");
                self.recurse(body, 0);
            }
            Cad::Fold(op, init, list) => {
                if **list == Cad::Nil {
                    self.push(
                        Severity::Warn,
                        "SZL203",
                        format!("Fold {} over the empty list", op.name()),
                    );
                }
                self.require_sort(init, Sort::Solid, "Fold init");
                self.require_sort(list, Sort::List, "Fold list");
                self.recurse(init, 0);
                self.recurse(list, 1);
            }
        }
    }

    fn recurse(&mut self, child: &Cad, idx: usize) {
        self.path.push(idx);
        self.lint(child);
        self.path.pop();
    }
}

/// Lints one parsed CAD program.
///
/// `name` anchors locations (`input:<name>@<child-index-path>`); for a
/// corpus file it is typically the file name. Findings, in pre-order:
///
/// * **SZL201** (deny) — non-finite (`NaN`/`inf`) numeric literal;
/// * **SZL202** (deny) — `Scale` with a zero component;
/// * **SZL203** (warn) — `Empty` operand of `Union`/`Inter`, or `Fold`
///   over the empty list;
/// * **SZL204** (info) — identity transform no-op;
/// * **SZL205** (warn) — non-positive or fractional constant
///   `Repeat`/`MapIdx` count;
/// * **SZL206** (deny) — ill-sorted term (a list where a solid is
///   required, etc.) or malformed `MapIdx` arity.
pub fn lint_cad(name: &str, cad: &Cad) -> Report {
    let mut linter = CadLinter {
        name,
        path: Vec::new(),
        report: Report::new(),
    };
    linter.lint(cad);
    linter.report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_models_have_no_findings() {
        let cad = Cad::union(
            Cad::translate(1.0, 2.0, 3.0, Cad::Unit),
            Cad::scale(2.0, 2.0, 2.0, Cad::Sphere),
        );
        let report = lint_cad("m", &cad);
        assert!(report.diagnostics.is_empty(), "{}", report.render_text());
    }

    #[test]
    fn zero_scale_is_deny() {
        let cad = Cad::scale(1.0, 0.0, 1.0, Cad::Unit);
        let report = lint_cad("m", &cad);
        assert_eq!(report.deny_count(), 1);
        assert_eq!(report.diagnostics[0].code, "SZL202");
        assert_eq!(report.diagnostics[0].location, "input:m");
    }

    #[test]
    fn non_finite_literal_is_deny() {
        let cad = Cad::translate(f64::NAN, 0.0, 0.0, Cad::Unit);
        let report = lint_cad("m", &cad);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == "SZL201" && d.severity == Severity::Deny));
        let cad = Cad::scale(f64::INFINITY, 1.0, 1.0, Cad::Unit);
        assert!(!lint_cad("m", &cad).is_clean());
    }

    #[test]
    fn empty_union_operand_is_warn() {
        let cad = Cad::union(Cad::Empty, Cad::Unit);
        let report = lint_cad("m", &cad);
        assert!(report.is_clean());
        assert_eq!(report.warn_count(), 1);
        assert_eq!(report.diagnostics[0].code, "SZL203");
        // Diff with an Empty minuend is meaningful, not flagged.
        let diff = Cad::diff(Cad::Empty, Cad::Unit);
        assert!(lint_cad("m", &diff).diagnostics.is_empty());
    }

    #[test]
    fn identity_transform_is_info() {
        let cad = Cad::translate(0.0, 0.0, 0.0, Cad::Unit);
        let report = lint_cad("m", &cad);
        assert_eq!(report.info_count(), 1);
        assert_eq!(report.diagnostics[0].code, "SZL204");
        let cad = Cad::scale(1.0, 1.0, 1.0, Cad::Unit);
        assert_eq!(lint_cad("m", &cad).info_count(), 1);
    }

    #[test]
    fn degenerate_repeat_count_is_warn() {
        let report = lint_cad("m", &Cad::Repeat(Box::new(Cad::Unit), Expr::num(0.0)));
        assert!(report.diagnostics.iter().any(|d| d.code == "SZL205"));
        let report = lint_cad("m", &Cad::Repeat(Box::new(Cad::Unit), Expr::num(2.5)));
        assert!(report.diagnostics.iter().any(|d| d.code == "SZL205"));
        let report = lint_cad("m", &Cad::repeat(Cad::Unit, 4));
        assert!(report.diagnostics.is_empty());
    }

    #[test]
    fn ill_sorted_terms_are_deny() {
        // A list where a solid is required.
        let cad = Cad::union(Cad::Nil, Cad::Unit);
        let report = lint_cad("m", &cad);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == "SZL206" && d.message.contains("Union")));
        // A solid where a list is required.
        let cad = Cad::fold(BoolOp::Union, Cad::Empty, Cad::Unit);
        assert!(!lint_cad("m", &cad).is_clean());
    }

    #[test]
    fn locations_use_child_index_paths() {
        let cad = Cad::union(Cad::Unit, Cad::scale(0.0, 1.0, 1.0, Cad::Sphere));
        let report = lint_cad("gear", &cad);
        assert_eq!(report.deny_count(), 1);
        assert_eq!(report.diagnostics[0].location, "input:gear@1");
    }

    #[test]
    fn nested_loop_bodies_are_linted() {
        let body = Cad::translate(f64::NAN, 0.0, 0.0, Cad::Param);
        let cad = Cad::mapi(body, Cad::list(vec![Cad::Unit]));
        let report = lint_cad("m", &cad);
        assert!(!report.is_clean(), "{}", report.render_text());
    }
}
