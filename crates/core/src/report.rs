//! Output-program inspection and Table-1-style reporting: loop shape
//! tags (`n1,60`), closed-form tags (`d1`/`d2`/`θ`), and structure
//! detection for ranking.

use sz_cad::{Cad, Expr};

/// True if the program exposes repetitive structure: any `Repeat` with a
/// constant count ≥ 2, `Mapi`, or index loop.
pub fn has_structure(cad: &Cad) -> bool {
    match cad {
        Cad::Repeat(c, n) => n.as_num().map(|x| x >= 2.0).unwrap_or(true) || has_structure(c),
        Cad::Mapi(_, _) | Cad::MapIdx(_, _) => true,
        Cad::Affine(_, _, c) | Cad::Fun(c) => has_structure(c),
        Cad::Binop(_, a, b) | Cad::Cons(a, b) | Cad::Concat(a, b) => {
            has_structure(a) || has_structure(b)
        }
        Cad::Fold(_, init, list) => has_structure(init) || has_structure(list),
        _ => false,
    }
}

/// Length of a list-shaped subterm, if statically known.
fn list_len(cad: &Cad) -> Option<usize> {
    match cad {
        Cad::Nil => Some(0),
        Cad::Cons(_, t) => Some(1 + list_len(t)?),
        Cad::Concat(a, b) => Some(list_len(a)? + list_len(b)?),
        Cad::Repeat(_, n) => n.as_num().map(|x| x as usize),
        Cad::Mapi(_, l) => list_len(l),
        Cad::MapIdx(bounds, _) => bounds
            .iter()
            .map(|b| b.as_num().map(|x| x as usize))
            .product::<Option<usize>>(),
        _ => None,
    }
}

/// Collects the paper's `n-l` loop tags (`n1,60`, `n2,2,3`, ...) for all
/// loops in the program. Nested `Mapi` layers over one list count once.
pub fn loop_tags(cad: &Cad) -> Vec<String> {
    fn go(cad: &Cad, out: &mut Vec<String>) {
        match cad {
            Cad::Mapi(_, l) => {
                // Descend through stacked Mapi layers to the base list.
                let mut base = l;
                while let Cad::Mapi(_, inner) = &**base {
                    base = inner;
                }
                match &**base {
                    Cad::MapIdx(bounds, body) => {
                        push_mapidx(bounds, out);
                        go(body, out);
                    }
                    other => {
                        if let Some(n) = list_len(other) {
                            out.push(format!("n1,{n}"));
                        }
                        go(other, out);
                    }
                }
            }
            Cad::MapIdx(bounds, body) => {
                push_mapidx(bounds, out);
                go(body, out);
            }
            Cad::Repeat(c, _) => go(c, out),
            Cad::Affine(_, _, c) | Cad::Fun(c) => go(c, out),
            Cad::Binop(_, a, b) | Cad::Cons(a, b) | Cad::Concat(a, b) => {
                go(a, out);
                go(b, out);
            }
            Cad::Fold(_, init, list) => {
                go(init, out);
                go(list, out);
            }
            _ => {}
        }
    }
    fn push_mapidx(bounds: &[Expr], out: &mut Vec<String>) {
        let bs: Vec<String> = bounds
            .iter()
            .map(|b| {
                b.as_num()
                    .map(|x| x.to_string())
                    .unwrap_or_else(|| "?".into())
            })
            .collect();
        out.push(format!("n{},{}", bounds.len(), bs.join(",")));
    }
    let mut out = Vec::new();
    go(cad, &mut out);
    out
}

/// Classifies the closed forms used by the program's index expressions:
/// `θ` for trigonometric, `d2` for quadratic, `d1` for linear.
pub fn fit_tags(cad: &Cad) -> Vec<String> {
    fn expr_tag(e: &Expr) -> Option<&'static str> {
        fn has_trig(e: &Expr) -> bool {
            match e {
                Expr::Sin(_) | Expr::Cos(_) => true,
                Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                    has_trig(a) || has_trig(b)
                }
                _ => false,
            }
        }
        fn has_square(e: &Expr) -> bool {
            match e {
                Expr::Mul(a, b) => {
                    matches!((&**a, &**b), (Expr::Idx(x), Expr::Idx(y)) if x == y)
                        || has_square(a)
                        || has_square(b)
                }
                Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Div(a, b) => {
                    has_square(a) || has_square(b)
                }
                Expr::Sin(a) | Expr::Cos(a) => has_square(a),
                _ => false,
            }
        }
        if !e.uses_index() {
            None
        } else if has_trig(e) {
            Some("θ")
        } else if has_square(e) {
            Some("d2")
        } else {
            Some("d1")
        }
    }
    fn go(cad: &Cad, out: &mut Vec<String>) {
        match cad {
            Cad::Affine(_, v, c) => {
                for comp in v.components() {
                    if let Some(t) = expr_tag(comp) {
                        out.push(t.to_owned());
                    }
                }
                go(c, out);
            }
            Cad::Repeat(c, _) | Cad::Fun(c) => go(c, out),
            Cad::MapIdx(_, body) => go(body, out),
            Cad::Binop(_, a, b) | Cad::Cons(a, b) | Cad::Concat(a, b) | Cad::Mapi(a, b) => {
                go(a, out);
                go(b, out);
            }
            Cad::Fold(_, init, list) => {
                go(init, out);
                go(list, out);
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    go(cad, &mut out);
    out.sort();
    out.dedup();
    out
}

/// One row of the paper's Table 1.
#[derive(Debug, Clone)]
pub struct TableRow {
    /// Benchmark name (e.g. `3362402:gear`).
    pub name: String,
    /// Input AST nodes.
    pub i_ns: usize,
    /// Output (best program) AST nodes.
    pub o_ns: usize,
    /// Input primitive count.
    pub i_p: usize,
    /// Output primitive count.
    pub o_p: usize,
    /// Input AST depth.
    pub i_d: usize,
    /// Output AST depth.
    pub o_d: usize,
    /// Loop tags of the structured program (`-` when none).
    pub n_l: String,
    /// Closed-form tags of the structured program (`-` when none).
    pub f: String,
    /// Synthesis wall-clock seconds.
    pub time_s: f64,
    /// 1-based rank of the first structured program in the top-k.
    pub rank: Option<usize>,
}

impl TableRow {
    /// The row of a run that turned `input` into `programs` (ranked, best
    /// first) in `time_s` seconds: the best program's sizes, and the tags
    /// and 1-based rank of the first structured program. `None` when
    /// there is no program.
    pub fn of_programs<'a>(
        name: &str,
        input: &Cad,
        programs: impl Iterator<Item = &'a Cad> + Clone,
        time_s: f64,
    ) -> Option<TableRow> {
        let best = programs.clone().next()?;
        let structured = programs.enumerate().find(|(_, p)| has_structure(p));
        let (n_l, f, rank) = match structured {
            Some((i, p)) => {
                let loops = loop_tags(p).join("; ");
                let fits = fit_tags(p).join(",");
                (
                    if loops.is_empty() { "-".into() } else { loops },
                    if fits.is_empty() { "-".into() } else { fits },
                    Some(i + 1),
                )
            }
            None => ("-".to_owned(), "-".to_owned(), None),
        };
        Some(TableRow {
            name: name.to_owned(),
            i_ns: input.num_nodes(),
            o_ns: best.num_nodes(),
            i_p: input.num_prims(),
            o_p: best.num_prims(),
            i_d: input.depth(),
            o_d: best.depth(),
            n_l,
            f,
            time_s,
            rank,
        })
    }

    /// Header matching the paper's column names.
    pub fn header() -> String {
        format!(
            "{:<24} {:>6} {:>6} {:>5} {:>5} {:>5} {:>5}  {:<14} {:<8} {:>8}  {:>3}",
            "Name", "#i-ns", "#o-ns", "#i-p", "#o-p", "#i-d", "#o-d", "n-l", "f", "#t(s)", "r"
        )
    }

    /// Formats the row for the console table.
    pub fn format(&self) -> String {
        format!(
            "{:<24} {:>6} {:>6} {:>5} {:>5} {:>5} {:>5}  {:<14} {:<8} {:>8.2}  {:>3}",
            self.name,
            self.i_ns,
            self.o_ns,
            self.i_p,
            self.o_p,
            self.i_d,
            self.o_d,
            self.n_l,
            self.f,
            self.time_s,
            self.rank
                .map(|r| r.to_string())
                .unwrap_or_else(|| "-".into()),
        )
    }

    /// Size reduction `1 − o_ns/i_ns`, the paper's headline metric.
    pub fn size_reduction(&self) -> f64 {
        1.0 - self.o_ns as f64 / self.i_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Cad {
        s.parse().unwrap()
    }

    #[test]
    fn structure_detection() {
        assert!(has_structure(&parse("(Repeat Unit 60)")));
        assert!(has_structure(&parse(
            "(Fold Union Empty (Mapi (Fun c) (Repeat Unit 3)))"
        )));
        assert!(!has_structure(&parse("(Union Unit Sphere)")));
        assert!(!has_structure(&parse("(Repeat Unit 1)")));
    }

    #[test]
    fn loop_tags_single() {
        let p = parse("(Fold Union Empty (Mapi (Fun (Rotate 0 0 (* 6 i) c)) (Repeat Unit 60)))");
        assert_eq!(loop_tags(&p), vec!["n1,60"]);
    }

    #[test]
    fn loop_tags_nested_mapi_counts_once() {
        let p = parse(
            "(Fold Union Empty (Mapi (Fun (Translate i 0 0 c)) (Mapi (Fun (Scale i 1 1 c)) (Repeat Unit 3))))",
        );
        assert_eq!(loop_tags(&p), vec!["n1,3"]);
    }

    #[test]
    fn loop_tags_mapidx() {
        let p = parse("(Fold Union Empty (MapIdx2 2 3 (Translate i j 0 Unit)))");
        assert_eq!(loop_tags(&p), vec!["n2,2,3"]);
    }

    #[test]
    fn fit_tag_classification() {
        assert_eq!(
            fit_tags(&parse("(Translate (* 2 (+ i 1)) 0 0 c)")),
            vec!["d1"]
        );
        assert_eq!(
            fit_tags(&parse("(Translate (+ (* 1.5 (* i i)) 2) 0 0 c)")),
            vec!["d2"]
        );
        assert_eq!(
            fit_tags(&parse("(Translate (* 7.07 (Sin (* 90 i))) 0 0 c)")),
            vec!["θ"]
        );
        assert!(fit_tags(&parse("(Translate 1 2 3 Unit)")).is_empty());
    }

    #[test]
    fn table_row_formatting() {
        let row = TableRow {
            name: "3362402:gear".into(),
            i_ns: 621,
            o_ns: 43,
            i_p: 63,
            o_p: 5,
            i_d: 62,
            o_d: 6,
            n_l: "n1,60".into(),
            f: "d1".into(),
            time_s: 1.25,
            rank: Some(2),
        };
        let s = row.format();
        assert!(s.contains("3362402:gear"));
        assert!(s.contains("n1,60"));
        assert!((row.size_reduction() - 0.9307568438).abs() < 1e-6);
        assert_eq!(TableRow::header().split_whitespace().count(), 11);
    }
}
