//! The `szsnap` text codec against the parser it replaced, and the direct
//! `Display` of `Cad`/`Expr` against the s-expression tree it used to
//! build.
//!
//! `Snapshot` parses into one flat node vector; the oracle
//! (`crates/egraph/tests/support/snapshot_oracle.rs`) is the old
//! class-by-class parser. Over snapshots of suite16, the first 100 seed-42
//! corpus models, CAD graphs with awkward `External` names and Arith
//! graphs, and over mutated copies of all of them, the two must accept
//! the same texts, reject the others with the same error (line and
//! message), and re-serialize accepted texts to the same bytes. Mutated
//! `szsynth` texts, as the batch snapshot tier stores them, must parse or
//! fail without panicking.

#[path = "../crates/egraph/tests/support/snapshot_oracle.rs"]
mod snapshot_oracle;

use std::sync::OnceLock;

use proptest::prelude::*;
use snapshot_oracle::OracleSnapshot;
use sz_cad::{cad_to_sexp, expr_to_sexp, AffineKind, BoolOp, Cad, Expr, V3};
use sz_egraph::tests_lang::{Arith, ConstFold};
use sz_egraph::{Language, RecExpr, Rewrite, Runner, Scheduler, Snapshot};
use sz_gen::{generate_model, GenSpec};
use szalinski::{
    cad_to_lang, CadAnalysis, CadGraph, CadLang, RunOptions, SynthConfig, SynthSnapshot,
    Synthesizer,
};

/// The node language of a base snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lang {
    Cad,
    Arith,
}

/// The unmutated texts the properties start from.
struct Bases {
    /// `(name, language, szsnap text)`.
    snaps: Vec<(String, Lang, String)>,
    /// `szsynth` texts, with and without their saturation-phase section.
    synths: Vec<String>,
}

fn bases() -> &'static Bases {
    static BASES: OnceLock<Bases> = OnceLock::new();
    BASES.get_or_init(|| {
        let mut bases = Bases {
            snaps: Vec::new(),
            synths: Vec::new(),
        };
        let spec: GenSpec = "count=100,seed=42,noise=0.0005".parse().unwrap();
        let models = sz_models::all_models()
            .into_iter()
            .map(|m| (m.name.to_owned(), m.flat))
            .chain(
                (0..spec.count)
                    .map(|i| (sz_gen::model_name(spec.seed, i), generate_model(&spec, i))),
            );
        let session = Synthesizer::new(SynthConfig::new());
        for (name, input) in models {
            let synth = session
                .run(&input, RunOptions::new().capture_snapshot(true))
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .snapshot
                .unwrap_or_else(|| panic!("{name}: no snapshot captured"));
            let text = synth.egraph_snapshot().to_string();
            bases.snaps.push((name.clone(), Lang::Cad, text));
            if let Some(phase) = synth.sat_phase() {
                let text = phase.snapshot().to_string();
                bases
                    .snaps
                    .push((format!("{name} sat-phase"), Lang::Cad, text));
            }
            bases.synths.push(synth.to_string());
            bases.synths.push(synth.without_sat_phase().to_string());
        }
        // `External` names the format must %-escape.
        for (i, names) in [["hull part(1)", "naïve;\"x\"%"], ["tab\there", "ünï cödé"]]
            .iter()
            .enumerate()
        {
            let input = Cad::union(
                Cad::External(names[0].to_owned()),
                Cad::translate(1.5, -2.0, 3e-5, Cad::External(names[1].to_owned())),
            );
            let mut egraph = CadGraph::new(CadAnalysis);
            let root = egraph.add_expr(&cad_to_lang(&input));
            egraph.rebuild();
            let text = Snapshot::of_egraph(&egraph, &[root]).unwrap().to_string();
            bases
                .snaps
                .push((format!("externals {i}"), Lang::Cad, text));
        }
        // Arith graphs under constant folding, with both schedulers.
        let rules: Vec<Rewrite<Arith, ConstFold>> = vec![
            Rewrite::parse("comm-add", "(+ ?a ?b)", "(+ ?b ?a)").unwrap(),
            Rewrite::parse("comm-mul", "(* ?a ?b)", "(* ?b ?a)").unwrap(),
            Rewrite::parse("assoc-add", "(+ ?a (+ ?b ?c))", "(+ (+ ?a ?b) ?c)").unwrap(),
            Rewrite::parse("distr", "(* ?a (+ ?b ?c))", "(+ (* ?a ?b) (* ?a ?c))").unwrap(),
        ];
        for expr in [
            "x",
            "(+ 1 (* 2 x))",
            "(* (+ x y) (+ y 3))",
            "(+ (+ x (* y z)) (* -2 (+ z 0)))",
        ] {
            let expr: RecExpr<Arith> = expr.parse().unwrap();
            for iters in [1, 3] {
                for scheduler in [Scheduler::Simple, Scheduler::backoff_with(4, 2)] {
                    let runner = Runner::new(ConstFold)
                        .with_expr(&expr)
                        .with_iter_limit(iters)
                        .with_node_limit(5_000)
                        .with_scheduler(scheduler)
                        .run(&rules);
                    let text = runner.snapshot().unwrap().to_string();
                    bases
                        .snaps
                        .push((format!("{expr} x{iters}"), Lang::Arith, text));
                }
            }
        }
        bases
    })
}

/// Parses `text` with both parsers and asserts the same verdict: equal
/// errors, or equal re-serializations.
fn assert_agree<L: Language>(text: &str, what: &str) {
    let new = text.parse::<Snapshot<L>>();
    let old = text.parse::<OracleSnapshot<L>>();
    match (new, old) {
        (Ok(new), Ok(old)) => assert_eq!(
            new.to_string(),
            old.to_string(),
            "{what}: re-serializations differ on {text:?}"
        ),
        (Err(new), Err(old)) => assert_eq!(new, old, "{what}: errors differ on {text:?}"),
        (new, old) => panic!(
            "{what}: verdicts differ on {text:?}: new {:?}, oracle {:?}",
            new.err(),
            old.err()
        ),
    }
}

fn assert_agree_in(lang: Lang, text: &str, what: &str) {
    match lang {
        Lang::Cad => assert_agree::<CadLang>(text, what),
        Lang::Arith => assert_agree::<Arith>(text, what),
    }
}

/// Rewrites the class blocks of `text` with `edit`, leaving the lines
/// before the first block and from `roots` on as they are. Texts with no
/// class block or no `roots` line come back unchanged.
fn edit_class_blocks(text: &str, edit: impl FnOnce(&mut Vec<String>)) -> String {
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    let first = lines.iter().position(|l| l.starts_with("class "));
    let roots = lines.iter().position(|l| l.starts_with("roots"));
    let (Some(first), Some(roots)) = (first, roots) else {
        return text.to_owned();
    };
    if first > roots {
        return text.to_owned();
    }
    let mut blocks: Vec<String> = Vec::new();
    for line in &lines[first..roots] {
        if line.starts_with("class ") || blocks.is_empty() {
            blocks.push(String::new());
        }
        blocks.last_mut().unwrap().push_str(line);
    }
    edit(&mut blocks);
    let mut out: String = lines[..first].concat();
    out.extend(blocks);
    out.push_str(&lines[roots..].concat());
    out
}

/// The text with its class blocks in reverse order.
fn reverse_class_blocks(text: &str) -> String {
    edit_class_blocks(text, |blocks| blocks.reverse())
}

/// The text with a copy of class block `i` inserted before block `at`
/// (both taken modulo the block count).
fn duplicate_class_block(text: &str, i: u64, at: u64) -> String {
    edit_class_blocks(text, |blocks| {
        let n = blocks.len() as u64;
        let copy = blocks[(i % n) as usize].clone();
        blocks.insert((at % (n + 1)) as usize, copy);
    })
}

/// The text with class block `i`'s header carrying block `j`'s id.
fn steal_class_id(text: &str, i: u64, j: u64) -> String {
    edit_class_blocks(text, |blocks| {
        let n = blocks.len() as u64;
        let id = |block: &str| block.split(' ').nth(1).unwrap_or("").to_owned();
        let stolen = id(&blocks[(j % n) as usize]);
        let block = &mut blocks[(i % n) as usize];
        let own = id(block);
        *block = block.replacen(&format!("class {own} "), &format!("class {stolen} "), 1);
    })
}

/// Separators that replace the single spaces of one line. The whitespace
/// splitter accepts each; literal prefixes such as `class ` do not.
const SEPARATORS: [&str; 3] = ["\t", "\x0B", "  "];
/// Non-ASCII characters to insert: letters, Unicode whitespace the
/// splitter treats as a separator, and a byte-order mark it does not.
const NON_ASCII: [char; 6] = ['é', '猫', '\u{a0}', '\u{85}', '\u{2003}', '\u{feff}'];

/// Applies one edit to `text`; `kind` picks the edit, `a` and `b` place
/// and parameterize it.
fn mutate(text: &str, kind: u8, a: u64, b: u64) -> String {
    let mut lines: Vec<String> = text.split('\n').map(str::to_owned).collect();
    let line = (a % lines.len() as u64) as usize;
    let other = (b % lines.len() as u64) as usize;
    match kind {
        // Truncation at a char boundary.
        0 => {
            let mut cut = (a % (text.len() as u64 + 1)) as usize;
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            return text[..cut].to_owned();
        }
        // A flipped bit in an ASCII byte (the text stays UTF-8).
        1 => {
            let mut bytes = text.as_bytes().to_vec();
            let i = (a % bytes.len().max(1) as u64) as usize;
            if bytes.get(i).is_some_and(u8::is_ascii) {
                bytes[i] ^= 1 << (b % 7);
            }
            return String::from_utf8(bytes).expect("ASCII flips keep UTF-8");
        }
        2 => lines.swap(line, other),
        3 => {
            let copy = lines[line].clone();
            lines.insert(line, copy);
        }
        4 => {
            lines.remove(line);
        }
        5 => return reverse_class_blocks(text),
        11 => return duplicate_class_block(text, a, b),
        12 => return steal_class_id(text, a, b),
        6 => {
            let sep = SEPARATORS[(b % SEPARATORS.len() as u64) as usize];
            lines[line] = lines[line].replace(' ', sep);
        }
        7 => return text.replace('\n', "\r\n"),
        // A `+` sign or a leading zero on one numeric token.
        8 => {
            let prefix = if b.is_multiple_of(2) { "+" } else { "0" };
            let toks: Vec<&str> = lines[line].split(' ').collect();
            let numeric: Vec<usize> = (0..toks.len())
                .filter(|&i| !toks[i].is_empty() && toks[i].bytes().all(|c| c.is_ascii_digit()))
                .collect();
            if let Some(&pick) = numeric.get((b / 2 % numeric.len().max(1) as u64) as usize) {
                let mut toks: Vec<String> = toks.iter().map(|t| (*t).to_owned()).collect();
                toks[pick].insert_str(0, prefix);
                lines[line] = toks.join(" ");
            }
        }
        // A %-escape of the first character of the line's first token.
        9 => {
            if let Some(c) = lines[line].chars().next().filter(char::is_ascii) {
                lines[line].replace_range(..1, &format!("%{:02x}", c as u8));
            }
        }
        // A non-ASCII character at a char boundary.
        10 => {
            let c = NON_ASCII[(b % NON_ASCII.len() as u64) as usize];
            let l = &mut lines[line];
            let mut at = (b / 8 % (l.len() as u64 + 1)) as usize;
            while !l.is_char_boundary(at) {
                at -= 1;
            }
            l.insert(at, c);
        }
        _ => unreachable!("edit kinds are 0..13"),
    }
    lines.join("\n")
}

#[test]
fn base_snapshots_agree_with_the_oracle_and_reserialize_byte_identically() {
    let bases = bases();
    for (name, lang, text) in &bases.snaps {
        // The flat layout writes the bytes the old layout wrote.
        let reprinted = match lang {
            Lang::Cad => text
                .parse::<OracleSnapshot<CadLang>>()
                .map(|s| s.to_string()),
            Lang::Arith => text.parse::<OracleSnapshot<Arith>>().map(|s| s.to_string()),
        };
        assert_eq!(reprinted.as_ref(), Ok(text), "{name}");
        assert_agree_in(*lang, text, name);
        // Class blocks in any order regroup into the sorted layout.
        let reversed = reverse_class_blocks(text);
        let regrouped = match lang {
            Lang::Cad => reversed.parse::<Snapshot<CadLang>>().map(|s| s.to_string()),
            Lang::Arith => reversed.parse::<Snapshot<Arith>>().map(|s| s.to_string()),
        };
        assert_eq!(regrouped.as_ref(), Ok(text), "{name}, classes reversed");
        // A repeated class block is rejected, on the line after the blocks.
        let repeated = duplicate_class_block(text, 0, u64::MAX);
        assert_agree_in(*lang, &repeated, &format!("{name}, first block repeated"));
        let rejected = match lang {
            Lang::Cad => repeated.parse::<Snapshot<CadLang>>().is_err(),
            Lang::Arith => repeated.parse::<Snapshot<Arith>>().is_err(),
        };
        assert!(rejected, "{name}: a repeated class block must not parse");
    }
    for text in &bases.synths {
        let back: SynthSnapshot = text.parse().unwrap();
        assert_eq!(back.to_string(), *text);
    }
}

#[test]
fn rare_corruptions_agree_with_the_oracle() {
    // Error paths the random edits seldom reach, each once on a tiny
    // graph: `x` (class 0) and `(+ x x)` (class 1), plus a merged id 2.
    let tail = "roots 1\niterations 0\nscheduler simple\nend\n";
    let good = format!("szsnap v1\nuf 3\n0 1 1\nclass 0 1\nx\nclass 1 1\n+ 0 0\n{tail}");
    assert!(good.parse::<Snapshot<Arith>>().is_ok());
    for text in [
        good.clone(),
        good.replace("0 1 1", "0 2 1"),
        good.replace("0 1 1", "1 0 1"),
        good.replace("class 1 1\n", "class 1 999999999999\n"),
        good.replace("class 1 1\n", "class 1 4\n"),
        good.replace("x\n", "%7\n"),
        good.replace("x\n", "%zzx\n"),
        good.replace("x\n", "%78\n"),
        good.replace("x\n", "%c3%28\n"),
        good.replace("+ 0 0", "+ 0 2"),
        good.replace("+ 0 0", "+ 0 0 0"),
        good.replace("roots 1", "roots 2"),
        good.replace("roots 1", "roots 3"),
        good.replace("uf 3", "uf 999999999999999"),
        good.replace("iterations 0", "iterations -1"),
        good.replace("scheduler simple", "scheduler backoff 4 2\nrulestats 0:1 x"),
        good.replace("scheduler simple", "scheduler backoff 4\nrulestats"),
        format!("{good}\n\n"),
        format!("{good}\nend\n"),
        good.replace('\n', "\r\n"),
        "szsnap v1\nuf 0\nroots\niterations 0\nscheduler simple\nend".to_owned(),
        "szsnap v1\nuf 1\n0\nroots\niterations 0\nscheduler simple\nend\n".to_owned(),
        String::new(),
    ] {
        assert_agree::<Arith>(&text, "hand-written corruption");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn mutated_snapshots_agree_with_the_oracle(
        pick in 0usize..100_000,
        edits in prop::collection::vec((0u8..13, 0u64..u64::MAX, 0u64..u64::MAX), 1..4),
    ) {
        let (name, lang, text) = &bases().snaps[pick % bases().snaps.len()];
        let mut text = text.clone();
        for &(kind, a, b) in &edits {
            text = mutate(&text, kind, a, b);
        }
        assert_agree_in(*lang, &text, &format!("{name} after {edits:?}"));
    }

    #[test]
    fn mutated_synth_snapshots_never_panic(
        pick in 0usize..100_000,
        edits in prop::collection::vec((0u8..13, 0u64..u64::MAX, 0u64..u64::MAX), 1..4),
    ) {
        let synths = &bases().synths;
        let mut text = synths[pick % synths.len()].clone();
        for &(kind, a, b) in &edits {
            text = mutate(&text, kind, a, b);
        }
        let _ = SynthSnapshot::probe_header(&text);
        if let Ok(snapshot) = text.parse::<SynthSnapshot>() {
            // Whatever parses serializes to text that parses back to it.
            let again: SynthSnapshot = snapshot.to_string().parse().unwrap();
            prop_assert_eq!(again, snapshot);
        }
    }
}

/// Numeric literals: small integers, negatives, and magnitudes from
/// 1e-12 to 1e12 whose decimal expansions are long.
fn arb_literal() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-50i64..50).prop_map(|n| n as f64),
        -1000.0f64..1000.0,
        (-9.0f64..9.0, -12i32..13).prop_map(|(m, e)| m * 10f64.powi(e)),
    ]
}

fn arb_expr() -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        arb_literal().prop_map(Expr::num),
        (0u8..3).prop_map(Expr::Idx),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (0u8..4, inner.clone(), inner.clone()).prop_map(|(op, a, b)| {
                let (a, b) = (Box::new(a), Box::new(b));
                match op {
                    0 => Expr::Add(a, b),
                    1 => Expr::Sub(a, b),
                    2 => Expr::Mul(a, b),
                    _ => Expr::Div(a, b),
                }
            }),
            inner.clone().prop_map(|a| Expr::Sin(Box::new(a))),
            inner.prop_map(|a| Expr::Cos(Box::new(a))),
        ]
    })
}

const EXTERNAL_NAMES: [&str; 4] = ["hull_part_1", "mirror", "Ext:x", "naïve"];

fn arb_cad() -> BoxedStrategy<Cad> {
    let leaf = prop_oneof![
        Just(Cad::Empty),
        Just(Cad::Unit),
        Just(Cad::Cylinder),
        Just(Cad::Sphere),
        Just(Cad::Hexagon),
        Just(Cad::Nil),
        Just(Cad::Param),
        (0usize..EXTERNAL_NAMES.len()).prop_map(|i| Cad::External(EXTERNAL_NAMES[i].to_owned())),
    ];
    let bool_op = || prop_oneof![Just(BoolOp::Union), Just(BoolOp::Diff), Just(BoolOp::Inter)];
    leaf.prop_recursive(3, 24, 2, move |inner| {
        prop_oneof![
            (
                prop_oneof![
                    Just(AffineKind::Translate),
                    Just(AffineKind::Scale),
                    Just(AffineKind::Rotate)
                ],
                arb_expr(),
                arb_expr(),
                arb_expr(),
                inner.clone(),
            )
                .prop_map(|(kind, x, y, z, c)| Cad::Affine(
                    kind,
                    V3(x, y, z),
                    Box::new(c)
                )),
            (bool_op(), inner.clone(), inner.clone()).prop_map(|(op, a, b)| Cad::Binop(
                op,
                Box::new(a),
                Box::new(b)
            )),
            (0u8..4, inner.clone(), inner.clone()).prop_map(|(form, a, b)| {
                let (a, b) = (Box::new(a), Box::new(b));
                match form {
                    0 => Cad::Cons(a, b),
                    1 => Cad::Concat(a, b),
                    2 => Cad::Mapi(a, b),
                    _ => Cad::Fun(a),
                }
            }),
            (inner.clone(), arb_expr()).prop_map(|(c, n)| Cad::Repeat(Box::new(c), n)),
            (prop::collection::vec(arb_expr(), 1..4), inner.clone())
                .prop_map(|(bounds, body)| Cad::MapIdx(bounds, Box::new(body))),
            (bool_op(), inner.clone(), inner).prop_map(|(op, init, list)| Cad::Fold(
                op,
                Box::new(init),
                Box::new(list)
            )),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn cad_display_matches_the_sexp_tree(cad in arb_cad()) {
        prop_assert_eq!(cad.to_string(), cad_to_sexp(&cad).to_string());
    }

    #[test]
    fn expr_display_matches_the_sexp_tree(expr in arb_expr()) {
        prop_assert_eq!(expr.to_string(), expr_to_sexp(&expr).to_string());
    }
}
