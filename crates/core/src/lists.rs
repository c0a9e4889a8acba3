//! Reading concrete lists out of the e-graph and writing new list
//! structure back in — the interface between the e-graph and the solver
//! passes, which share one [`SiteTable`].

use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use sz_cad::{BoolOp, OrderedF64};
use sz_egraph::{FxBuildHasher, Id};

use crate::analysis::{num_of, CadGraph};
use crate::determinize::{determinize, ChainCache, DetList};
use crate::CadLang;

/// A `Fold` occurrence: the class holding it and its three children.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FoldSite {
    /// The e-class containing the `Fold` node.
    pub class: Id,
    /// The folded boolean operator.
    pub op: BoolOp,
    /// The accumulator class.
    pub init: Id,
    /// The list class.
    pub list: Id,
}

/// Finds every `Fold` node in the e-graph (paper Fig. 12's
/// `match_eg (eg, Fold (Var f) (Var acc) (Var l))`).
pub(crate) fn fold_sites(egraph: &CadGraph) -> Vec<FoldSite> {
    let mut sites = Vec::new();
    for class in egraph.classes() {
        for node in egraph.nodes_of(class) {
            let CadLang::Fold([op, init, list]) = node else {
                continue;
            };
            let Some(op) = egraph.class_nodes(*op).find_map(CadLang::as_fold_op) else {
                continue;
            };
            sites.push(FoldSite {
                class: class.id,
                op,
                init: *init,
                list: *list,
            });
        }
    }
    canonicalize(egraph, &mut sites);
    sites
}

/// Canonicalizes, sorts and dedups `sites`, as [`fold_sites`] returns them.
fn canonicalize(egraph: &CadGraph, sites: &mut Vec<FoldSite>) {
    for site in sites.iter_mut() {
        site.class = egraph.find(site.class);
        site.init = egraph.find(site.init);
        site.list = egraph.find(site.list);
    }
    sites.sort_by_key(|s| (s.class, s.list));
    sites.dedup();
}

/// Reads the concrete element list of a list class by following
/// `Cons`/`Nil` (and constant-count `Repeat`) structure. Returns the
/// element class ids in order, or `None` if the class has no concrete
/// spine.
pub(crate) fn read_list(egraph: &CadGraph, id: Id) -> Option<Vec<Id>> {
    let mut out = Vec::new();
    let mut cur = egraph.find(id);
    for _ in 0..1_000_000 {
        if egraph.class_nodes(cur).any(|n| matches!(n, CadLang::Nil)) {
            return Some(out);
        }
        if let Some(CadLang::Cons([h, t])) = egraph
            .class_nodes(cur)
            .find(|n| matches!(n, CadLang::Cons(_)))
        {
            out.push(egraph.find(*h));
            cur = egraph.find(*t);
            continue;
        }
        if let Some(CadLang::Repeat([c, n])) = egraph
            .class_nodes(cur)
            .find(|n| matches!(n, CadLang::Repeat(_)))
        {
            let n = num_of(egraph, *n)?;
            if n < 0.0 || n.fract() != 0.0 || n > 100_000.0 {
                return None;
            }
            out.extend(std::iter::repeat_n(egraph.find(*c), n as usize));
            return Some(out);
        }
        return None;
    }
    None
}

/// Adds an explicit `Cons` list of the given element classes, returning
/// the class of its head.
pub(crate) fn add_cons_list(egraph: &mut CadGraph, elements: &[Id]) -> Id {
    let mut tail = egraph.add(CadLang::Nil);
    for &e in elements.iter().rev() {
        tail = egraph.add(CadLang::Cons([e, tail]));
    }
    tail
}

/// Adds a numeric literal.
pub(crate) fn add_num(egraph: &mut CadGraph, x: f64) -> Id {
    egraph.add(CadLang::Num(OrderedF64::new(x)))
}

/// The `Fold` sites and lists the three inference passes read in turn
/// (paper Fig. 5): one site scan, and one read and one determinization per
/// list, through one chain cache. Every inference union goes through
/// [`SiteTable::union_new`]: merging the class `add` just made keeps each
/// cached read exact, as the target stays the root and gains a node
/// (`Fold`, `Repeat`, `Mapi`, `MapIdx*` or `Concat`) that no read looks
/// at. A union that merges a class that existed before, or a rebuild that
/// performs unions ([`SiteTable::rebuilt`]), drops every cached read and
/// has the next pass rescan the sites. Debug builds recheck every read.
#[derive(Default)]
pub(crate) struct SiteTable {
    /// The `Fold` sites, as [`fold_sites`] returns them.
    sites: Vec<FoldSite>,
    /// Whether `sites` holds a scan that re-canonicalizing keeps current.
    scanned: bool,
    /// The lists read so far, by canonical class.
    lists: HashMap<Id, ListEntry, FxBuildHasher>,
    /// Element chains, shared by every determinization.
    chains: ChainCache,
    /// The lists this pass visited.
    visited: HashSet<Id, FxBuildHasher>,
}

/// A list's elements and their determinizations.
pub(crate) type ListRead = (Rc<[Id]>, Rc<[DetList]>);
/// A visited list's canonical class and its determinizations.
pub(crate) type Visit = (Id, Rc<[DetList]>);

#[derive(Default)]
struct ListEntry {
    /// Its elements, none when it has no concrete spine.
    elements: Option<Rc<[Id]>>,
    /// Their determinizations.
    dets: Option<Rc<[DetList]>>,
}

impl SiteTable {
    /// Starts a pass over the rebuilt `egraph`: returns its sites in order.
    pub(crate) fn start_pass(&mut self, egraph: &CadGraph) -> Vec<FoldSite> {
        if !std::mem::replace(&mut self.scanned, true) {
            self.sites = fold_sites(egraph);
        }
        canonicalize(egraph, &mut self.sites);
        debug_assert!(self.sites == fold_sites(egraph), "stale fold sites");
        self.visited.clear();
        self.sites.clone()
    }

    /// The canonical class of `list` and its determinizations, unless this
    /// pass visited that class already (a mid-pass union can make two
    /// lists one) or it has fewer than `min_len` elements.
    pub(crate) fn visit(&mut self, egraph: &CadGraph, list: Id, min_len: usize) -> Option<Visit> {
        let list = egraph.find(list);
        if !self.visited.insert(list) {
            return None;
        }
        Some((list, self.read(egraph, list, min_len)?.1))
    }

    /// The elements of `list` and their determinizations, unless it has
    /// fewer than `min_len` elements.
    pub(crate) fn read(&mut self, egraph: &CadGraph, list: Id, min_len: usize) -> Option<ListRead> {
        let entry = self.lists.entry(egraph.find(list)).or_default();
        let fresh = || Rc::from(read_list(egraph, list).unwrap_or_default());
        let elements = Rc::clone(entry.elements.get_or_insert_with(fresh));
        debug_assert!(elements == fresh(), "stale elements of list {list}");
        if elements.len() < min_len {
            return None;
        }
        let chains = &mut self.chains;
        let dets = entry
            .dets
            .get_or_insert_with(|| determinize(egraph, &elements, chains).into());
        // Compared as printed, so a NaN vector equals itself.
        let printed = |dets: &[DetList]| format!("{dets:?}");
        debug_assert!(
            printed(dets) == printed(&determinize(egraph, &elements, &mut ChainCache::default())),
            "stale determinizations of list {list}"
        );
        Some((elements, Rc::clone(dets)))
    }

    /// Adds `node`, the outermost node of new structure equal to `target`,
    /// and unions its class with `target`; returns whether that merged.
    pub(crate) fn union_new(&mut self, egraph: &mut CadGraph, target: Id, node: CadLang) -> bool {
        let before = egraph.universe();
        let id = egraph.add(node);
        let merged = egraph.union(target, id).1;
        if merged && usize::from(id) < before {
            self.forget();
        }
        merged
    }

    /// Appends a site list manipulation added.
    pub(crate) fn push_site(&mut self, site: FoldSite) {
        self.sites.push(site);
    }

    /// Takes note of an inference rebuild that performed `unions` unions.
    pub(crate) fn rebuilt(&mut self, unions: usize) {
        if unions > 0 {
            self.forget();
        }
    }

    /// Drops every cached read.
    fn forget(&mut self) {
        self.lists.clear();
        self.chains.clear();
        self.scanned = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cad_to_lang;
    use sz_cad::Cad;
    use sz_egraph::RecExpr;

    fn graph(s: &str) -> (CadGraph, Id) {
        let mut eg = CadGraph::default();
        let expr: RecExpr<CadLang> = s.parse().unwrap();
        let id = eg.add_expr(&expr);
        eg.rebuild();
        (eg, id)
    }

    #[test]
    fn read_cons_list() {
        let (eg, _) = graph("(Fold UnionOp Empty (Cons Unit (Cons Sphere Nil)))");
        let sites = fold_sites(&eg);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].op, BoolOp::Union);
        let items = read_list(&eg, sites[0].list).unwrap();
        assert_eq!(items.len(), 2);
        let unit = eg.lookup_expr(&"Unit".parse().unwrap()).unwrap();
        assert_eq!(eg.find(items[0]), eg.find(unit));
    }

    #[test]
    fn read_repeat_list() {
        let (eg, id) = graph("(Repeat Sphere 4)");
        let items = read_list(&eg, id).unwrap();
        assert_eq!(items.len(), 4);
        assert!(items.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn read_list_declines_symbolic() {
        let (eg, id) = graph("(Repeat Sphere (+ i 1))");
        assert_eq!(read_list(&eg, id), None);
        let (eg, id) = graph("Unit");
        assert_eq!(read_list(&eg, id), None);
    }

    #[test]
    fn cons_list_roundtrip() {
        let (mut eg, _) = graph("(Cons Unit Nil)");
        let unit = eg.lookup_expr(&"Unit".parse().unwrap()).unwrap();
        let sphere = eg.add_expr(&cad_to_lang(&Cad::Sphere));
        let list = add_cons_list(&mut eg, &[unit, sphere, unit]);
        eg.rebuild();
        let items = read_list(&eg, list).unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(eg.find(items[1]), eg.find(sphere));
    }

    #[test]
    fn fold_sites_dedup() {
        let (eg, _) = graph(
            "(Union (Fold UnionOp Empty (Cons Unit Nil)) (Fold UnionOp Empty (Cons Unit Nil)))",
        );
        // Hash-consing makes the two identical folds one site.
        assert_eq!(fold_sites(&eg).len(), 1);
    }
}
