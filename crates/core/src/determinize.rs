//! List determinization (paper §4.2): choose, for every element of a list,
//! one consistent affine decomposition out of the (possibly exponentially
//! many) variants the rewrites created, so the function solvers get a
//! well-defined concrete query.

use std::collections::HashMap;

use sz_cad::AffineKind;
use sz_egraph::{FxBuildHasher, Id, Language};

use crate::analysis::{vec_of, CadGraph};
use crate::CadLang;

/// One affine layer of a decomposed element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ChainLayer {
    /// The transformation kind.
    pub kind: AffineKind,
    /// Its concrete vector.
    pub vec: [f64; 3],
    /// The e-class of the subterm under this layer.
    pub child: Id,
}

/// An element viewed as a chain of affine layers over a leaf class.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AffineChain {
    /// Outermost-first affine layers.
    pub layers: Vec<ChainLayer>,
    /// The class of the innermost (non-decomposed) subterm.
    pub leaf: Id,
}

impl AffineChain {
    /// The kind sequence, outermost first.
    pub fn signature(&self) -> Vec<AffineKind> {
        self.layers.iter().map(|l| l.kind).collect()
    }

    /// Lexicographic sort key over the concatenated layer vectors
    /// (paper §4.3's list sorting).
    pub fn sort_key(&self) -> Vec<sz_cad::OrderedF64> {
        self.layers
            .iter()
            .flat_map(|l| l.vec.iter().map(|&x| sz_cad::OrderedF64::new(x)))
            .collect()
    }
}

const MAX_CHAINS_PER_CLASS: usize = 64;
const MAX_DEPTH: usize = 8;

/// Enumerates affine decompositions of the class `id`, up to bounded
/// depth and count. Every class at least offers the trivial chain
/// (no layers, leaf = itself).
pub(crate) fn chains_of(egraph: &CadGraph, id: Id) -> Vec<AffineChain> {
    fn go(
        egraph: &CadGraph,
        id: Id,
        depth: usize,
        stack: &mut Vec<Id>,
        out_budget: &mut usize,
    ) -> Vec<AffineChain> {
        let id = egraph.find(id);
        let mut chains = vec![AffineChain {
            layers: Vec::new(),
            leaf: id,
        }];
        if depth >= MAX_DEPTH || stack.contains(&id) || *out_budget == 0 {
            return chains;
        }
        stack.push(id);
        // Split the budget fairly across this class's affine variants, so
        // one variant's deep expansion (rewrites stack reorderings at
        // every level) cannot starve the others — the original syntax
        // must always contribute a chain.
        let affine_nodes: Vec<&CadLang> = egraph
            .class_nodes(id)
            .filter(|n| n.affine_kind().is_some())
            .collect();
        let per_node = (*out_budget / affine_nodes.len().max(1)).max(4);
        for node in affine_nodes {
            let kind = node.affine_kind().expect("filtered to affine nodes");
            let [vec_id, child] = [node.children()[0], node.children()[1]];
            let Some(vec) = vec_of(egraph, vec_id) else {
                continue;
            };
            let layer = ChainLayer {
                kind,
                vec,
                child: egraph.find(child),
            };
            // Every node is guaranteed a minimal emission quota even when
            // the shared budget ran dry, so the original decomposition is
            // never starved out by a sibling's expansion.
            let mut node_budget = per_node.min((*out_budget).max(2));
            for sub in go(egraph, child, depth + 1, stack, &mut node_budget.clone()) {
                if node_budget == 0 {
                    break;
                }
                node_budget -= 1;
                let mut layers = Vec::with_capacity(sub.layers.len() + 1);
                layers.push(layer);
                layers.extend(sub.layers);
                chains.push(AffineChain {
                    layers,
                    leaf: sub.leaf,
                });
                *out_budget = out_budget.saturating_sub(1);
            }
        }
        stack.pop();
        chains
    }
    let mut budget = MAX_CHAINS_PER_CLASS;
    go(egraph, id, 0, &mut Vec::new(), &mut budget)
}

/// A determinized list: one chain per element, all sharing a signature.
#[derive(Debug, Clone)]
pub(crate) struct DetList {
    /// The common kind sequence (outermost first). May be empty when the
    /// elements have no common affine structure.
    pub signature: Vec<AffineKind>,
    /// `chains[i]` decomposes `elements[i]` under the signature.
    pub chains: Vec<AffineChain>,
}

/// Maximum number of alternative determinizations handed to the solvers.
const MAX_DETERMINIZATIONS: usize = 8;

/// One class's [`chains_of`] with each chain's signature, as the matching
/// loops compare them.
#[derive(Debug)]
pub(crate) struct ClassChains {
    chains: Vec<AffineChain>,
    sigs: Vec<Vec<AffineKind>>,
}

/// Element chains by canonical class: the determinizations that share one
/// read each class's chains once.
pub(crate) type ChainCache = HashMap<Id, ClassChains, FxBuildHasher>;

/// Determinizes a list of element classes under every consistent
/// signature, longest first, up to [`MAX_DETERMINIZATIONS`] of them: for
/// each signature admitted by all elements, selects one matching chain per
/// element (paper §4.2: "pick an element and respect the same order for
/// all others"). Element chains are read through `cache`, filling it.
///
/// List manipulation sorts by the first determinization. Inference takes
/// them all: handing the solvers several lets them populate the e-graph
/// with *diverse* parameterizations — e.g. both the nested-loop and the
/// trigonometric hex-cell programs of Figs. 18/19.
pub(crate) fn determinize(
    egraph: &CadGraph,
    elements: &[Id],
    cache: &mut ChainCache,
) -> Vec<DetList> {
    if elements.is_empty() {
        return Vec::new();
    }
    // Each distinct class is enumerated once (a `Repeat` list holds one
    // class n times); the matching loops below are quadratic in chains,
    // so they compare the cached signatures and the chains' canonical
    // leaves.
    for id in elements.iter().map(|&e| egraph.find(e)) {
        cache.entry(id).or_insert_with(|| {
            let chains = chains_of(egraph, id);
            let sigs = chains.iter().map(AffineChain::signature).collect();
            ClassChains { chains, sigs }
        });
    }
    let all: Vec<&ClassChains> = elements.iter().map(|&e| &cache[&egraph.find(e)]).collect();

    // Candidate signatures from element 0, longest first.
    let mut candidates: Vec<&[AffineKind]> = all[0].sigs.iter().map(Vec::as_slice).collect();
    candidates.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
    candidates.dedup();

    // The chosen chain of each element, by index; chains are cloned only
    // for a signature that every element admits.
    let mut picks: Vec<usize> = Vec::with_capacity(elements.len());
    let mut out: Vec<DetList> = Vec::new();
    for sig in candidates {
        // Prefer a *coordinated* choice: all elements decomposed over the
        // same leaf class (this is what lets `Mapi … (Repeat leaf n)`
        // arise — e.g. every gear tooth bottoming out at the same
        // `Translate(125,0,0, tooth)` subterm rather than at per-element
        // reordered variants).
        let mut found = false;
        'leaf: for i0 in (0..all[0].chains.len()).filter(|&i0| all[0].sigs[i0] == sig) {
            let leaf0 = all[0].chains[i0].leaf;
            picks.clear();
            picks.push(i0);
            for elem in &all[1..] {
                match (0..elem.chains.len())
                    .find(|&j| elem.sigs[j] == sig && elem.chains[j].leaf == leaf0)
                {
                    Some(j) => picks.push(j),
                    None => continue 'leaf,
                }
            }
            found = true;
            break;
        }
        // Fall back to first-found per element (leaves may then differ).
        if !found {
            picks.clear();
            for elem in &all {
                match (0..elem.chains.len()).find(|&j| elem.sigs[j] == sig) {
                    Some(j) => picks.push(j),
                    None => break,
                }
            }
            found = picks.len() == all.len();
        }
        if found {
            out.push(DetList {
                signature: sig.to_vec(),
                chains: all
                    .iter()
                    .zip(&picks)
                    .map(|(elem, &j)| elem.chains[j].clone())
                    .collect(),
            });
            if out.len() >= MAX_DETERMINIZATIONS {
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CadAnalysis;
    use sz_egraph::{RecExpr, Runner};

    fn first(eg: &CadGraph, elements: &[Id]) -> Option<DetList> {
        determinize(eg, elements, &mut ChainCache::default())
            .into_iter()
            .next()
    }

    fn graph(s: &str) -> (CadGraph, Id) {
        let mut eg = CadGraph::default();
        let expr: RecExpr<CadLang> = s.parse().unwrap();
        let id = eg.add_expr(&expr);
        eg.rebuild();
        (eg, id)
    }

    #[test]
    fn single_affine_chain() {
        let (eg, id) = graph("(Translate (Vec3 2 0 0) Unit)");
        let chains = chains_of(&eg, id);
        // Trivial chain + the one-layer decomposition.
        assert_eq!(chains.len(), 2);
        let full = chains.iter().find(|c| c.layers.len() == 1).unwrap();
        assert_eq!(full.layers[0].kind, AffineKind::Translate);
        assert_eq!(full.layers[0].vec, [2.0, 0.0, 0.0]);
    }

    #[test]
    fn nested_chain_and_leaf() {
        let (eg, id) =
            graph("(Translate (Vec3 1 0 0) (Rotate (Vec3 0 0 30) (Scale (Vec3 2 2 2) Sphere)))");
        let chains = chains_of(&eg, id);
        let full = chains.iter().max_by_key(|c| c.layers.len()).unwrap();
        assert_eq!(
            full.signature(),
            vec![AffineKind::Translate, AffineKind::Rotate, AffineKind::Scale]
        );
        let sphere = eg.lookup_expr(&"Sphere".parse().unwrap()).unwrap();
        assert_eq!(eg.find(full.leaf), eg.find(sphere));
    }

    #[test]
    fn determinize_uniform_list() {
        let (mut eg, _) = graph("Nil");
        let e1 = eg.add_expr(&"(Translate (Vec3 2 0 0) Unit)".parse().unwrap());
        let e2 = eg.add_expr(&"(Translate (Vec3 4 0 0) Unit)".parse().unwrap());
        eg.rebuild();
        let det = first(&eg, &[e1, e2]).unwrap();
        assert_eq!(det.signature, vec![AffineKind::Translate]);
        assert_eq!(det.chains[0].layers[0].vec, [2.0, 0.0, 0.0]);
        assert_eq!(det.chains[1].layers[0].vec, [4.0, 0.0, 0.0]);
    }

    #[test]
    fn determinize_resolves_reordered_variants() {
        // Element 2 is written Scale∘Rotate; after the reorder rule both
        // orders live in its class, so the determinizer can match
        // element 1's Rotate∘Scale signature.
        let (mut eg, _) = graph("Nil");
        let e1 = eg.add_expr(
            &"(Rotate (Vec3 0 0 30) (Scale (Vec3 2 2 2) Unit))"
                .parse()
                .unwrap(),
        );
        let e2 = eg.add_expr(
            &"(Scale (Vec3 3 3 3) (Rotate (Vec3 0 0 60) Unit))"
                .parse()
                .unwrap(),
        );
        eg.rebuild();
        let runner = Runner::new(CadAnalysis)
            .with_egraph(eg)
            .with_iter_limit(3)
            .run(&crate::rules::reordering_rules());
        let eg = runner.egraph;
        let dets = determinize(&eg, &[e1, e2], &mut ChainCache::default());
        let det = dets
            .iter()
            .find(|d| d.signature == vec![AffineKind::Rotate, AffineKind::Scale])
            .expect("element 1's ordering must be available for both");
        assert_eq!(det.chains[1].layers[0].vec, [0.0, 0.0, 60.0]);
        assert_eq!(det.chains[1].layers[1].vec, [3.0, 3.0, 3.0]);
        // The other ordering is offered as well (diversity for top-k).
        assert!(dets
            .iter()
            .any(|d| d.signature == vec![AffineKind::Scale, AffineKind::Rotate]));
    }

    #[test]
    fn determinize_mixed_depth_falls_back() {
        let (mut eg, _) = graph("Nil");
        let e1 = eg.add_expr(&"(Translate (Vec3 2 0 0) Unit)".parse().unwrap());
        let e2 = eg.add_expr(&"Unit".parse().unwrap());
        eg.rebuild();
        let det = first(&eg, &[e1, e2]).unwrap();
        // Only the empty signature is common.
        assert!(det.signature.is_empty());
    }

    #[test]
    fn chains_survive_identity_cycles() {
        // identity-translate unions (Translate 0 c) with c, creating a
        // self-referential class; chain enumeration must terminate.
        let (mut eg, id) = graph("(Translate (Vec3 0 0 0) Unit)");
        let unit = eg.lookup_expr(&"Unit".parse().unwrap()).unwrap();
        eg.union(id, unit);
        eg.rebuild();
        let chains = chains_of(&eg, id);
        assert!(!chains.is_empty());
    }

    #[test]
    fn sort_key_orders_lexicographically() {
        let (mut eg, _) = graph("Nil");
        let e1 = eg.add_expr(&"(Translate (Vec3 4 0 0) Unit)".parse().unwrap());
        let e2 = eg.add_expr(&"(Translate (Vec3 2 0 0) Unit)".parse().unwrap());
        eg.rebuild();
        let det = first(&eg, &[e1, e2]).unwrap();
        assert!(det.chains[0].sort_key() > det.chains[1].sort_key());
    }
}
