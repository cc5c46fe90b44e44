//! Cross-validation of decision procedures against reference predicates,
//! with a shared [`VerdictStore`] so sweeps stop re-deciding identical
//! spaces.

use crate::store::{StoreKey, VerdictStore};
use crate::Predicate;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use wam_certify::Certificate;
use wam_core::Verdict;
use wam_graph::generators::Family;
use wam_graph::{Graph, LabelCount};

/// One disagreement between a decider and the reference predicate.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// The label count of the offending input.
    pub count: LabelCount,
    /// What the reference predicate says.
    pub expected: bool,
    /// What the decider said.
    pub got: Verdict,
}

/// Runs `decide` on one graph per label count (built by `graph_for`) and
/// returns every disagreement with `predicate`, including non-verdicts.
///
/// `graph_for` may return `None` to skip counts it cannot realise (e.g.
/// too few nodes for the ≥ 3 convention).
pub fn cross_validate(
    predicate: &Predicate,
    counts: &[LabelCount],
    mut graph_for: impl FnMut(&LabelCount) -> Option<Graph>,
    mut decide: impl FnMut(&Graph) -> Verdict,
) -> Vec<Mismatch> {
    mismatches(predicate, counts, |c| graph_for(c).map(|g| decide(&g)))
}

/// Every count whose verdict (`None`: skipped) disagrees with `predicate`.
fn mismatches(
    predicate: &Predicate,
    counts: &[LabelCount],
    mut verdict: impl FnMut(&LabelCount) -> Option<Verdict>,
) -> Vec<Mismatch> {
    let mut out = Vec::new();
    for count in counts {
        let Some(got) = verdict(count) else {
            continue;
        };
        let expected = predicate.eval(count);
        if got.decided() != Some(expected) {
            out.push(Mismatch {
                count: count.clone(),
                expected,
                got,
            });
        }
    }
    out
}

/// A stable fingerprint for a decider/system, derived from a caller-chosen
/// name. Store entries from different systems never collide as long as
/// their names differ.
///
/// Exact decisions are invariant under graph isomorphism (relabelling
/// nodes relabels the whole configuration space), so the store pairs this
/// fingerprint with the isomorphism class of a family graph
/// ([`StoreKey::of_family`]): from 4 nodes up its family and label
/// counts, on 3 nodes the shape of the graph. Two isomorphic graphs share
/// an entry even when their families differ — the 3-star and the 3-line
/// of a Figure-1 sweep are the same path and hit the same entry.
pub fn system_fingerprint(name: &str) -> u64 {
    let mut h = rustc_hash::FxHasher::default();
    name.hash(&mut h);
    h.finish()
}

/// One memoised certified decision: the verdict, the certificate that
/// justifies it, and the graph the certificate was *emitted* on.
///
/// Certificates are concrete objects — their configurations name the nodes
/// of one specific graph. When the memo answers a lookup for another family
/// whose graph is isomorphic (on 3 nodes the star is a line, the clique is
/// the cycle), the *verdict* transfers (exact decisions are
/// isomorphism-invariant), but the certificate is deliberately **not**
/// relabelled: it remains verifiable against [`CertifiedDecision::graph`],
/// and callers who need a proof for their own node order should re-decide.
#[derive(Debug)]
pub struct CertifiedDecision<C> {
    /// The memoised verdict.
    pub verdict: Verdict,
    /// The certificate backing the verdict, shared across lookups.
    pub certificate: Arc<Certificate<C>>,
    /// The graph the certificate was emitted on — verify against this one,
    /// not against the (possibly merely isomorphic) lookup graph.
    pub graph: Graph,
}

// Manual impl: the certificate is behind an `Arc`, so cloning a decision
// never needs `C: Clone`.
impl<C> Clone for CertifiedDecision<C> {
    fn clone(&self) -> Self {
        CertifiedDecision {
            verdict: self.verdict,
            certificate: Arc::clone(&self.certificate),
            graph: self.graph.clone(),
        }
    }
}

/// [`cross_validate`] on `family`'s graphs with a shared [`VerdictStore`]:
/// verdicts for repeated `(system, graph)` pairs are reused across calls
/// (and threads) sharing the store, and a graph is built only on a miss.
///
/// # Panics
///
/// Panics if a count totals fewer than 3 nodes.
pub fn cross_validate_memo(
    predicate: &Predicate,
    counts: &[LabelCount],
    family: Family,
    mut decide: impl FnMut(&Graph) -> Verdict,
    store: &VerdictStore<Verdict>,
    fingerprint: u64,
) -> Vec<Mismatch> {
    mismatches(predicate, counts, |c| {
        let key = StoreKey::of_family(fingerprint, family, c.as_slice());
        Some(store.get_or_insert_with(&key, || decide(&family.labelled(c))))
    })
}

/// All label counts of the given arity whose components sum to at least
/// `min_total` (≥ 3 keeps the model convention) and at most `max_total`.
pub fn counts_with_totals(arity: usize, min_total: u64, max_total: u64) -> Vec<LabelCount> {
    LabelCount::enumerate_box(arity, max_total)
        .into_iter()
        .filter(|c| {
            let t = c.total();
            t >= min_total.max(3) && t <= max_total
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wam_core::{Machine, Output};
    use wam_graph::generators;

    #[test]
    fn flood_cross_validates_against_presence() {
        let m = Machine::new(
            1,
            |l: wam_graph::Label| l.0 == 1,
            |&s: &bool, n| s || n.exists(|&t| t),
            |&s| if s { Output::Accept } else { Output::Reject },
        );
        let p = Predicate::threshold(2, 1, 1);
        let counts = counts_with_totals(2, 3, 5);
        assert!(!counts.is_empty());
        let mismatches = cross_validate(
            &p,
            &counts,
            |c| Some(generators::labelled_cycle(c)),
            |g| {
                wam_core::decide(
                    &m,
                    g,
                    wam_core::Schedule::PseudoStochastic,
                    wam_core::Backend::Auto,
                    wam_core::ExploreOptions::with_limit(100_000),
                )
                .map(|(v, _)| v)
                .unwrap()
            },
        );
        assert!(mismatches.is_empty(), "{mismatches:?}");
    }

    #[test]
    fn mismatches_are_reported() {
        // A decider that always accepts disagrees with "label 1 present"
        // whenever label 1 is absent.
        let p = Predicate::threshold(2, 1, 1);
        let counts = counts_with_totals(2, 3, 4);
        let mismatches = cross_validate(
            &p,
            &counts,
            |c| Some(generators::labelled_cycle(c)),
            |_| Verdict::Accepts,
        );
        assert!(mismatches.iter().all(|m| !m.expected));
        assert!(!mismatches.is_empty());
    }

    #[test]
    fn totals_filter() {
        let counts = counts_with_totals(2, 3, 4);
        assert!(counts.iter().all(|c| (3..=4).contains(&c.total())));
    }

    #[test]
    fn memo_dedups_coinciding_generator_families() {
        // The 3-cycle and the 3-clique are the same triangle; the store must
        // answer the second family's sweep from the first's entries.
        let m = Machine::new(
            1,
            |l: wam_graph::Label| l.0 == 1,
            |&s: &bool, n| s || n.exists(|&t| t),
            |&s| if s { Output::Accept } else { Output::Reject },
        );
        let p = Predicate::threshold(2, 1, 1);
        let counts: Vec<LabelCount> = counts_with_totals(2, 3, 3);
        let store = VerdictStore::new();
        let fp = system_fingerprint("flood");
        let decided = std::cell::Cell::new(0usize);
        for family in [Family::Cycle, Family::Clique] {
            let mismatches = cross_validate_memo(
                &p,
                &counts,
                family,
                |g| {
                    decided.set(decided.get() + 1);
                    wam_core::decide(
                        &m,
                        g,
                        wam_core::Schedule::PseudoStochastic,
                        wam_core::Backend::Auto,
                        wam_core::ExploreOptions::with_limit(100_000),
                    )
                    .map(|(v, _)| v)
                    .unwrap()
                },
                &store,
                fp,
            );
            assert!(mismatches.is_empty(), "{mismatches:?}");
        }
        assert_eq!(store.hits(), counts.len() as u64);
        assert_eq!(store.misses(), counts.len() as u64);
        assert_eq!(decided.get(), counts.len());
        assert_eq!(store.len(), counts.len());
    }

    #[test]
    fn certified_store_reuses_certificates_across_isomorphic_graphs() {
        use wam_certify::{verify_machine, CertifiedVerdict, Decider, DecisionCertificate};

        let m = Machine::new(
            1,
            |l: wam_graph::Label| l.0 == 1,
            |&s: &bool, n| s || n.exists(|&t| t),
            |&s| if s { Output::Accept } else { Output::Reject },
        );
        let c = LabelCount::from_vec(vec![2, 1]);
        let memo = VerdictStore::new();
        let fp = system_fingerprint("flood");
        let first = memo.decide_certified(fp, Family::Star, &c, |g| {
            let d = Decider::new(&m, g)
                .backend(wam_core::Backend::Explicit)
                .certified(true)
                .limit(100_000)
                .decide()
                .unwrap();
            match d.certificate.unwrap() {
                DecisionCertificate::Node(certificate) => CertifiedVerdict {
                    verdict: d.verdict,
                    certificate,
                },
                other => panic!("explicit backend emits node certificates, got {other:?}"),
            }
        });
        let second = memo.decide_certified(fp, Family::Line, &c, |_| {
            panic!("isomorphic graph must be served from the memo")
        });
        assert_eq!(first.verdict, Verdict::Accepts);
        assert_eq!(second.verdict, Verdict::Accepts);
        assert_eq!(memo.hits(), 1);
        assert_eq!(memo.misses(), 1);
        assert_eq!(memo.len(), 1);
        assert!(!memo.is_empty());
        assert!(Arc::ptr_eq(&first.certificate, &second.certificate));
        // The cached certificate stays valid against its *emission* graph —
        // even when the lookup graph merely shared the isomorphism class.
        assert_eq!(second.graph, generators::labelled_star(&c));
        let v = verify_machine(&m, &second.graph, &second.certificate)
            .expect("cached certificate must verify against its emission graph");
        assert_eq!(v, second.verdict);
    }
}
