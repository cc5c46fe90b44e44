//! Certificate emission: the engine-facing half of the subsystem.
//!
//! Unlike [`crate::verify`], this module may (and does) use the exploration
//! engine — [`Exploration`]'s id space and CSR — because nothing here is
//! trusted: a bug in emission produces a certificate the independent
//! checker rejects, never a wrongly accepted one.
//!
//! The emitters turn a completed exploration into a [`Certificate`]:
//! [`certify_exploration`] for a full space — the generic [`Exploration`]
//! or the dense rows of a [`KernelExploration`], through [`Explored`] —
//! and [`certify_quotient`] for an orbit quotient. [`crate::Decider`]
//! drives them over the backend [`wam_core::resolve_backend`] picks;
//! generic systems can call them on an [`Exploration`] they drive
//! themselves.
//!
//! # Quotient concretisation
//!
//! When the orbit quotient is active, the explored ids are orbit
//! representatives. Reachability paths are *concretised* on the fly: with
//! the action `(π · c)(v) = c(π(v))` and `σᵢ` the accumulated permutation
//! satisfying `rᵢ = σᵢ · dᵢ` (representative `rᵢ`, concrete `dᵢ`), a
//! quotient edge `rᵢ → rᵢ₊₁ = q · s` with `s ∈ succ(rᵢ)` lifts to the
//! concrete step `dᵢ₊₁ = σᵢ⁻¹ · s` and `σᵢ₊₁ = σᵢ ∘ q`. Invariant and
//! space sections stay in representatives and carry the canonicalising
//! permutation per re-executed successor ([`InvariantTransport`] /
//! [`SpaceTransport`]), which is what the checker replays.

use crate::certificate::{
    Certificate, Escape, InvariantTransport, NoConsensusCertificate, PathStep, Perm, Polarity,
    ReachPath, SpaceTransport, StabilityInvariant, StableCertificate, StepSelection,
};
use std::collections::VecDeque;
use std::fmt::Debug;
use std::hash::Hash;
use wam_core::{
    Config, Exploration, KernelExploration, KernelRow, NodeSymmetric, PermuteNodes, QuotientSystem,
    State, TransitionSystem, Verdict,
};

/// A verdict together with its machine-checkable witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertifiedVerdict<C> {
    /// The decider's verdict.
    pub verdict: Verdict,
    /// The witness; `certificate.verdict()` always equals `verdict`.
    pub certificate: Certificate<C>,
}

/// Identity permutation on `n` nodes.
fn identity(n: usize) -> Perm {
    (0..n as u32).collect()
}

/// `compose(f, g)[v] = f[g[v]]` — the permutation applying `g` first under
/// the `(π · c)(v) = c(π(v))` action: `f · (g · c) = compose(g, f) · c`,
/// i.e. accumulating "then permute by `q`" is `compose(σ, q)`.
fn compose(f: &[u32], g: &[u32]) -> Perm {
    g.iter().map(|&v| f[v as usize]).collect()
}

fn invert(p: &[u32]) -> Perm {
    let mut inv = vec![0u32; p.len()];
    for (i, &v) in p.iter().enumerate() {
        inv[v as usize] = i as u32;
    }
    inv
}

/// The orbit minimum of `c` together with the permutation reaching it:
/// returns `(rep, p)` with `rep = p · c`, matching
/// [`PermuteNodes::min_under`]'s choice of representative exactly.
fn min_perm<C: PermuteNodes>(c: &C, elements: &[Vec<u32>]) -> (C, Perm) {
    let mut best: Option<&Vec<u32>> = None;
    for p in elements {
        let candidate_is_less = {
            let current = |v: usize| match best {
                Some(b) => c.permuted_entry(b, v),
                None => c.permuted_entry_id(v),
            };
            (0..c.node_count_for_permute())
                .map(|v| c.permuted_entry(p, v).cmp(current(v)))
                .find(|o| *o != std::cmp::Ordering::Equal)
                == Some(std::cmp::Ordering::Less)
        };
        if candidate_is_less {
            best = Some(p);
        }
    }
    match best {
        None => (c.clone(), identity(c.node_count_for_permute())),
        Some(p) => (c.permute(p), p.clone()),
    }
}

/// BFS over the explored CSR from id 0 to the nearest id flagged in
/// `targets`; returns the id path (inclusive). Panics if no target is
/// reachable — emission only calls this when the verdict guarantees one.
fn path_ids<C: Clone + Eq + Hash + Debug>(e: &Exploration<C>, targets: &[bool]) -> Vec<u32> {
    if targets[0] {
        return vec![0];
    }
    let mut parent: Vec<u32> = vec![u32::MAX; e.len()];
    parent[0] = 0;
    let mut queue = VecDeque::from([0u32]);
    while let Some(i) = queue.pop_front() {
        for &j in e.successors(i as usize).iter() {
            if parent[j as usize] != u32::MAX {
                continue;
            }
            parent[j as usize] = i;
            if targets[j as usize] {
                let mut path = vec![j];
                let mut cur = j;
                while cur != 0 {
                    cur = parent[cur as usize];
                    path.push(cur);
                }
                path.reverse();
                return path;
            }
            queue.push_back(j);
        }
    }
    panic!("no flagged configuration reachable — verdict/flags disagree");
}

/// Ids forward-reachable from `start` (inclusive), ascending.
fn reach_ids<C: Clone + Eq + Hash + Debug>(e: &Exploration<C>, start: u32) -> Vec<u32> {
    let mut seen = vec![false; e.len()];
    seen[start as usize] = true;
    let mut stack = vec![start];
    while let Some(i) = stack.pop() {
        for &j in e.successors(i as usize).iter() {
            if !seen[j as usize] {
                seen[j as usize] = true;
                stack.push(j);
            }
        }
    }
    (0..e.len() as u32).filter(|&i| seen[i as usize]).collect()
}

/// Escape pointers for every id: `Here` where `bad` holds, otherwise `Via`
/// a successor resolved in an earlier relaxation round (so chains are
/// acyclic by construction). Panics if some id cannot escape — emission
/// only calls this when no stably-good configuration exists.
fn escape_pointers<C: Clone + Eq + Hash + Debug>(
    e: &Exploration<C>,
    bad: impl Fn(usize) -> bool,
) -> Vec<Escape> {
    let n = e.len();
    let mut esc: Vec<Option<Escape>> = (0..n)
        .map(|i| if bad(i) { Some(Escape::Here) } else { None })
        .collect();
    loop {
        let mut changed = false;
        for i in 0..n {
            if esc[i].is_some() {
                continue;
            }
            if let Some(&j) = e.successors(i).iter().find(|&&j| esc[j as usize].is_some()) {
                esc[i] = Some(Escape::Via(j));
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    esc.into_iter()
        .map(|o| o.expect("every configuration escapes — verdict/flags disagree"))
        .collect()
}

/// The `Choice` index of `next` among `successors(cur)`.
fn choice_of<C: PartialEq + Debug>(succs: &[C], next: &C) -> u32 {
    succs
        .iter()
        .position(|s| s == next)
        .expect("recorded step is not an enumerated successor") as u32
}

// ---------------------------------------------------------------------------
// Full-space emission
// ---------------------------------------------------------------------------

/// A finished full-space exploration the emitters can read: the id graph,
/// and the configurations behind its ids. Implemented by the generic
/// [`Exploration`] and by the dense [`KernelExploration`], whose rows
/// unpack one-to-one into the generic system's configurations — so one
/// set of emitters serves both, unpacking only the rows a certificate
/// holds.
pub trait Explored {
    /// The configuration type certificates are phrased in.
    type C;
    /// The row type of the id graph.
    type Row: Clone + Eq + Hash + Debug;

    /// The explored id graph: edges, consensus flags and fixpoints.
    fn exploration(&self) -> &Exploration<Self::Row>;

    /// The configurations of `ids`, in order.
    fn configs_of(&self, ids: impl IntoIterator<Item = u32>) -> Vec<Self::C>;
}

impl<C: Clone + Eq + Hash + Debug> Explored for Exploration<C> {
    type C = C;
    type Row = C;

    fn exploration(&self) -> &Exploration<C> {
        self
    }

    fn configs_of(&self, ids: impl IntoIterator<Item = u32>) -> Vec<C> {
        let configs = self.configs();
        ids.into_iter()
            .map(|i| configs[i as usize].clone())
            .collect()
    }
}

impl<S: State, R: KernelRow<S>> Explored for KernelExploration<S, R> {
    type C = R::Config;
    type Row = R;

    fn exploration(&self) -> &Exploration<R> {
        KernelExploration::exploration(self)
    }

    fn configs_of(&self, ids: impl IntoIterator<Item = u32>) -> Vec<R::Config> {
        KernelExploration::configs_of(self, ids)
    }
}

/// `Choice` selections index `system`'s successor order, enumerated over
/// the unpacked path configurations.
fn stable_full<T: TransitionSystem, E: Explored<C = T::C>>(
    system: &T,
    e: &E,
    polarity: Polarity,
    stably: &[bool],
) -> StableCertificate<T::C> {
    let x = e.exploration();
    let ids = path_ids(x, stably);
    let endpoint = *ids.last().expect("path is never empty");
    let member_ids = reach_ids(x, endpoint);
    let mut path = e.configs_of(ids.iter().chain(&member_ids).copied());
    let members = path.split_off(ids.len());
    let steps = path
        .windows(2)
        .map(|w| PathStep {
            to: w[1].clone(),
            selection: StepSelection::Choice(choice_of(&system.successors(&w[0]), &w[1])),
        })
        .collect();
    StableCertificate {
        polarity,
        path: ReachPath {
            start: path.swap_remove(0),
            steps,
        },
        invariant: StabilityInvariant {
            members,
            transport: None,
        },
    }
}

fn no_consensus_full<E: Explored>(e: &E) -> NoConsensusCertificate<E::C> {
    let x = e.exploration();
    NoConsensusCertificate {
        space: e.configs_of(0..x.len() as u32),
        transport: None,
        escape_accepting: escape_pointers(x, |i| !x.is_accepting(i)),
        escape_rejecting: escape_pointers(x, |i| !x.is_rejecting(i)),
    }
}

/// Builds the certificate for a completed full-space exploration of
/// `system` — the generic [`Exploration`] or the dense rows of a
/// [`KernelExploration`] mirroring it. The verdict is read with
/// [`Exploration::verdict`]; the certificate is assembled so that the
/// independent checker re-derives the same verdict.
pub fn certify_exploration<T: TransitionSystem, E: Explored<C = T::C>>(
    system: &T,
    e: &E,
) -> CertifiedVerdict<T::C> {
    let x = e.exploration();
    let stable = |polarity| {
        let stably = match polarity {
            Polarity::Accepting => x.stably_accepting(),
            Polarity::Rejecting => x.stably_rejecting(),
        };
        stable_full(system, e, polarity, &stably)
    };
    let verdict = x.verdict();
    let certificate = match verdict {
        Verdict::Accepts => Certificate::Stable(stable(Polarity::Accepting)),
        Verdict::Rejects => Certificate::Stable(stable(Polarity::Rejecting)),
        Verdict::Inconsistent => Certificate::Inconsistent(
            Box::new(stable(Polarity::Accepting)),
            Box::new(stable(Polarity::Rejecting)),
        ),
        Verdict::NoConsensus => Certificate::NoConsensus(no_consensus_full(e)),
    };
    CertifiedVerdict {
        verdict,
        certificate,
    }
}

// ---------------------------------------------------------------------------
// Quotient emission
// ---------------------------------------------------------------------------

fn transported_closure<T>(
    system: &T,
    quotient: &QuotientSystem<'_, T>,
    members: &[T::C],
) -> Vec<Vec<Perm>>
where
    T: NodeSymmetric,
    T::C: PermuteNodes,
{
    let elements = quotient.group().elements();
    members
        .iter()
        .map(|m| {
            system
                .successors(m)
                .iter()
                .map(|s| min_perm(s, elements).1)
                .collect()
        })
        .collect()
}

fn stable_quotient<T>(
    system: &T,
    quotient: &QuotientSystem<'_, T>,
    e: &Exploration<T::C>,
    polarity: Polarity,
    stably: &[bool],
) -> StableCertificate<T::C>
where
    T: NodeSymmetric,
    T::C: PermuteNodes,
{
    let elements = quotient.group().elements();
    let ids = path_ids(e, stably);
    let reps = e.configs();
    // Concretise: d₀ is the true initial configuration, σ₀ · d₀ = r₀.
    let start = system.initial_config();
    let (r0, sigma0) = min_perm(&start, elements);
    debug_assert_eq!(r0, reps[0]);
    let mut sigma = sigma0;
    let mut concrete = start.clone();
    let mut steps = Vec::with_capacity(ids.len() - 1);
    for w in ids.windows(2) {
        let rep_succs = system.successors(&reps[w[0] as usize]);
        let target = &reps[w[1] as usize];
        let (s, q) = rep_succs
            .iter()
            .find_map(|s| {
                let (rep, q) = min_perm(s, elements);
                (rep == *target).then_some((s.clone(), q))
            })
            .expect("quotient edge has no witnessing successor");
        let next = s.permute(&invert(&sigma));
        let succs = system.successors(&concrete);
        let selection = StepSelection::Choice(choice_of(&succs, &next));
        steps.push(PathStep {
            to: next.clone(),
            selection,
        });
        concrete = next;
        sigma = compose(&sigma, &q);
    }
    let endpoint = *ids.last().expect("path is never empty");
    let members: Vec<T::C> = reach_ids(e, endpoint)
        .into_iter()
        .map(|i| reps[i as usize].clone())
        .collect();
    let closure = transported_closure(system, quotient, &members);
    StableCertificate {
        polarity,
        path: ReachPath { start, steps },
        invariant: StabilityInvariant {
            members,
            transport: Some(InvariantTransport {
                closure,
                endpoint: sigma,
            }),
        },
    }
}

fn no_consensus_quotient<T>(
    system: &T,
    quotient: &QuotientSystem<'_, T>,
    e: &Exploration<T::C>,
) -> NoConsensusCertificate<T::C>
where
    T: NodeSymmetric,
    T::C: PermuteNodes,
{
    let space = e.configs().to_vec();
    let initial = min_perm(&system.initial_config(), quotient.group().elements()).1;
    NoConsensusCertificate {
        escape_accepting: escape_pointers(e, |i| !e.is_accepting(i)),
        escape_rejecting: escape_pointers(e, |i| !e.is_rejecting(i)),
        transport: Some(SpaceTransport {
            closure: transported_closure(system, quotient, &space),
            initial,
        }),
        space,
    }
}

/// Builds the certificate for a completed exploration of `quotient`, the
/// orbit quotient of `system`. Reachability paths are concretised to
/// `Choice` steps over `system`'s full space; invariant and space
/// sections stay in orbit representatives and carry symmetry transport,
/// which [`crate::verify_symmetric`] replays.
pub fn certify_quotient<T>(
    system: &T,
    quotient: &QuotientSystem<'_, T>,
    e: &Exploration<T::C>,
) -> CertifiedVerdict<T::C>
where
    T: NodeSymmetric,
    T::C: PermuteNodes,
{
    let verdict = e.verdict();
    let certificate = match verdict {
        Verdict::Accepts => Certificate::Stable(stable_quotient(
            system,
            quotient,
            e,
            Polarity::Accepting,
            &e.stably_accepting(),
        )),
        Verdict::Rejects => Certificate::Stable(stable_quotient(
            system,
            quotient,
            e,
            Polarity::Rejecting,
            &e.stably_rejecting(),
        )),
        Verdict::Inconsistent => Certificate::Inconsistent(
            Box::new(stable_quotient(
                system,
                quotient,
                e,
                Polarity::Accepting,
                &e.stably_accepting(),
            )),
            Box::new(stable_quotient(
                system,
                quotient,
                e,
                Polarity::Rejecting,
                &e.stably_rejecting(),
            )),
        ),
        Verdict::NoConsensus => {
            Certificate::NoConsensus(no_consensus_quotient(system, quotient, e))
        }
    };
    CertifiedVerdict {
        verdict,
        certificate,
    }
}

// ---------------------------------------------------------------------------
// Node-space relabelling
// ---------------------------------------------------------------------------

/// Rewrites the `Choice` selections of an exclusive-selection certificate
/// to `Node` selections by diffing consecutive configurations — exclusive
/// steps change exactly one node, and `Node` steps are replayable by
/// [`Config::successor`](wam_core::Config::successor) alone.
pub fn relabel_exclusive_path<S: State>(cert: &mut Certificate<Config<S>>) {
    let relabel = |s: &mut StableCertificate<Config<S>>| {
        let mut prev = s.path.start.clone();
        for step in &mut s.path.steps {
            if let Some(v) = (0..prev.len()).find(|&v| prev.state(v) != step.to.state(v)) {
                step.selection = StepSelection::Node(v as u32);
            }
            prev = step.to.clone();
        }
    };
    match cert {
        Certificate::Stable(s) => relabel(s),
        Certificate::Inconsistent(acc, rej) => {
            relabel(acc);
            relabel(rej);
        }
        _ => {}
    }
}
