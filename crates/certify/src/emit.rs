//! Certificate emission: the engine-facing half of the subsystem.
//!
//! Unlike [`crate::verify`], this module may (and does) use the exploration
//! engine — [`Exploration`]'s id space and CSR — because nothing here is
//! trusted: a bug in emission produces a certificate the independent
//! checker rejects, never a wrongly accepted one.
//!
//! The emitter turns a completed full-space exploration into a
//! [`Certificate`]: [`certify_exploration`] reads the generic
//! [`Exploration`] or the dense rows of a [`KernelExploration`], through
//! [`Explored`]. [`crate::Decider`] drives it over the backend
//! [`wam_core::resolve_backend`] picks; generic systems can call it on an
//! [`Exploration`] they drive themselves.
//!
//! A stable certificate carries the smallest closed witness the search
//! finds. Every configuration reachable from a stably accepting one is
//! accepting, so any bottom strongly connected component of its forward
//! closure is closed under steps and output-uniform. The emitter takes
//! the first component an iterative Tarjan search closes from the
//! nearest stably-good id, and a shortest path to the nearest of its
//! members. Verification cost, encoded bytes and rows unpacked all scale
//! with the number of members.

use crate::certificate::{
    Certificate, Escape, NoConsensusCertificate, PathStep, Polarity, ReachPath, StabilityInvariant,
    StableCertificate, StepSelection,
};
use std::collections::VecDeque;
use std::fmt::Debug;
use std::hash::Hash;
use wam_core::{
    Config, Exploration, KernelExploration, KernelRow, State, TransitionSystem, Verdict,
};

/// A verdict together with its machine-checkable witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertifiedVerdict<C> {
    /// The decider's verdict.
    pub verdict: Verdict,
    /// The witness; `certificate.verdict()` always equals `verdict`.
    pub certificate: Certificate<C>,
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

/// The members of the first strongly connected component an iterative
/// Tarjan search from `start` closes, ascending. Tarjan closes a
/// component only after every component it reaches, so the first one
/// closed reaches no other: it is a bottom SCC of `start`'s forward
/// closure, closed under successors, and the smallest closed set holding
/// any of its members. Successors are taken in CSR order, so the result
/// is deterministic.
fn bottom_scc<C: Clone + Eq + Hash + Debug>(e: &Exploration<C>, start: u32) -> Vec<u32> {
    // Nothing leaves Tarjan's stack before the first component closes, so
    // the stack is the discovery order itself, every visited id is still
    // on it, and an id's discovery index is its stack position.
    let mut index = vec![u32::MAX; e.len()];
    index[start as usize] = 0;
    let mut order = vec![start];
    // Call frames: id, its successor row, next row position, lowlink.
    let mut frames = vec![(start, e.successors(start as usize), 0, 0)];
    loop {
        let (_, row, pos, low) = frames.last_mut().expect("the start frame closes last");
        if let Some(&w) = row.get(*pos) {
            *pos += 1;
            match index[w as usize] {
                u32::MAX => {
                    let i = order.len() as u32;
                    index[w as usize] = i;
                    order.push(w);
                    frames.push((w, e.successors(w as usize), 0, i));
                }
                i => *low = (*low).min(i),
            }
            continue;
        }
        let (v, _, _, low) = frames.pop().expect("a frame was just read");
        if low == index[v as usize] {
            let mut members = order.split_off(low as usize);
            members.sort_unstable();
            return members;
        }
        let parent = frames
            .last_mut()
            .expect("only the start frame roots a component");
        parent.3 = parent.3.min(low);
    }
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

/// A stability witness for the ids flagged in `stably`. The invariant is
/// the bottom SCC that [`bottom_scc`] closes from the nearest flagged id,
/// not that id's whole forward closure, and the path runs from id 0 to
/// the nearest of its members. `Choice` selections index `system`'s
/// successor order, enumerated over the unpacked path configurations.
fn stable_full<T: TransitionSystem, E: Explored<C = T::C>>(
    system: &T,
    e: &E,
    polarity: Polarity,
    stably: &[bool],
) -> StableCertificate<T::C> {
    let x = e.exploration();
    let nearest = *path_ids(x, stably).last().expect("path is never empty");
    let member_ids = bottom_scc(x, nearest);
    let mut in_scc = vec![false; x.len()];
    for &i in &member_ids {
        in_scc[i as usize] = true;
    }
    let ids = path_ids(x, &in_scc);
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
        invariant: StabilityInvariant { members },
    }
}

fn no_consensus_full<E: Explored>(e: &E) -> NoConsensusCertificate<E::C> {
    let x = e.exploration();
    NoConsensusCertificate {
        space: e.configs_of(0..x.len() as u32),
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
