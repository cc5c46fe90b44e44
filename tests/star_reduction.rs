//! Symmetry-reduced star deciders vs node-explicit deciders on a heavier
//! machine: the compiled rendez-vous majority automaton. The reduction must
//! be verdict-preserving (leaves are interchangeable), and it must shrink
//! the explored space. On a flooding machine the reduced space is pinned
//! exactly: one configuration per leaf-permutation orbit of the explicit
//! reach set.

use std::collections::HashSet;
use weak_async_models::analysis::StarSystem;
use weak_async_models::certify::Decider;
use weak_async_models::core::{ExclusiveSystem, Exploration, Machine, Output};
use weak_async_models::extensions::{compile_rendezvous, GraphPopulationProtocol, MajorityState};
use weak_async_models::graph::{generators, Label, LabelCount};

#[test]
fn reduced_and_explicit_verdicts_agree_on_majority_machine() {
    let machine = compile_rendezvous(&GraphPopulationProtocol::<MajorityState>::majority());
    for (a_leaves, b_leaves) in [(2u64, 1u64), (1, 2)] {
        // Reduced: centre carries label 0, leaves split a/b.
        let sys = StarSystem::new(
            &machine,
            Label(0),
            vec![(Label(0), a_leaves), (Label(1), b_leaves)],
        );
        let reduced = Exploration::explore(&sys, 3_000_000)
            .map(|e| e.verdict())
            .unwrap();

        // Explicit star with the same label count (centre gets label 0,
        // which labelled_star assigns to the first expanded label).
        let c = LabelCount::from_vec(vec![a_leaves + 1, b_leaves]);
        let g = generators::labelled_star(&c);
        let explicit = Decider::new(&machine, &g)
            .limit(5_000_000)
            .decide()
            .map(|d| d.verdict)
            .unwrap();
        assert_eq!(reduced, explicit, "({a_leaves},{b_leaves})");
        // Majority of label 0: (a_leaves + 1) vs b_leaves.
        assert_eq!(reduced.decided(), Some(a_leaves + 1 > b_leaves));
    }
}

#[test]
fn reduction_shrinks_the_space() {
    let machine = compile_rendezvous(&GraphPopulationProtocol::<MajorityState>::majority());
    let sys = StarSystem::new(&machine, Label(0), vec![(Label(0), 2), (Label(1), 1)]);
    let reduced = Exploration::explore(&sys, 3_000_000).unwrap();

    let c = LabelCount::from_vec(vec![3, 1]);
    let g = generators::labelled_star(&c);
    let explicit_sys = ExclusiveSystem::new(&machine, &g);
    let explicit = Exploration::explore(&explicit_sys, 5_000_000).unwrap();

    assert!(
        reduced.len() < explicit.len(),
        "reduced {} vs explicit {}",
        reduced.len(),
        explicit.len()
    );
}

/// The star algebra (centre state + leaf multiset) reproduces the orbits of
/// the explicit reach set under leaf permutations *exactly*: its
/// configuration count is the number of distinct (centre state, sorted
/// leaf states) projections of the node-explicit configurations, and the
/// verdicts agree.
#[test]
fn star_counts_equal_leaf_multiset_orbits() {
    // "Some node carries label x1", by flag flooding.
    let m = Machine::new(
        1,
        |l: Label| l.0 == 1,
        |&s: &bool, n| s || n.exists(|&t| t),
        |&s| if s { Output::Accept } else { Output::Reject },
    );
    for (plain_leaves, flagged) in [(4u64, 1u64), (5, 1), (3, 2)] {
        // Node 0 is the centre and takes the first label (label 0).
        let g = generators::labelled_star(&LabelCount::from_vec(vec![plain_leaves + 1, flagged]));
        let explicit = Exploration::explore(&ExclusiveSystem::new(&m, &g), 100_000).unwrap();
        let orbits: HashSet<(bool, Vec<bool>)> = explicit
            .configs()
            .iter()
            .map(|c| {
                let mut leaves = c.states()[1..].to_vec();
                leaves.sort_unstable();
                (c.states()[0], leaves)
            })
            .collect();

        let star_sys = StarSystem::new(
            &m,
            Label(0),
            vec![(Label(0), plain_leaves), (Label(1), flagged)],
        );
        let symbolic = Exploration::explore(&star_sys, 100_000).unwrap();

        assert_eq!(
            symbolic.len(),
            orbits.len(),
            "star algebra and leaf orbits must agree on ({plain_leaves}, {flagged})"
        );
        assert_eq!(symbolic.verdict(), explicit.verdict());
        assert!(
            orbits.len() < explicit.len(),
            "reduction must actually bite"
        );
    }
}
