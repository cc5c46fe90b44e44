//! The verdict store's keys are isomorphism classes: two
//! [`StoreKey::of_family`] keys are equal exactly when a brute-force
//! search finds an isomorphism between their graphs. This is checked on
//! every family × label counts on 2 and 3 labels with 3 to 10 nodes, and,
//! separately, on the E1 grid. Families alias on 3 nodes only, where the key is the
//! shape of the graph; the store's unit tests check that shape key on
//! every labelled 3-node graph.

mod common;

use common::isomorphic;
use weak_async_models::analysis::StoreKey;
use weak_async_models::graph::generators::Family;
use weak_async_models::graph::LabelCount;

const FAMILIES: [Family; 4] = [Family::Cycle, Family::Line, Family::Star, Family::Clique];

/// Asserts that keys are equal exactly on isomorphic graphs over
/// `requests`, and returns the number of classes.
fn classes(requests: &[(Family, Vec<u64>)]) -> usize {
    let graphs: Vec<_> = requests
        .iter()
        .map(|(family, counts)| family.labelled(&LabelCount::from_vec(counts.clone())))
        .collect();
    let keys: Vec<_> = requests
        .iter()
        .map(|(family, counts)| StoreKey::of_family(7, *family, counts))
        .collect();
    let mut classes = 0;
    for i in 0..requests.len() {
        if (0..i).all(|j| keys[j] != keys[i]) {
            classes += 1;
        }
        for j in 0..i {
            assert_eq!(
                keys[i] == keys[j],
                isomorphic(&graphs[i], &graphs[j]),
                "{:?} and {:?}",
                requests[i],
                requests[j]
            );
        }
    }
    classes
}

/// Every family × label counts on `arity` labels with 3 ≤ n ≤ 10.
fn family_requests(arity: usize) -> Vec<(Family, Vec<u64>)> {
    fn counts_of(n: u64, arity: usize) -> Vec<Vec<u64>> {
        if arity == 1 {
            return vec![vec![n]];
        }
        (0..=n)
            .flat_map(|first| {
                counts_of(n - first, arity - 1)
                    .into_iter()
                    .map(move |mut rest| {
                        rest.insert(0, first);
                        rest
                    })
            })
            .collect()
    }
    let mut out = Vec::new();
    for n in 3..=10 {
        for counts in counts_of(n, arity) {
            out.extend(FAMILIES.map(|family| (family, counts.clone())));
        }
    }
    out
}

#[test]
fn family_keys_are_isomorphism_class_keys() {
    for arity in [2, 3] {
        classes(&family_requests(arity));
    }
}

#[test]
fn e1_grid_keys_are_equal_exactly_on_isomorphic_graphs() {
    let grid: Vec<_> = [(3u64, 0u64), (2, 1), (1, 2), (2, 2), (3, 1)]
        .into_iter()
        .flat_map(|(a, b)| FAMILIES.map(|family| (family, vec![a, b])))
        .collect();
    assert!(
        classes(&grid) < grid.len(),
        "the E1 grid repeats some classes"
    );
}

#[test]
fn families_alias_on_three_nodes_only() {
    let key = |family, counts: &[u64]| StoreKey::of_family(7, family, counts);
    // The 3-star on [2, 1] has a 0-labelled centre: the line 0-0-1.
    assert_eq!(key(Family::Star, &[2, 1]), key(Family::Line, &[2, 1]));
    // On [1, 2] the star's centre is the lone 0, the line's is a 1.
    assert_ne!(key(Family::Star, &[1, 2]), key(Family::Line, &[1, 2]));
    for counts in [[3, 0], [2, 1], [1, 2], [0, 3]] {
        assert_eq!(key(Family::Cycle, &counts), key(Family::Clique, &counts));
    }
    for counts in [[4, 0], [2, 2], [3, 1], [1, 4]] {
        for (i, a) in FAMILIES.into_iter().enumerate() {
            for b in FAMILIES.into_iter().skip(i + 1) {
                assert_ne!(key(a, &counts), key(b, &counts), "{a:?} {b:?} {counts:?}");
            }
        }
    }
    // Fingerprints separate systems on every class.
    assert_ne!(
        StoreKey::of_family(1, Family::Star, &[2, 2]),
        StoreKey::of_family(2, Family::Star, &[2, 2])
    );
}
