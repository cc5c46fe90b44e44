//! The served `ladder` replies are pinned byte for byte.
//!
//! The ladder machine's states order and print through `CutoffState`'s
//! `Ord` and `Debug`: `Ord` breaks ties in the broadcast compiler's
//! choice function, and `Debug` writes the certificate state tables. A
//! change to the state's representation must leave both as they were, so
//! this suite renders the reply of every `ladder` key of the servebench
//! pool, plain and certified, with `micros` at zero, and compares one
//! digest over all of them with the digest captured when the estimate
//! was a `Vec<u8>`.

use weak_async_models::serve::{build_graph, CacheOutcome, MachineRegistry, OkReply, Reply};

/// The `ladder` node counts of the servebench pool, per family.
const SIZES: [(&str, std::ops::Range<u64>); 4] = [
    ("cycle", 3..5),
    ("line", 3..4),
    ("star", 4..5),
    ("clique", 4..8),
];

/// FNV-1a over the reply lines, in pool order, plain before certified.
const GOLDEN: u64 = 0x877c_7397_51b4_75c5;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[test]
fn ladder_pool_replies_match_the_golden_digest() {
    let registry = MachineRegistry::paper_catalog();
    let ladder = registry.get("ladder").expect("catalog has ladder");
    let mut digest = 0xCBF2_9CE4_8422_2325;
    let mut keys = 0;
    for (family, sizes) in SIZES {
        for n in sizes {
            for zeros in 0..=n {
                let graph = build_graph(family, &[zeros, n - zeros]).expect("pool key builds");
                for certified in [false, true] {
                    let result = ladder.decide(&graph, certified).expect("ladder decides");
                    let line = Reply::Ok(OkReply {
                        id: None,
                        machine: "ladder".to_string(),
                        result,
                        cache: CacheOutcome::Miss,
                        degraded: false,
                        micros: 0,
                    })
                    .render();
                    digest = fnv1a(digest, line.as_bytes());
                    digest = fnv1a(digest, b"\n");
                }
                keys += 1;
            }
        }
    }
    assert_eq!(keys, 44, "the servebench pool has 44 ladder keys");
    assert_eq!(digest, GOLDEN, "ladder replies changed: {digest:#018x}");
}
