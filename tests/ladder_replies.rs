//! Every served reply of the servebench pool is pinned byte for byte.
//!
//! The ladder machine's states order and print through `CutoffState`'s
//! `Ord` and `Debug`: `Ord` breaks ties in the broadcast compiler's
//! choice function, and `Debug` writes the certificate state tables. A
//! change to the state's representation must leave both as they were.
//! The reply line itself is written by the streaming certificate encoder
//! and the reply renderer, which splices the cached certificate text; a
//! change to either must leave every byte as it was. So this suite
//! renders the reply of every key of the servebench pool, plain and
//! certified, with `id` unset, `cache` at `miss` and `micros` at zero,
//! and compares one digest per machine with the digest captured before
//! the change. The ladder digest dates from when the estimate was a
//! `Vec<u8>`; the other three from when certificates were encoded
//! through a `Json` tree and re-parsed on every reply.

use weak_async_models::serve::{build_graph, CacheOutcome, MachineRegistry, OkReply, Reply};

/// Node counts per graph family, as `DECIDE_SIZES` in
/// `servebench/workloads.py` lists them for one machine.
type Sizes = [(&'static str, std::ops::Range<u64>); 4];

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Renders `machine`'s reply to every pool key, plain before certified,
/// and checks the key count and the FNV-1a digest over the lines.
fn assert_pool_digest(machine: &str, sizes: Sizes, want_keys: usize, golden: u64) {
    let registry = MachineRegistry::paper_catalog();
    let entry = registry.get(machine).expect("catalog machine");
    let mut digest = 0xCBF2_9CE4_8422_2325;
    let mut keys = 0;
    for (family, ns) in sizes {
        for n in ns {
            for zeros in 0..=n {
                let graph = build_graph(family, &[zeros, n - zeros]).expect("pool key builds");
                for certified in [false, true] {
                    let result = entry.decide(&graph, certified).expect("pool key decides");
                    let line = Reply::Ok(OkReply {
                        id: None,
                        machine: machine.to_string(),
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
    assert_eq!(keys, want_keys, "{machine}: pool key count");
    assert_eq!(digest, golden, "{machine} replies changed: {digest:#018x}");
}

#[test]
fn ladder_pool_replies_match_the_golden_digest() {
    let sizes = [
        ("cycle", 3..5),
        ("line", 3..4),
        ("star", 4..5),
        ("clique", 4..8),
    ];
    assert_pool_digest("ladder", sizes, 44, 0x877c_7397_51b4_75c5);
}

#[test]
fn presence_pool_replies_match_the_golden_digest() {
    let sizes = [
        ("cycle", 3..8),
        ("line", 3..8),
        ("star", 4..8),
        ("clique", 4..8),
    ];
    assert_pool_digest("presence", sizes, 112, 0x8c11_9874_8c20_3c95);
}

#[test]
fn majority_pool_replies_match_the_golden_digest() {
    let sizes = [
        ("cycle", 3..6),
        ("line", 3..6),
        ("star", 4..6),
        ("clique", 4..8),
    ];
    assert_pool_digest("majority", sizes, 67, 0xaedf_9a2d_398b_f1ee);
}

#[test]
fn parity_pool_replies_match_the_golden_digest() {
    let sizes = [
        ("cycle", 3..5),
        ("line", 3..5),
        ("star", 4..5),
        ("clique", 4..7),
    ];
    assert_pool_digest("parity", sizes, 41, 0xd508_e9e0_d47e_fb5a);
}
