//! Every served reply of the servebench pool is pinned byte for byte.
//!
//! The ladder machine's states order and print through `CutoffState`'s
//! `Ord` and `Debug`: `Ord` breaks ties in the broadcast compiler's
//! choice function, and `Debug` feeds the digest in the certificate
//! sidecar. A change to the state's representation must leave both as
//! they were. The reply line itself is written by the streaming
//! certificate encoder and the reply renderer, which splices the cached
//! certificate text; a change to either must leave every byte as it was.
//! So this suite renders the reply of every key of the servebench pool,
//! plain and certified, with `id` unset, `cache` at `miss` and `micros`
//! at zero, and compares two digests per machine with golden values: one
//! over the plain lines, one over the certified lines.
//!
//! The plain digests date from before stability invariants shrank to a
//! bottom SCC and the sidecar became a digest; neither change touches a
//! plain reply. The certified digests were recaptured with that change:
//! ladder, majority and parity certificates carry smaller invariants and
//! new paths, and every certificate, the presence lassos included,
//! carries the new sidecar. The presence certified digest was recaptured
//! again when lasso bodies swapped their `cycle` of configurations for
//! `entry` and `cycle_len`; every other byte of those lines is unchanged.

use weak_async_models::serve::{build_graph, CacheOutcome, MachineRegistry, OkReply, Reply};

/// Node counts per graph family, as `DECIDE_SIZES` in
/// `servebench/workloads.py` lists them for one machine.
type Sizes = [(&'static str, std::ops::Range<u64>); 4];

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Renders `machine`'s reply to every pool key, plain and certified, and
/// checks the key count and one FNV-1a digest over each kind of line.
fn assert_pool_digest(machine: &str, sizes: Sizes, want_keys: usize, golden: [u64; 2]) {
    let registry = MachineRegistry::paper_catalog();
    let entry = registry.get(machine).expect("catalog machine");
    let mut digests = [0xCBF2_9CE4_8422_2325; 2];
    let mut keys = 0;
    for (family, ns) in sizes {
        for n in ns {
            for zeros in 0..=n {
                let graph = build_graph(family, &[zeros, n - zeros]).expect("pool key builds");
                for (digest, certified) in digests.iter_mut().zip([false, true]) {
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
                    *digest = fnv1a(*digest, line.as_bytes());
                    *digest = fnv1a(*digest, b"\n");
                }
                keys += 1;
            }
        }
    }
    assert_eq!(keys, want_keys, "{machine}: pool key count");
    let [plain, certified] = digests;
    assert_eq!(
        plain, golden[0],
        "{machine} plain replies changed: {plain:#018x}"
    );
    assert_eq!(
        certified, golden[1],
        "{machine} certified replies changed: {certified:#018x}"
    );
}

#[test]
fn ladder_pool_replies_match_the_golden_digest() {
    let sizes = [
        ("cycle", 3..5),
        ("line", 3..4),
        ("star", 4..5),
        ("clique", 4..8),
    ];
    assert_pool_digest(
        "ladder",
        sizes,
        44,
        [0x0f14_a759_48b9_df94, 0x1b70_94bf_6975_865c],
    );
}

#[test]
fn presence_pool_replies_match_the_golden_digest() {
    let sizes = [
        ("cycle", 3..8),
        ("line", 3..8),
        ("star", 4..8),
        ("clique", 4..8),
    ];
    assert_pool_digest(
        "presence",
        sizes,
        112,
        [0x620d_618f_6919_cbf7, 0x1372_4924_ec19_33eb],
    );
}

#[test]
fn majority_pool_replies_match_the_golden_digest() {
    let sizes = [
        ("cycle", 3..6),
        ("line", 3..6),
        ("star", 4..6),
        ("clique", 4..8),
    ];
    assert_pool_digest(
        "majority",
        sizes,
        67,
        [0x9098_c822_b745_241c, 0xca34_0c28_7efe_35d4],
    );
}

#[test]
fn parity_pool_replies_match_the_golden_digest() {
    let sizes = [
        ("cycle", 3..5),
        ("line", 3..5),
        ("star", 4..5),
        ("clique", 4..7),
    ];
    assert_pool_digest(
        "parity",
        sizes,
        41,
        [0xd712_9469_71af_de7d, 0x034a_3a44_5a83_2012],
    );
}
