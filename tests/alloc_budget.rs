//! Allocation budget of served decisions.
//!
//! A heap field in a machine state costs one allocation on every clone of
//! that state: at interning, in every δ miss (the neighbourhood the step
//! receives is built from cloned states) and in every successor the
//! independent verifier replays. This suite counts the heap calls a
//! decision of the paper catalog makes, per explored configuration, plain
//! and certified, and pins a budget that only heap-free catalog states, an
//! allocation-lean δ miss path and inline counter and ring rows meet.
//!
//! Rendering a reply line is counted too: a cache hit serves the
//! certificate text the decision encoded, so the heap calls of one render
//! must be a small constant, not a number that grows with the
//! certificate.
//!
//! The counting allocator keeps one counter per thread, so the parallel
//! test harness cannot mix the counts of two decisions.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use weak_async_models::extensions::{MajorityState, Phased, Rv};
use weak_async_models::protocols::{CutoffState, ModState};
use weak_async_models::serve::{build_graph, CacheOutcome, MachineRegistry, OkReply, Reply};

/// The system allocator, counting the heap calls of the current thread.
struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: a thread being torn down has no counter left to bump.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell` without a destructor, so bumping
// it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn calls() -> u64 {
    CALLS.with(Cell::get)
}

/// Decides `machine` on one servebench pool key through the catalog entry
/// the service runs (certified decisions include the verifier's replay
/// and the JSON rendering). Returns heap calls per explored configuration.
fn allocs_per_config(machine: &str, family: &str, counts: [u64; 2], certified: bool) -> f64 {
    let registry = MachineRegistry::paper_catalog();
    let entry = registry.get(machine).expect("catalog machine");
    let graph = build_graph(family, &counts).expect("pool key builds");
    let before = calls();
    let decided = entry.decide(&graph, certified).expect("machine decides");
    let made = calls() - before;
    assert!(decided.explored > 0);
    made as f64 / decided.explored as f64
}

/// Budgets in heap calls per explored configuration, each well under
/// what a heap-backed ladder state costs. Measured per key, plain /
/// certified; the last column is the one pinned (clique and star keys
/// explore counter rows, the cycle key ring rows, the line key node rows).
/// Its certified budgets sit under the previous column's measurements, so
/// they also pin the bottom-SCC invariant's smaller certificates. The
/// table is measured in release builds; a debug build counts more on
/// certified keys (7.2 on the clique), which the budgets leave room for:
///
/// | Key          | `Vec<u8>` estimate | inline estimate | + buffered δ miss | + streaming encoder | + inline rows, flat signature memo | + bottom-SCC invariant, digest sidecar |
/// |--------------|--------------------|-----------------|-------------------|---------------------|------------------------------------|----------------------------------------|
/// | clique [4,3] | 43.9 / 96.2        | 11.5 / 22.9     | 6.7 / 18.1        | 6.7 / 15.1          | 0.6 / 9.1                          | 0.6 / 5.4                              |
/// | star [2,2]   | 12.0 / 20.7        | 4.7 / 7.2       | 3.5 / 6.0         | 3.5 / 5.4           | 0.1 / 1.9                          | 0.1 / 0.9                              |
/// | cycle [2,2]  | 19.8 / 114.4       | 7.1 / 23.4      | 2.3 / 18.6        | 2.3 / 17.1          | 0.3 / 15.0                         | 0.3 / 4.6                              |
/// | line [2,1]   | 10.8 / 20.4        | 3.5 / 6.8       | 0.4 / 3.7         | 0.4 / 3.3           | 0.4 / 3.3                          | 0.4 / 2.3                              |
const BUDGETS: [(&str, [u64; 2], bool, f64); 8] = [
    ("clique", [4, 3], false, 1.0),
    ("clique", [4, 3], true, 8.0),
    ("star", [2, 2], false, 1.0),
    ("star", [2, 2], true, 1.5),
    ("cycle", [2, 2], false, 1.0),
    ("cycle", [2, 2], true, 7.0),
    ("line", [2, 1], false, 2.0),
    ("line", [2, 1], true, 3.0),
];

/// Plain budgets of the other catalog machines' counter and ring keys,
/// in heap calls per explored configuration. Measured before and after
/// counter and ring rows moved inline:
///
/// | Key                   | Rows    | boxed rows | inline rows, flat signature memo |
/// |-----------------------|---------|------------|----------------------------------|
/// | majority clique [4,3] | counter | 2.5        | 0.2                              |
/// | parity clique [4,2]   | counter | 2.6        | 0.0                              |
/// | majority cycle [3,2]  | ring    | 3.1        | 0.1                              |
const ROW_BUDGETS: [(&str, &str, [u64; 2], f64); 3] = [
    ("majority", "clique", [4, 3], 1.0),
    ("parity", "clique", [4, 2], 1.0),
    ("majority", "cycle", [3, 2], 1.0),
];

/// Checks each budget, reporting every key over its budget at once.
fn assert_within<'a>(keys: impl IntoIterator<Item = (&'a str, &'a str, [u64; 2], bool, f64)>) {
    let mut over = Vec::new();
    for (machine, family, counts, certified, budget) in keys {
        let per = allocs_per_config(machine, family, counts, certified);
        eprintln!("{machine} {family} {counts:?} certified={certified}: {per:.2} allocs/config");
        if per > budget {
            over.push(format!(
                "{machine} {family} {counts:?} certified={certified}: {per:.2} > {budget}"
            ));
        }
    }
    assert!(over.is_empty(), "over budget: {over:#?}");
}

#[test]
fn ladder_decisions_stay_within_their_allocation_budget() {
    assert_within(
        BUDGETS.map(|(family, counts, certified, budget)| {
            ("ladder", family, counts, certified, budget)
        }),
    );
}

#[test]
fn counter_and_ring_rows_allocate_under_once_per_config() {
    assert_within(
        ROW_BUDGETS
            .map(|(machine, family, counts, budget)| (machine, family, counts, false, budget)),
    );
}

#[test]
fn catalog_states_own_no_heap_memory() {
    // The state types of the four catalog machines: presence, ladder,
    // majority, parity.
    assert!(!std::mem::needs_drop::<u32>());
    assert!(!std::mem::needs_drop::<Phased<CutoffState>>());
    assert!(!std::mem::needs_drop::<Rv<MajorityState>>());
    assert!(!std::mem::needs_drop::<Rv<ModState>>());
}

/// Heap calls one reply line may make, whatever the size of the
/// certificate it carries.
const RENDER_BUDGET: u64 = 8;

/// Renders the cache-hit reply of `majority` on the line [5,1], a key
/// whose certificate is well over the 50 000-byte floor the render test
/// needs. Returns the heap calls of the render and the line's length.
fn render_calls(certified: bool) -> (u64, usize) {
    let registry = MachineRegistry::paper_catalog();
    let majority = registry.get("majority").expect("catalog has majority");
    let graph = build_graph("line", &[5, 1]).expect("line key builds");
    let result = majority
        .decide(&graph, certified)
        .expect("majority decides");
    let reply = Reply::Ok(OkReply {
        id: Some(7),
        machine: "majority".to_string(),
        result,
        cache: CacheOutcome::Hit,
        degraded: false,
        micros: 12,
    });
    let before = calls();
    let line = reply.render();
    (calls() - before, line.len())
}

#[test]
fn hit_replies_render_within_a_constant_allocation_budget() {
    let (plain, plain_len) = render_calls(false);
    let (certified, certified_len) = render_calls(true);
    eprintln!("plain hit: {plain} heap calls, {plain_len} bytes");
    eprintln!("certified hit: {certified} heap calls, {certified_len} bytes");
    assert!(
        certified_len > 50_000,
        "the majority line [5,1] certificate must be large: {certified_len} bytes"
    );
    assert!(
        plain <= RENDER_BUDGET,
        "plain hit reply: {plain} heap calls > {RENDER_BUDGET}"
    );
    assert!(
        certified <= RENDER_BUDGET,
        "certified hit reply: {certified} heap calls > {RENDER_BUDGET}"
    );
}
