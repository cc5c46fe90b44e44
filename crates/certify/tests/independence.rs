//! Enforces the acceptance criterion that the verifier module has no
//! dependency on the exploration engine's CSR/interner internals: the
//! checker must re-validate certificates by direct step semantics only.
//! The check is textual over `src/verify.rs` — crude, but it catches the
//! realistic regression (someone importing the engine "just to look up an
//! id") at test time.

const VERIFIER_SOURCE: &str = include_str!("../src/verify.rs");

#[test]
fn verifier_never_touches_the_engine() {
    // Engine type and machinery names that must not appear in the
    // verifier, in imports or anywhere else.
    for forbidden in [
        "Exploration",
        "Interner",
        "intern",
        "succ_off",
        "succ_ids",
        "pre_star",
        "stably_accepting",
        "stably_rejecting",
        "reverse_csr",
        "DecisionMemo",
        "VerdictStore",
        "resolve_backend",
        "wam_core::decide",
        "automorphism_group",
        "QuotientSystem",
    ] {
        assert!(
            !VERIFIER_SOURCE.contains(forbidden),
            "verify.rs mentions {forbidden:?}: the checker must stay engine-independent"
        );
    }
}

#[test]
fn verifier_imports_only_semantics_level_items() {
    // Every reference to `wam_core::X` in the verifier (imports and doc
    // links alike) must name only the semantics surface: machines,
    // configurations, selections, the system traits and the verdict type.
    // Additionally, every item of the (multi-line) `use wam_core::{...}`
    // list is resolved and checked against the same allow list.
    let allowed = [
        "Config",
        "ExclusiveSystem",
        "Machine",
        "Selection",
        "State",
        "TransitionSystem",
        "Verdict",
    ];
    let check = |item: &str| {
        let item = item.trim();
        if item.is_empty() {
            return;
        }
        assert!(
            allowed.contains(&item),
            "verify.rs references wam_core::{item}, which is not on the \
             semantics-only allow list"
        );
    };
    // Path references anywhere in the file.
    let mut rest = VERIFIER_SOURCE;
    while let Some(pos) = rest.find("wam_core::") {
        rest = &rest[pos + "wam_core::".len()..];
        let ident: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        check(&ident);
    }
    // The use statement, which may span multiple lines.
    let mut src = VERIFIER_SOURCE;
    while let Some(pos) = src.find("use wam_core::") {
        let stmt = &src[pos..];
        let end = stmt.find(';').expect("use statement is terminated");
        let body = stmt["use wam_core::".len()..end]
            .trim()
            .trim_start_matches('{')
            .trim_end_matches('}');
        for item in body.split(',') {
            check(item);
        }
        src = &stmt[end..];
    }
}
