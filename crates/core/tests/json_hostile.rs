//! Hostile JSON through every public entry point of `lima-core` that reads
//! JSON: pathological nesting is an ordinary error on a small stack, never a
//! stack overflow (ROADMAP aim 3: "a typed error, never a panic").

use lima_core::obs::{parse_json, validate_chrome_trace};
use lima_core::{diagnostics_from_json, Diagnostic};

/// Runs `f` on a thread with a `kib` KiB stack.
fn on_stack(kib: usize, f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(kib * 1024)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no panic and no stack overflow");
}

/// Runs `f` on a 256 KiB stack — a quarter of what a spawned thread gets by
/// default, so unbounded recursion dies here long before it would on a
/// service thread.
fn on_small_stack(f: impl FnOnce() + Send + 'static) {
    on_stack(256, f);
}

#[test]
fn pathological_nesting_is_an_error_at_every_entry_point() {
    on_small_stack(|| {
        for unit in ["[", "{\"a\":"] {
            let deep = unit.repeat(200_000);
            let err = parse_json(&deep).unwrap_err();
            assert!(err.contains("nesting"), "{err}");
            assert!(validate_chrome_trace(&deep).is_err());
            assert_eq!(diagnostics_from_json(&deep), None);
            assert_eq!(Diagnostic::from_json(&deep), None);
            // The same depth hidden inside an otherwise well-formed trace.
            let wrapped = format!("{{\"traceEvents\":[{deep}");
            assert!(validate_chrome_trace(&wrapped).is_err());
        }
    });
}

#[test]
fn the_deepest_accepted_document_parses_and_drops_on_a_small_stack() {
    // 128 KiB is half the small stack: the margin `MAX_DEPTH`'s doc measures
    // (40 KiB in a debug build) is asserted, not an accident.
    for kib in [256, 128] {
        on_stack(kib, || {
            let depth = lima_core::json::MAX_DEPTH;
            let doc = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
            assert!(parse_json(&doc).is_ok());
            let doc = format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth));
            assert!(parse_json(&doc).is_ok());
        });
    }
}

#[test]
fn surrogate_pairs_survive_a_diagnostic_round_trip() {
    let src = r#"[{"severity":"note","code":"L0205","message":"😀 \ud83d","labels":[]}]"#;
    let diags = diagnostics_from_json(src).expect("parses");
    assert_eq!(diags[0].message, "😀 \u{fffd}");
    let again = lima_core::diagnostics_to_json(&diags);
    assert_eq!(diagnostics_from_json(&again), Some(diags));
}
