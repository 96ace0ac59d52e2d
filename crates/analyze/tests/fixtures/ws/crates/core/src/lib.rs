//! Fixture: exercises ordering-audit and counter-catalog-sync (hits,
//! allow suppressions, test regions). Scanned as text only — never
//! compiled.

use std::sync::atomic::{AtomicU64, Ordering};

// An unwrap outside every serve entry point's call graph: no rule here
// flags it. In the real workspace clippy's `unwrap_used` guards the
// panic-free crates' library code; this fixture is never compiled, so
// nothing checks it here.
pub fn unwrap_unreached(x: Option<u32>) -> u32 {
    x.unwrap()
}

// A string literal mentioning .unwrap() is not a panic site.
pub const DOC: &str = "call .unwrap() at your own risk";

pub fn atomics(a: &AtomicU64) {
    a.load(Ordering::Relaxed); // ordering-audit hit (no justification)
    // ordering: fixture — independent counter, readers join first.
    a.fetch_add(1, Ordering::Relaxed);
    a.store(0, Ordering::SeqCst); // ordering-audit SeqCst warning
}

pub fn metrics() {
    aqo_obs::counter_handle!("fixture.hits").add(1);
    aqo_obs::gauge("fixture.depth").set(3);
    aqo_obs::counter("fixture.undocumented").add(1); // catalog-sync hit
    aqo_obs::counter("fixture.shadow").add(1); // analyze:allow(counter-catalog-sync) -- fixture-only name
    let _guard = aqo_obs::span("fix_span");
    aqo_obs::journal::event("fix_event", vec![("n", 1.into())]);
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_in_tests_is_fine() {
        Some(1u32).unwrap();
    }
}
