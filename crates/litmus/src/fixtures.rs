//! Golden emitted-text fixtures for the corpus.
//!
//! Every litmus program's canonical [`emit`]
//! text is pinned under `tests/golden_emit/`. The fixtures were captured
//! from the hand-written program builders *before* `usecases.rs` and
//! `mislabeled.rs` were rewired onto the shared
//! [`drfrlx_bridge::templates`], so a byte-for-byte match proves the
//! template instantiations reproduce the historical programs
//! instruction for instruction — the same role the differential
//! simulator test plays for the micro workloads.
//!
//! Regenerate with `UPDATE_GOLDEN_EMIT=1 cargo test -p drfrlx-litmus`
//! (only legitimate when a program change is *intended*; the conform
//! artifacts must be regenerated with it).

use crate::suite::{all_tests, stress_tests, LitmusTest};
use drfrlx_core::emit::emit;
use drfrlx_core::parse::parse;
use std::path::PathBuf;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden_emit")
}

/// Every corpus entry, fixture-named.
pub fn fixture_tests() -> Vec<LitmusTest> {
    let mut v = all_tests();
    v.extend(stress_tests());
    v
}

/// Check (or, with `UPDATE_GOLDEN_EMIT=1`, rewrite) one test's fixture.
///
/// # Panics
///
/// Panics when the emitted text diverges from the committed fixture, or
/// when emit→parse→emit is not a fixpoint.
pub fn assert_fixture(t: &LitmusTest) {
    let p = (t.build)();
    let text = emit(&p);
    // Fixpoint: the canonical text round-trips through the parser.
    let reparsed =
        parse(&text).unwrap_or_else(|e| panic!("{}: emitted text unparseable: {e}", t.name));
    assert_eq!(text, emit(&reparsed), "{}: emit→parse→emit must be a fixpoint", t.name);
    let path = fixture_dir().join(format!("{}.litmus", t.name));
    if std::env::var_os("UPDATE_GOLDEN_EMIT").is_some() {
        std::fs::create_dir_all(fixture_dir()).unwrap();
        std::fs::write(&path, &text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: missing fixture {} ({e})", t.name, path.display()));
    assert_eq!(text, golden, "{}: emitted program drifted from the pre-template fixture", t.name);
}
