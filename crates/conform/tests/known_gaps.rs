//! Known coverage gaps of the committed conformance run, pinned.
//!
//! Coverage gaps are diagnostics, not failures (soundness is
//! `observed ⊆ allowed`; coverage only reports how much of the
//! allowed set the schedule family witnessed). The committed
//! `results/conform_matrix.txt` — 9 configurations × 128 schedules,
//! seed 1 — witnesses 42 of the corpus's 43 allowed outcomes. The one
//! gap:
//!
//! * **seqlock**: the reader's clean-success outcome
//!   `mem=[seq=2, d1=10, d2=20]`, reader registers
//!   `[seq0=2, d1=10, d2=20, seq1=2]` — the reader's single attempt
//!   running entirely *after* the writer's critical section. Both
//!   threads launch at cycle 0 and the schedule family's ready-time
//!   jitter is bounded well below the writer's five-operation critical
//!   section, so the reader's first `seq0` load always issues before
//!   the writer's unlock lands. Witnessing it would need a schedule
//!   family with larger start skew — which would perturb every other
//!   committed conformance artifact, so the gap is pinned here
//!   instead.
//!
//! This test re-runs the committed options for the seqlock program and
//! asserts the gap is *exactly* that outcome: if a future schedule
//! family witnesses it (or loses another outcome), this test fails and
//! the documentation above — plus `results/conform_matrix.txt` — must move
//! together.

use drfrlx_conform::{check_conformance, table1_corpus, ConformOptions};

#[test]
fn seqlock_gap_is_exactly_the_post_writer_clean_read() {
    let (_, p) = table1_corpus().into_iter().find(|(n, _)| n == "seqlock").unwrap();
    // The committed artifact's options: 9 configs × 128 schedules, seed 1.
    let opts = ConformOptions::default();
    let r = check_conformance(&p, &opts).expect("seqlock enumerates within default limits");
    assert!(r.sound());
    assert_eq!(r.allowed.len(), 18);
    assert_eq!(r.witnessed(), 17, "the known gap regressed or was witnessed; update known_gaps");
    let unwitnessed: Vec<String> =
        r.allowed.difference(&r.observed_union()).map(|o| o.render()).collect();
    assert_eq!(
        unwitnessed,
        vec!["mem=[2, 10, 20] regs=[[0], [2, 10, 20, 2]]".to_string()],
        "the unwitnessed outcome moved; update the documentation above"
    );
}
