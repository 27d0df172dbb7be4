//! Programs that single out one Listing 7 clause each.
//!
//! Every program here gets its verdict or its race kinds from one
//! clause of the race rules that the rest of the corpus never decides
//! alone: weaken that clause and the program's expectation in
//! [`crate::suite::clause_tests`] fails. DESIGN.md ("Testing strategy")
//! lists the weakened rules each program catches.

use drfrlx_core::program::{Program, RmwOp};
use drfrlx_core::OpClass;

/// §3.3.3, the second valid path (`valid-pco2`): unpaired x accesses
/// are ordered through a non-ordering store *and* through an unpaired
/// flag. The ordering path via the non-ordering store has no
/// same-location alternative, so only the all-unpaired path
/// `W x → W f → R f → R x` absolves it. Race-free under every model.
pub fn mp_unpaired_past_non_ordering() -> Program {
    let mut p = Program::new("mp_unpaired_past_non_ordering");
    {
        let mut t = p.thread();
        t.store(OpClass::Unpaired, "x", 1);
        t.store(OpClass::NonOrdering, "n", 1);
        t.store(OpClass::Unpaired, "f", 1);
    }
    {
        let mut t = p.thread();
        let f = t.load(OpClass::Unpaired, "f");
        t.if_nz(f, |t| {
            let d = t.load(OpClass::Unpaired, "x");
            t.observe(d);
        });
    }
    p.build()
}

/// §3.2.3 with §3.3.3: an observed commutative increment races with a
/// second increment that a non-ordering flag orders after it. The
/// observed value makes the pair a commutative race, which also takes
/// it out of the non-ordering detector's residual races. If the
/// observed increment were allowed to commute its race away, the pair
/// would fall through to that detector and add a non-ordering race.
pub fn observed_increment_past_non_ordering() -> Program {
    let mut p = Program::new("observed_increment_past_non_ordering");
    {
        let mut t = p.thread();
        let old = t.rmw(OpClass::Commutative, "c", RmwOp::FetchAdd, 1);
        t.observe(old);
        t.store(OpClass::NonOrdering, "n", 1);
    }
    {
        let mut t = p.thread();
        let n = t.load(OpClass::NonOrdering, "n");
        t.if_nz(n, |t| {
            t.rmw(OpClass::Commutative, "c", RmwOp::FetchAdd, 1);
        });
    }
    p.build()
}
