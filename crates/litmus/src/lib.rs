//! # drfrlx-litmus — litmus corpus for the DRFrlx memory model
//!
//! The paper validates its Herd formalization on "numerous litmus tests
//! ... the use cases in Table 1, incorrectly labeled versions of these
//! use cases, and various other tests designed to stress various racy
//! and non-racy patterns" (§3.8). This crate is that corpus:
//!
//! * [`usecases`] — the Table 1 use cases as executable litmus programs:
//!   Work Queue (Listing 1), Event Counter (Listing 2), Flags
//!   (Listing 3), Split Counter (Listing 4), Reference Counter
//!   (Listing 5), Seqlocks (Listing 6).
//! * [`mislabeled`] — the same programs with deliberately wrong
//!   annotations, each expected to be flagged with a specific race kind.
//! * [`classic`] — classic weak-memory shapes (MP, SB, LB, CoRR, IRIW,
//!   Figure 2) with varying labels.
//! * [`stress`] — 4-thread stress variants (IRIW, event counter,
//!   seqlock) sized past the default execution budget for exhaustive
//!   enumeration; only the streaming checker's partial-order reduction
//!   finishes them.
//! * [`clauses`] — one program per race-rule clause that the rest of
//!   the corpus never decides alone, registered in
//!   [`suite::clause_tests`].
//! * [`suite`] — a declarative registry of all tests with their expected
//!   verdicts under DRF0 / DRF1 / DRFrlx, and a runner that checks both
//!   the programmer-centric model (race detection) and the
//!   system-centric model (SC-only results for race-free programs —
//!   Theorem 3.1).
//!
//! ```
//! use drfrlx_litmus::suite;
//!
//! let tests = suite::all_tests();
//! assert!(tests.len() >= 20);
//! let seqlock = tests.iter().find(|t| t.name == "seqlock").unwrap();
//! suite::run(seqlock).expect("seqlock matches the paper's verdicts");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classic;
pub mod clauses;
pub mod fixtures;
pub mod mislabeled;
pub mod stress;
pub mod suite;
pub mod usecases;

pub use suite::{all_tests, clause_tests, run, stress_tests, Category, LitmusTest};
