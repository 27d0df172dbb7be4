//! `drfrlx-conform` — litmus→simulator conformance harness.
//!
//! Closes the loop between the repo's two executable semantics: the
//! axiomatic enumerator in `drfrlx-core` and the cycle-level simulator
//! in `hsim-sys`. A litmus program is [compiled](mod@compile) into a
//! simulator kernel, run across the protocol × model matrix under a
//! family of [perturbed schedules](schedule), and the observed outcome
//! set is checked against the [oracle's](outcome) allowed set:
//! `observed ⊆ allowed` is the soundness verdict, the witnessed
//! fraction of the allowed set is the coverage diagnostic. A seeded
//! [fuzzer](fuzz) feeds random programs through the same loop and a
//! delta-debugging [shrinker](mod@shrink) minimizes any disagreement it
//! finds.
//!
//! Two corpora ride on the harness: the Table-1 litmus programs
//! ([`harness::table1_corpus`]) and the richer [template
//! corpus](templates) instantiating the same shared emitters with the
//! micro workloads' knobs (polls, retries, think delays, scratch +
//! barrier).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod compile;
pub mod fuzz;
pub mod harness;
pub mod outcome;
pub mod schedule;
pub mod shrink;
pub mod templates;

pub use campaign::{render_summary, run_campaign, CampaignState, BUDGET_LADDER};
pub use compile::{compile, CompiledLitmus};
pub use fuzz::generate;
pub use harness::{
    check_conformance, check_conformance_resilient, conform_jobs, is_unsound, render_corpus,
    report_from_partial_runs, report_from_runs, run_corpus, run_template_corpus, table1_corpus,
    ConfigVerdict, ConformOptions, ConformOutcome, ConformReport, ConformResilience,
};
pub use outcome::{allowed_outcomes, Outcome};
pub use schedule::schedule_params;
pub use shrink::shrink;
pub use templates::template_corpus;
