//! The template corpus stays SOUND across all nine protocol × model
//! configurations — the end-to-end acceptance check for the
//! single-source program pipeline: shared template → `Program` →
//! litmus lowering → simulator matrix → axiomatic oracle.
//!
//! Schedules are fewer than the committed artifact's 128 (the golden
//! test in `drfrlx-bench` pins that one byte-for-byte); soundness must
//! hold for every schedule family, so a cheaper family is still a real
//! check.

use drfrlx_conform::{compile, run_template_corpus, template_corpus, ConformOptions};

fn opts() -> ConformOptions {
    ConformOptions { schedules: 24, ..ConformOptions::default() }
}

#[test]
fn template_corpus_is_sound_on_all_nine_configs() {
    let o = opts();
    assert_eq!(o.configs.len(), 9, "default options cover the extended matrix");
    let reports = run_template_corpus(&o).expect("template programs enumerate within limits");
    assert_eq!(reports.len(), template_corpus().len());
    for r in &reports {
        for v in &r.verdicts {
            assert!(
                v.violations.is_empty(),
                "{} under {}: observed outcome outside the SC set: {:?}",
                r.name,
                v.config,
                v.violations.iter().map(|o| o.render()).collect::<Vec<_>>()
            );
        }
        assert!(r.coverage() > 0.0, "{}: no allowed outcome witnessed at all", r.name);
    }
}

/// The scratch + barrier histogram lowers to a single block (the
/// enumerator rendezvouses all threads and shares one scratch space)
/// with the scratchpad sized from its constant addresses.
#[test]
fn hist_program_lowers_to_one_block_with_sized_scratch() {
    use hsim_gpu::Kernel;
    let (_, p) = template_corpus().into_iter().find(|(n, _)| n == "tmpl_hist_scratch").unwrap();
    let shape = compile(&p);
    assert_eq!(shape.blocks(), 1);
    assert_eq!(shape.threads_per_block(), p.threads().len());
    // 2 threads × 2 bins of private scratch rows: slots 0..4.
    assert_eq!(shape.scratch_words(), 4);
}

/// Barrier-free programs keep the historical one-thread-per-block
/// litmus layout — the committed `results/conform_matrix.txt` depends on it.
#[test]
fn barrier_free_programs_keep_one_thread_per_block() {
    use hsim_gpu::Kernel;
    for (name, p) in template_corpus() {
        if name == "tmpl_hist_scratch" {
            continue;
        }
        let shape = compile(&p);
        assert_eq!(shape.threads_per_block(), 1, "{name}");
        assert_eq!(shape.blocks(), p.threads().len(), "{name}");
        assert_eq!(shape.scratch_words(), 0, "{name}");
    }
}
