//! Frozen digests of the lowered code of every registry workload.
//!
//! Each digest is FNV-1a over a kernel's `Debug` text, hashed as it is
//! written, so a full-size kernel's text is never held whole. For the
//! template-built microbenchmarks that text is the lowered
//! `ProgramKernel`: every work item's instructions, postfix arena and
//! constant pool, the memory layout and the initial words. The
//! hand-coded benchmarks have no lowered program; their text pins the
//! inputs (trees, graphs) their work items walk.
//!
//! The equivalence tests beside the templates build both of their sides
//! from the same templates and IR, so they cannot see a change that
//! alters what the templates emit. These constants can: they were
//! recorded before the IR and templates were reworked for fewer
//! allocations, and a change that moves one changes the simulated
//! programs.

use drfrlx::workloads::bc::Bc;
use drfrlx::workloads::graphs::{contact_like, mesh_like, road_like};
use drfrlx::workloads::micro::{
    Flags, Hist, HistGlobal, HistGlobalNonOrder, HistParams, RefCounter, Seqlocks, SplitCounter,
};
use drfrlx::workloads::pagerank::PageRank;
use drfrlx::workloads::registry::extensions;
use drfrlx::workloads::sssp::Sssp;
use drfrlx::workloads::uts::Uts;
use drfrlx::workloads::{benchmarks, microbenchmarks};
use drfrlx::OpClass;
use std::fmt::{self, Debug, Write as _};

/// FNV-1a over `x`'s `Debug` text.
fn debug_digest(x: &dyn Debug) -> u64 {
    struct Fnv(u64);
    impl fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{x:?}").unwrap();
    h.0
}

/// Every mismatch at once, so one run shows all the drifted kernels.
fn assert_digests(got: &[(&str, u64)], frozen: &[(&str, u64)]) {
    let names: Vec<&str> = got.iter().map(|&(n, _)| n).collect();
    let want: Vec<&str> = frozen.iter().map(|&(n, _)| n).collect();
    assert_eq!(names, want, "the digested kernels");
    let drifted: Vec<String> = got
        .iter()
        .zip(frozen)
        .filter(|(g, f)| g.1 != f.1)
        .map(|((name, g), (_, f))| format!("{name}: {g:#018x} (frozen {f:#018x})"))
        .collect();
    assert!(drifted.is_empty(), "kernel digests drifted:\n{}", drifted.join("\n"));
}

/// Small instances of every registry family, in registry order.
const SMALL_FROZEN: &[(&str, u64)] = &[
    ("H", 0xa9ce_1666_aa3f_b42e),
    ("HG", 0xd30b_9957_30d0_2239),
    ("HG release", 0xe476_7922_0150_d458),
    ("HG-NO", 0x856e_7118_7ba7_d49c),
    ("Flags", 0x9211_6b15_3adf_4812),
    ("SC", 0xa05e_cbfe_b00a_d3f4),
    ("RC", 0xe57a_f626_28c7_117a),
    ("SEQ", 0x52c9_0061_35b8_2bcd),
    ("SEQ acqrel", 0x29b2_dfee_7f48_43fe),
    ("UTS", 0xf492_f3c3_e7eb_79f7),
    ("BC", 0xfa37_d285_e463_1815),
    ("PR", 0x9419_d0b7_c7ea_ab5d),
    ("SSSP", 0x33e5_4176_0259_e7a7),
];

#[test]
fn small_kernels_match_the_frozen_digests() {
    let hist = HistParams { bins: 32, per_thread: 8, blocks: 4, tpb: 4, seed: 1 };
    let kernels: [(&str, Box<dyn Debug>); 13] = [
        ("H", Box::new(Hist::new(hist.clone()))),
        ("HG", Box::new(HistGlobal::new(hist.clone(), OpClass::Commutative))),
        ("HG release", Box::new(HistGlobal::new(hist.clone(), OpClass::Release))),
        ("HG-NO", Box::new(HistGlobalNonOrder::new(hist))),
        ("Flags", Box::new(Flags::new(4, 4, 8, 200))),
        ("SC", Box::new(SplitCounter::new(4, 4, 8, 2))),
        ("RC", Box::new(RefCounter::new(4, 4, 8, 6))),
        ("SEQ", Box::new(Seqlocks::new(false, 4, 4, 3, 4, 4, 64))),
        ("SEQ acqrel", Box::new(Seqlocks::new(true, 4, 4, 3, 4, 4, 64))),
        ("UTS", Box::new(Uts::scaled(64, 2, 4))),
        ("BC", Box::new(Bc::new(road_like("road", 6, 5, 3), 2, 4))),
        ("PR", Box::new(PageRank::new(contact_like("contact", 40, 3, 5), 2, 2, 4))),
        ("SSSP", Box::new(Sssp::new(mesh_like("mesh", 5, 4), 2, 4))),
    ];
    let got: Vec<(&str, u64)> = kernels.iter().map(|(n, k)| (*n, debug_digest(k))).collect();
    assert_digests(&got, SMALL_FROZEN);
}

/// The kernels `sim_drf0`/`sim_drfrlx` and the figures simulate:
/// `microbenchmarks()`, `benchmarks()` and the SSSP extensions.
const REGISTRY_FROZEN: &[(&str, u64)] = &[
    ("H", 0xb108_4384_fba3_8632),
    ("HG", 0x2119_14b0_e6e0_4649),
    ("HG-NO", 0x4283_f08f_d678_0cd8),
    ("Flags", 0x5233_b393_1e44_e883),
    ("SC", 0xdfd9_11a2_a042_c735),
    ("RC", 0x3a5e_3fef_06c1_c314),
    ("SEQ", 0xb940_c450_0590_332d),
    ("UTS", 0xeb69_c5cf_02af_4304),
    ("BC-1", 0x9947_a4cc_b594_36e9),
    ("BC-2", 0x5cb4_f411_2551_35bc),
    ("BC-3", 0x6277_5124_8ccf_f757),
    ("BC-4", 0xaf0e_5ec8_79eb_ea97),
    ("PR-1", 0x25a5_484b_c402_e767),
    ("PR-2", 0xf147_e62e_6945_96ca),
    ("PR-3", 0x28fe_f988_ef86_9350),
    ("PR-4", 0xdd45_d656_29e9_ab2d),
    ("SSSP-1", 0xbd82_50ed_ad9b_f164),
    ("SSSP-2", 0x9483_b7c4_e143_f63d),
];

#[test]
#[ignore = "full-size registry kernels; run explicitly in release"]
fn registry_kernels_match_the_frozen_digests() {
    let specs = microbenchmarks().into_iter().chain(benchmarks()).chain(extensions());
    let got: Vec<(&str, u64)> = specs.map(|s| (s.name, debug_digest(&(s.build)()))).collect();
    assert_digests(&got, REGISTRY_FROZEN);
}
