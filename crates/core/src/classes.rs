//! Shared vocabulary of the paper: operation classes, memory models,
//! coherence protocols and the six evaluated system configurations.

use std::fmt;

/// How a memory operation is distinguished to the system (paper §3.6).
///
/// DRFrlx requires every memory operation to be distinguished as `Data`
/// or as one of six atomic classes. `Paired` corresponds to C++ SC
/// atomics; `Unpaired` comes from DRF1; the remaining four are the
/// relaxed-atomic use cases the paper identifies (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpClass {
    /// An ordinary, never-racing access (DRF0's "data" operations).
    Data,
    /// An SC atomic (C++ `memory_order_seq_cst`); DRF1's paired atomic.
    Paired,
    /// DRF1's unpaired atomic: racy, but never orders data operations.
    Unpaired,
    /// Racy interactions only via commuting operations whose loaded
    /// values are unobserved (§3.2, event counters).
    Commutative,
    /// Racy, but never responsible for creating an order between other
    /// accesses (§3.3, flags).
    NonOrdering,
    /// Truly non-SC; the program must be correct for *any* loaded value
    /// (§3.4, split/reference counters).
    Quantum,
    /// Racy loads whose misspeculated values are discarded (§3.5,
    /// seqlocks).
    Speculative,
    /// One-sided synchronization: orders this operation before
    /// everything po-later (like C++ `memory_order_acquire`). Paper §7
    /// future work, modelled after PLpc; synchronizes when it reads
    /// from a [`OpClass::Release`] or [`OpClass::Paired`] write.
    ///
    /// **Guarantee caveat**: one-sided atomics provide happens-before
    /// ordering, not full SC — programs whose only synchronization
    /// around a cycle is one-sided (e.g. rel/acq store buffering) can
    /// observe non-SC results, exactly as in C++. The SC-centric
    /// guarantee (Theorem 3.1) applies to programs without one-sided
    /// atomics; PLpc's unessential/loop characterizations would be
    /// needed to recover SC reasoning here.
    Acquire,
    /// One-sided synchronization: orders everything po-earlier before
    /// this operation (like C++ `memory_order_release`).
    Release,
}

impl OpClass {
    /// All nine classes: the paper's seven plus the §7 acquire/release
    /// extension.
    pub const ALL: [OpClass; 9] = [
        OpClass::Data,
        OpClass::Paired,
        OpClass::Unpaired,
        OpClass::Commutative,
        OpClass::NonOrdering,
        OpClass::Quantum,
        OpClass::Speculative,
        OpClass::Acquire,
        OpClass::Release,
    ];

    /// Is this any kind of atomic (i.e. not a data access)?
    pub fn is_atomic(self) -> bool {
        self != OpClass::Data
    }

    /// Is this one of the four relaxed-atomic categories DRFrlx adds
    /// beyond DRF1? (§3.6: for system optimization these merge into a
    /// single "relaxed" category.)
    pub fn is_relaxed(self) -> bool {
        matches!(
            self,
            OpClass::Commutative | OpClass::NonOrdering | OpClass::Quantum | OpClass::Speculative
        )
    }

    /// Does this class carry synchronization (create happens-before
    /// edges) on its read side?
    pub fn is_acquire_side(self) -> bool {
        matches!(self, OpClass::Paired | OpClass::Acquire)
    }

    /// Does this class carry synchronization on its write side?
    pub fn is_release_side(self) -> bool {
        matches!(self, OpClass::Paired | OpClass::Release)
    }

    /// Short label used in printed executions ("P", "UNP", "NO", ...).
    pub fn short(self) -> &'static str {
        match self {
            OpClass::Data => "D",
            OpClass::Paired => "P",
            OpClass::Unpaired => "UNP",
            OpClass::Commutative => "COM",
            OpClass::NonOrdering => "NO",
            OpClass::Quantum => "Q",
            OpClass::Speculative => "SPEC",
            OpClass::Acquire => "ACQ",
            OpClass::Release => "REL",
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short())
    }
}

/// What an operation's class means to the *hardware* once a memory model
/// is fixed (paper Table 4 / §3.6).
///
/// The four relaxed categories are indistinguishable to the system: they
/// allow the same optimizations. Only the programmer-facing contract
/// differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Strength {
    /// Plain data access.
    Data,
    /// Invalidate at loads, flush store buffer at stores, no overlap.
    Paired,
    /// No invalidate / flush, but executes in program order with respect
    /// to other atomics.
    Unpaired,
    /// May additionally overlap with other atomics in the memory system.
    Relaxed,
    /// Acquire half of paired: invalidates, never flushes; blocks
    /// po-later operations only.
    Acquire,
    /// Release half of paired: flushes, never invalidates; waits for
    /// po-earlier operations only.
    Release,
}

/// The three consistency models evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemoryModel {
    /// SC-for-DRF: all atomics are paired.
    Drf0,
    /// Adds unpaired atomics (Adve & Hill 1993).
    Drf1,
    /// This paper: adds commutative, non-ordering, quantum and
    /// speculative atomics.
    Drfrlx,
}

impl MemoryModel {
    /// All three models, weakest-guarantee last.
    pub const ALL: [MemoryModel; 3] = [MemoryModel::Drf0, MemoryModel::Drf1, MemoryModel::Drfrlx];

    /// Map a programmer annotation to the strength the system enforces
    /// under this model.
    ///
    /// * DRF0 knows only data/atomic, so every atomic is paired.
    /// * DRF1 knows paired/unpaired, so the relaxed classes degrade to
    ///   unpaired (sound: stronger than required).
    /// * DRFrlx enforces exactly the annotated strength.
    pub fn strength_of(self, class: OpClass) -> Strength {
        match (self, class) {
            (_, OpClass::Data) => Strength::Data,
            (MemoryModel::Drf0, _) => Strength::Paired,
            (_, OpClass::Paired) => Strength::Paired,
            // DRF1 has no one-sided synchronization: acquire/release
            // degrade (soundly) to paired, everything else to unpaired.
            (MemoryModel::Drf1, OpClass::Acquire | OpClass::Release) => Strength::Paired,
            (MemoryModel::Drf1, _) => Strength::Unpaired,
            (_, OpClass::Unpaired) => Strength::Unpaired,
            (MemoryModel::Drfrlx, OpClass::Acquire) => Strength::Acquire,
            (MemoryModel::Drfrlx, OpClass::Release) => Strength::Release,
            (MemoryModel::Drfrlx, _) => Strength::Relaxed,
        }
    }

    /// The classes a program may use under this model, i.e. the classes
    /// whose contract the model defines.
    pub fn admits(self, class: OpClass) -> bool {
        match self {
            MemoryModel::Drf0 => matches!(class, OpClass::Data | OpClass::Paired),
            MemoryModel::Drf1 => {
                matches!(class, OpClass::Data | OpClass::Paired | OpClass::Unpaired)
            }
            MemoryModel::Drfrlx => true,
        }
    }
}

impl fmt::Display for MemoryModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MemoryModel::Drf0 => "DRF0",
            MemoryModel::Drf1 => "DRF1",
            MemoryModel::Drfrlx => "DRFrlx",
        })
    }
}

/// The coherence protocols the simulator implements: the paper's two
/// (§2.1, §2.2) plus a writeback MESI-style baseline (the CPU-class
/// protocol §2 contrasts against).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Protocol {
    /// Conventional GPU coherence: write-through, full self-invalidation
    /// on paired loads, store-buffer flush on paired stores, all atomics
    /// performed at the shared L2.
    Gpu,
    /// DeNovo: ownership for stores and atomics at the L1, writeback,
    /// selective self-invalidation, atomic reuse and MSHR coalescing.
    DeNovo,
    /// Writeback MESI-style ownership coherence (CPU-class baseline):
    /// a directory tracks sharers, stores invalidate them, reads of
    /// dirty lines recall the owner, atomics execute at an owned L1,
    /// and acquires are free (the hardware keeps caches coherent, so
    /// nothing needs self-invalidation).
    MesiWb,
}

impl Protocol {
    /// The two protocols evaluated in the paper. Everything keyed to the
    /// paper's presentation (six-config sweeps, committed artifacts)
    /// iterates this set.
    pub const ALL: [Protocol; 2] = [Protocol::Gpu, Protocol::DeNovo];

    /// Every implemented protocol, paper pair first.
    pub const WITH_EXTENSIONS: [Protocol; 3] = [Protocol::Gpu, Protocol::DeNovo, Protocol::MesiWb];

    /// Parse a protocol name as accepted by the CLI `--protocol` flag
    /// (case-insensitive: "gpu", "denovo", "mesi" / "mesi-wb").
    pub fn from_name(s: &str) -> Option<Protocol> {
        match s.to_ascii_lowercase().as_str() {
            "gpu" => Some(Protocol::Gpu),
            "denovo" | "de-novo" => Some(Protocol::DeNovo),
            "mesi" | "mesi-wb" | "mesiwb" => Some(Protocol::MesiWb),
            _ => None,
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Protocol::Gpu => "GPU",
            Protocol::DeNovo => "DeNovo",
            Protocol::MesiWb => "MESI-WB",
        })
    }
}

/// One of the six evaluated protocol × model configurations (§4.3):
/// GD0, GD1, GDR, DD0, DD1, DDR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SystemConfig {
    /// Coherence protocol.
    pub protocol: Protocol,
    /// Consistency model.
    pub model: MemoryModel,
}

impl SystemConfig {
    /// Construct a configuration.
    pub fn new(protocol: Protocol, model: MemoryModel) -> Self {
        SystemConfig { protocol, model }
    }

    /// All six configurations in the paper's presentation order:
    /// GD0, GD1, GDR, DD0, DD1, DDR.
    pub fn all() -> [SystemConfig; 6] {
        let mut out = [SystemConfig::new(Protocol::Gpu, MemoryModel::Drf0); 6];
        let mut i = 0;
        for protocol in Protocol::ALL {
            for model in MemoryModel::ALL {
                out[i] = SystemConfig { protocol, model };
                i += 1;
            }
        }
        out
    }

    /// Every implemented configuration: the paper's six followed by the
    /// MESI-WB extension (MD0, MD1, MDR).
    pub fn extended() -> [SystemConfig; 9] {
        let mut out = [SystemConfig::new(Protocol::Gpu, MemoryModel::Drf0); 9];
        let mut i = 0;
        for protocol in Protocol::WITH_EXTENSIONS {
            for model in MemoryModel::ALL {
                out[i] = SystemConfig { protocol, model };
                i += 1;
            }
        }
        out
    }

    /// The abbreviation for this configuration: the paper's for its six
    /// ("GD0"), the same scheme for the MESI-WB extension ("MD0").
    pub fn abbrev(self) -> &'static str {
        match (self.protocol, self.model) {
            (Protocol::Gpu, MemoryModel::Drf0) => "GD0",
            (Protocol::Gpu, MemoryModel::Drf1) => "GD1",
            (Protocol::Gpu, MemoryModel::Drfrlx) => "GDR",
            (Protocol::DeNovo, MemoryModel::Drf0) => "DD0",
            (Protocol::DeNovo, MemoryModel::Drf1) => "DD1",
            (Protocol::DeNovo, MemoryModel::Drfrlx) => "DDR",
            (Protocol::MesiWb, MemoryModel::Drf0) => "MD0",
            (Protocol::MesiWb, MemoryModel::Drf1) => "MD1",
            (Protocol::MesiWb, MemoryModel::Drfrlx) => "MDR",
        }
    }

    /// Parse an abbreviation ("GD0".."DDR", "MD0".."MDR";
    /// case-insensitive).
    pub fn from_abbrev(s: &str) -> Option<SystemConfig> {
        SystemConfig::extended().into_iter().find(|c| c.abbrev().eq_ignore_ascii_case(s))
    }
}

impl fmt::Display for SystemConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drf0_pairs_every_atomic() {
        for class in OpClass::ALL {
            let s = MemoryModel::Drf0.strength_of(class);
            if class == OpClass::Data {
                assert_eq!(s, Strength::Data);
            } else {
                assert_eq!(s, Strength::Paired, "{class:?} must be paired under DRF0");
            }
        }
    }

    #[test]
    fn drf1_degrades_relaxed_to_unpaired() {
        assert_eq!(MemoryModel::Drf1.strength_of(OpClass::Commutative), Strength::Unpaired);
        assert_eq!(MemoryModel::Drf1.strength_of(OpClass::Quantum), Strength::Unpaired);
        assert_eq!(MemoryModel::Drf1.strength_of(OpClass::Paired), Strength::Paired);
        assert_eq!(MemoryModel::Drf1.strength_of(OpClass::Unpaired), Strength::Unpaired);
    }

    #[test]
    fn drfrlx_merges_relaxed_categories() {
        for class in
            [OpClass::Commutative, OpClass::NonOrdering, OpClass::Quantum, OpClass::Speculative]
        {
            assert_eq!(MemoryModel::Drfrlx.strength_of(class), Strength::Relaxed);
        }
        assert_eq!(MemoryModel::Drfrlx.strength_of(OpClass::Unpaired), Strength::Unpaired);
    }

    #[test]
    fn admits_is_monotone_in_model() {
        for class in OpClass::ALL {
            if MemoryModel::Drf0.admits(class) {
                assert!(MemoryModel::Drf1.admits(class));
            }
            if MemoryModel::Drf1.admits(class) {
                assert!(MemoryModel::Drfrlx.admits(class));
            }
        }
    }

    #[test]
    fn config_abbrevs_roundtrip() {
        for cfg in SystemConfig::extended() {
            assert_eq!(SystemConfig::from_abbrev(cfg.abbrev()), Some(cfg));
        }
        assert_eq!(SystemConfig::from_abbrev("gdr").unwrap().abbrev(), "GDR");
        assert_eq!(SystemConfig::from_abbrev("mdr").unwrap().abbrev(), "MDR");
        assert_eq!(SystemConfig::from_abbrev("XYZ"), None);
    }

    #[test]
    fn six_distinct_configs() {
        let all = SystemConfig::all();
        for i in 0..6 {
            for j in (i + 1)..6 {
                assert_ne!(all[i], all[j]);
            }
        }
    }

    #[test]
    fn extended_configs_prefix_matches_paper_set() {
        let ext = SystemConfig::extended();
        assert_eq!(&ext[..6], &SystemConfig::all()[..], "paper set must come first, unchanged");
        for cfg in &ext[6..] {
            assert_eq!(cfg.protocol, Protocol::MesiWb);
        }
    }

    #[test]
    fn protocol_names_parse() {
        assert_eq!(Protocol::from_name("gpu"), Some(Protocol::Gpu));
        assert_eq!(Protocol::from_name("DeNovo"), Some(Protocol::DeNovo));
        assert_eq!(Protocol::from_name("mesi"), Some(Protocol::MesiWb));
        assert_eq!(Protocol::from_name("MESI-WB"), Some(Protocol::MesiWb));
        assert_eq!(Protocol::from_name("mose"), None);
    }

    #[test]
    fn relaxed_classification() {
        assert!(!OpClass::Data.is_relaxed());
        assert!(!OpClass::Paired.is_relaxed());
        assert!(!OpClass::Unpaired.is_relaxed());
        assert!(OpClass::Speculative.is_relaxed());
        assert!(!OpClass::Data.is_atomic());
        assert!(OpClass::Unpaired.is_atomic());
    }
}
