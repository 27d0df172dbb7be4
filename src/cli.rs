//! The single source of truth for the `drfrlx` command-line surface.
//!
//! Every subcommand is one [`Subcommand`] row in [`SUBCOMMANDS`]; the
//! `--help` text ([`usage`]), the README's subcommand table
//! ([`readme_table`]) and the unknown-subcommand error ([`unknown`])
//! are all rendered from it, so a new subcommand (or a new flag in a
//! usage line) appears everywhere at once or nowhere — enforced by
//! `tests/cli_help.rs`. The binary also reads each subcommand's
//! accepted flags off its usage lines ([`Subcommand::flags`]), so a
//! flag the usage does not name is rejected.

/// One subcommand of the `drfrlx` binary.
pub struct Subcommand {
    /// The subcommand word itself (`check`, `conform`, ...).
    pub name: &'static str,
    /// Usage line(s), without the leading `drfrlx` (multi-line for
    /// subcommands whose flags wrap).
    pub usage: &'static str,
    /// One-line summary (the README table cell).
    pub summary: &'static str,
    /// Full help paragraph shown under the usage lines.
    pub help: &'static str,
}

impl Subcommand {
    /// The flags this subcommand's usage lines name, in order, each
    /// with whether it takes an operand: `[--stats]` does not, while
    /// `[--model drf0|drf1|drfrlx]` and `--fuzz N` do.
    pub fn flags(&self) -> Vec<(&'static str, bool)> {
        let words: Vec<&'static str> = self.usage.split_whitespace().collect();
        let mut out: Vec<(&'static str, bool)> = Vec::new();
        for (i, word) in words.iter().enumerate() {
            let word = word.trim_start_matches('[');
            let name = word.trim_end_matches(']');
            if !name.starts_with("--") || out.iter().any(|&(n, _)| n == name) {
                continue;
            }
            let operand = name == word
                && words.get(i + 1).is_some_and(|w| !w.starts_with('[') && !w.starts_with("--"));
            out.push((name, operand));
        }
        out
    }
}

/// The subcommand named `name`, if any.
pub fn find(name: &str) -> Option<&'static Subcommand> {
    SUBCOMMANDS.iter().find(|s| s.name == name)
}

/// Every `drfrlx` subcommand, in help order.
pub const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand {
        name: "check",
        usage: "check <file.litmus> [--model drf0|drf1|drfrlx] [--threads N]\n\
                \x20                  [--max-execs N] [--reduction none|sleep|memo]\n\
                \x20                  [--stats] [--timeout-secs S] [--chaos-seed S]",
        summary: "race-check a litmus program under the DRF models",
        help: "Stream SC executions through the race detectors (sleep-set\n\
               partial-order reduction, sharded across N worker threads) and\n\
               report illegal races. Exit status: 0 race-free, 2 racy, 3\n\
               inconclusive (a budget ran out before a verdict), 101 internal\n\
               error. Prints the explored/pruned execution counts per model;\n\
               the verdicts are identical at any --threads. --max-execs raises\n\
               or lowers the execution budget (default 250000). --reduction\n\
               picks the search-space pruning: `none` (exhaustive), `sleep`\n\
               (sleep-set partial-order reduction, the default) or `memo`\n\
               (sleep sets plus duplicate-state memoization — needed for\n\
               programs whose conflicting operations defeat sleep sets alone).\n\
               --stats prints the per-model reduction counters (explored /\n\
               sleep-set-pruned / memo-pruned / peak-table-size).\n\
               --timeout-secs sets a wall-clock deadline and --chaos-seed\n\
               deterministically injects shard faults (testing only). A run\n\
               that ends without a verdict prints what it explored plus a\n\
               status line. Threads default to all cores (or DRFRLX_THREADS).",
    },
    Subcommand {
        name: "explore",
        usage: "explore <file.litmus> [--reduction none|sleep|memo]",
        summary: "print a representative execution and its races",
        help: "Walk the SC executions with sleep-set partial-order reduction\n\
               through one race detector, stopping at the first racy one.\n\
               Print the explored/pruned execution counts, then that racy\n\
               execution (or, when there is none, a longest execution), its\n\
               program/conflict graph and its races. --reduction works as\n\
               for `check`: `memo` lets programs whose conflicting\n\
               operations defeat sleep sets finish within the 250000\n\
               execution limit, with the same verdict as `sleep`, though the\n\
               execution it shows may differ. Exit status: 0 race-free,\n\
               1 racy, 2 error (the execution limit included).",
    },
    Subcommand {
        name: "machine",
        usage: "machine <file.litmus>",
        summary: "compare the relaxed machine's results against SC",
        help: "Run the system-centric relaxed machine and compare its\n\
               reachable memory results against SC.",
    },
    Subcommand {
        name: "infer",
        usage: "infer <file.litmus>",
        summary: "weaken atomic annotations as far as DRFrlx allows",
        help: "Weaken every atomic annotation as far as DRFrlx race-freedom\n\
               allows, and print the re-annotated program.",
    },
    Subcommand {
        name: "fmt",
        usage: "fmt <file.litmus>",
        summary: "re-emit a litmus program in canonical form",
        help: "Parse and re-emit the program in canonical form.",
    },
    Subcommand {
        name: "list",
        usage: "list",
        summary: "list the Table 3 workloads",
        help: "List the Table 3 workloads available to `simulate`.",
    },
    Subcommand {
        name: "configs",
        usage: "configs",
        summary: "print the protocol × model configuration matrix",
        help: "Print the protocol × model configuration matrix (the paper's six\n\
               plus the MESI-WB extension) and the Table 2 platform parameters.",
    },
    Subcommand {
        name: "simulate",
        usage: "simulate <workload> [--config GD0..MDR] [--platform integrated|discrete]",
        summary: "run one workload on the simulated system",
        help: "Run one workload on the simulated system and print the report.\n\
               --config names the protocol × model pair (default DDR; see\n\
               `drfrlx configs`).",
    },
    Subcommand {
        name: "trace",
        usage: "trace <workload> [--config GD0..MDR] [--platform integrated|discrete]\n\
                \x20              [--events N] [--out FILE] [--diff CFG2]",
        summary: "cycle-level structured tracing and profiling",
        help: "Run one workload with cycle-level structured tracing and print a\n\
               per-component profile. --out writes a Chrome trace-event JSON\n\
               (load it at https://ui.perfetto.dev). --events caps the event\n\
               ring (default 65536; totals stay exact past the cap). --diff\n\
               runs a second configuration and prints a per-event comparison\n\
               (e.g. GD0 vs DD0 invalidation traffic, Table 4).",
    },
    Subcommand {
        name: "bench",
        usage: "bench <experiment-id>|all [--threads N] [--out DIR]",
        summary: "regenerate a registered paper artifact",
        help: "Regenerate a registered paper artifact (fig1, fig2, table1,\n\
               listing7, fig3, fig4, table4, section6, sweeps, ablations,\n\
               checker_stress, conform_matrix, ...) and write\n\
               results/<id>.txt; this is the one path to every results/\n\
               file. A simulation-backed artifact runs on the parallel sweep\n\
               engine and also writes JSON rows to results/<id>.json; a\n\
               static one (Figure 2, Tables 1-3, Listing 7, checker_stress)\n\
               has no jobs and writes no JSON. `bench list` prints the\n\
               registry. Threads default to all cores (or DRFRLX_THREADS,\n\
               which must be a positive integer); output dir defaults to\n\
               results/ (or DRFRLX_RESULTS). Timings of record come from the\n\
               benchmark/ package, not from this command.",
    },
    Subcommand {
        name: "conform",
        usage: "conform <test>|corpus|templates|<file.litmus> [--schedules K] [--seed S]\n\
                \x20       [--threads N] [--config GD0..MDR] [--model drf0|drf1|drfrlx]\n\
                \x20       [--protocol gpu|denovo|mesi-wb] [--timeout-secs S] [--chaos-seed S]\n\
                conform --fuzz N [--seed S] [--threads N] [--schedules K]\n\
                \x20       [--timeout-secs S] [--chaos-seed S]",
        summary: "check the simulator against the axiomatic oracle",
        help: "Compile a litmus test into a simulator kernel, run it across the\n\
               protocol × model matrix under K deterministically perturbed\n\
               schedules (default 128, rooted at --seed) and check every\n\
               observed outcome against the axiomatic SC oracle. Exit status:\n\
               0 sound, 2 on a soundness violation (observed ⊄ allowed), 3\n\
               inconclusive (oracle budget exhausted, run degraded or programs\n\
               skipped), 101 internal error; the witnessed fraction of the\n\
               allowed set is reported as coverage. `corpus` runs the whole\n\
               Table-1 use-case suite; `templates` runs the richer template\n\
               corpus (bounded polls, think delays, retry loops, scratch +\n\
               barrier histogram); a bare name runs that registry test; a path\n\
               runs a .litmus file. --config restricts to one configuration;\n\
               --protocol and --model keep only that row or column of the\n\
               matrix and cannot be combined with --config. --fuzz generates\n\
               N seeded random programs, conformance-checks each (retrying\n\
               oracle overflows up a 1x/4x/16x budget ladder before recording\n\
               the seed as skipped in the summary), and delta-debugs any\n\
               disagreement down to a minimal reproducer. --timeout-secs sets\n\
               a wall-clock deadline and --chaos-seed injects deterministic\n\
               faults (testing only) in every form; a run that ends short\n\
               prints a status line. Verdicts are identical at any --threads.",
    },
];

/// The assembled `--help`/usage text.
pub fn usage() -> String {
    let mut out =
        String::from("drfrlx — DRFrlx memory-model checker and CPU-GPU simulator\n\nUSAGE:\n");
    for s in SUBCOMMANDS {
        // A usage line starting with a space continues the previous
        // form; one starting with the subcommand word begins a new one.
        for line in s.usage.lines() {
            if line.starts_with(' ') {
                out.push_str("  ");
            } else {
                out.push_str("  drfrlx ");
            }
            out.push_str(line);
            out.push('\n');
        }
        for line in s.help.lines() {
            out.push_str("      ");
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// The README's subcommand table (markdown), one row per subcommand.
pub fn readme_table() -> String {
    let mut out = String::from("| subcommand | what it does |\n|---|---|\n");
    for s in SUBCOMMANDS {
        out.push_str(&format!("| `drfrlx {}` | {} |\n", s.name, s.summary));
    }
    out
}

/// Comma-separated subcommand names, in help order.
pub fn names() -> String {
    SUBCOMMANDS.iter().map(|s| s.name).collect::<Vec<_>>().join(", ")
}

/// The unknown-subcommand error line.
pub fn unknown(cmd: &str) -> String {
    format!("unknown subcommand `{cmd}`; valid subcommands: {}", names())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_covers_every_subcommand_and_key_flags() {
        let u = usage();
        for s in SUBCOMMANDS {
            assert!(u.contains(&format!("drfrlx {}", s.name)), "usage lacks {}", s.name);
        }
        assert!(u.contains("--reduction none|sleep|memo"));
        assert!(u.contains("conform --fuzz N"));
    }

    #[test]
    fn flags_and_their_operands_are_read_off_the_usage_lines() {
        let check = find("check").expect("check exists").flags();
        assert!(check.contains(&("--model", true)));
        assert!(check.contains(&("--max-execs", true)));
        assert!(check.contains(&("--stats", false)));
        assert!(!check.iter().any(|&(n, _)| n == "--fuzz"));
        // Both usage forms of `conform` count, each flag once.
        let conform = find("conform").expect("conform exists").flags();
        assert!(conform.contains(&("--fuzz", true)));
        assert!(conform.contains(&("--config", true)));
        assert_eq!(conform.iter().filter(|&&(n, _)| n == "--seed").count(), 1);
        assert!(find("list").expect("list exists").flags().is_empty());
        assert!(find("bogus").is_none());
    }

    #[test]
    fn unknown_error_lists_every_subcommand() {
        let e = unknown("bogus");
        assert!(e.contains("`bogus`"));
        for s in SUBCOMMANDS {
            assert!(e.contains(s.name), "unknown() lacks {}", s.name);
        }
    }
}
