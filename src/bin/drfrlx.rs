//! The `drfrlx` command-line tool: check, explore and simulate.
//!
//! ```console
//! $ drfrlx check litmus-tests/mp_paired.litmus
//! $ drfrlx check litmus-tests/mp_unpaired.litmus --model drf1
//! $ drfrlx explore litmus-tests/figure2a.litmus
//! $ drfrlx machine litmus-tests/sb_relaxed.litmus
//! $ drfrlx list
//! $ drfrlx simulate PR-2 --config DDR
//! $ drfrlx bench fig3 --threads 8
//! $ drfrlx bench all
//! $ drfrlx conform corpus
//! $ drfrlx conform --fuzz 500 --seed 1
//! ```
//!
//! The help text, README table and unknown-subcommand error are all
//! rendered from the one table in [`drfrlx::cli`].

use drfrlx::cli::Subcommand;
use drfrlx::model::checker::{check_program_resilient, CheckOptions};
use drfrlx::model::emit::emit;
use drfrlx::model::exec::{visit_sc, EnumLimits, Execution, ExecutionVisitor, Reduction};
use drfrlx::model::infer::infer;
use drfrlx::model::parse::parse;
use drfrlx::model::pretty::{format_conflict_graph, format_execution};
use drfrlx::model::program::Program;
use drfrlx::model::races::{Race, RaceDetector};
use drfrlx::model::resilience::{Budget, ExhaustReason, FaultPlan, Resilience};
use drfrlx::model::syscentric::compare_with_sc;
use drfrlx::sim::{run_workload, SysParams};
use drfrlx::workloads::all_workloads;
use drfrlx::workloads::registry::extensions;
use drfrlx::{MemoryModel, Protocol, SystemConfig};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// CI-friendly exit codes for `check` and `conform`: clean, a real
/// finding (race / soundness violation), a run that ended without a
/// verdict (budget exhausted, degraded), and an internal error. The
/// other subcommands keep the traditional 0 / 1 / 2.
const EXIT_CLEAN: u8 = 0;
const EXIT_FINDING: u8 = 2;
const EXIT_INCONCLUSIVE: u8 = 3;
const EXIT_INTERNAL: u8 = 101;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `check`/`conform` report internal errors as 101 so CI can tell
    // a crash from a finding; elsewhere errors keep the historic 2.
    let verdict_cmd = matches!(args.first().map(String::as_str), Some("check" | "conform"));
    let result = match args.first().map(String::as_str) {
        Some("--help" | "-h" | "help") => {
            print!("{}", drfrlx::cli::usage());
            return ExitCode::SUCCESS;
        }
        None => {
            eprintln!("{}", drfrlx::cli::usage());
            return ExitCode::from(2);
        }
        Some(cmd) => match drfrlx::cli::find(cmd) {
            Some(sub) => run(sub, &args[1..]),
            None => {
                eprintln!("{}", drfrlx::cli::unknown(cmd));
                eprintln!("\n{}", drfrlx::cli::usage());
                return ExitCode::from(2);
            }
        },
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(if verdict_cmd { EXIT_INTERNAL } else { 2 })
        }
    }
}

/// Exit code (`Ok`) or an error the dispatcher prints and maps.
type CmdResult = Result<u8, Box<dyn std::error::Error>>;

/// Check `args` against `sub`'s usage line, then run it with its
/// positional arguments.
fn run(sub: &Subcommand, args: &[String]) -> CmdResult {
    let pos = positionals(sub, args)?;
    match sub.name {
        "check" => cmd_check(args, &pos),
        "explore" => cmd_explore(args, &pos),
        "machine" => cmd_machine(&pos),
        "infer" => cmd_infer(&pos),
        "fmt" => cmd_fmt(&pos),
        "list" => cmd_list(),
        "configs" => cmd_configs(),
        "simulate" => cmd_simulate(args, &pos),
        "trace" => cmd_trace(args, &pos),
        "bench" => cmd_bench(args, &pos),
        "conform" => cmd_conform(args, &pos),
        other => unreachable!("`{other}` is in the subcommand table but not dispatched"),
    }
}

/// The arguments of `args` that are neither a flag nor a flag's
/// operand. The flags `sub` accepts, and which of them take an
/// operand, come from its usage line.
///
/// # Errors
///
/// A flag the usage line does not name, or a value flag with no
/// operand.
fn positionals<'a>(
    sub: &Subcommand,
    args: &'a [String],
) -> Result<Vec<&'a str>, Box<dyn std::error::Error>> {
    let flags = sub.flags();
    let mut pos = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            pos.push(arg.as_str());
            continue;
        }
        let Some(&(_, takes_operand)) = flags.iter().find(|&&(name, _)| name == arg) else {
            let valid: Vec<&str> = flags.iter().map(|&(name, _)| name).collect();
            let valid = if valid.is_empty() { "none".to_string() } else { valid.join(", ") };
            return Err(
                format!("unknown flag `{arg}` for `{}`; valid flags: {valid}", sub.name).into()
            );
        };
        if takes_operand && it.next().is_none_or(|v| v.starts_with("--")) {
            return Err(format!("{arg} needs a value").into());
        }
    }
    Ok(pos)
}

/// The traditional boolean exit mapping of the non-verdict
/// subcommands: 0 when clean, 1 otherwise.
fn ok01(clean: bool) -> CmdResult {
    Ok(if clean { 0 } else { 1 })
}

/// The exit code of a verdict subcommand: a finding wins over a run
/// that ended short, which wins over clean.
fn verdict_exit(finding: bool, complete: bool) -> u8 {
    if finding {
        EXIT_FINDING
    } else if !complete {
        EXIT_INCONCLUSIVE
    } else {
        EXIT_CLEAN
    }
}

/// The `--timeout-secs` budget and `--chaos-seed` fault plan shared by
/// `check` and `conform`; both default off.
fn resilience_flags(args: &[String]) -> Result<Resilience, Box<dyn std::error::Error>> {
    let budget = match flag_value(args, "--timeout-secs") {
        None => None,
        Some(v) => {
            let secs = v
                .parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s > 0.0)
                .ok_or("--timeout-secs needs a positive number")?;
            Some(Arc::new(Budget::with_timeout(Duration::from_secs_f64(secs))))
        }
    };
    let fault_plan = match flag_value(args, "--chaos-seed") {
        None => None,
        Some(v) => Some(FaultPlan::seeded(
            v.parse().map_err(|_| "--chaos-seed needs an unsigned integer")?,
        )),
    };
    Ok(Resilience { budget, fault_plan })
}

fn load_program(path: &str) -> Result<Program, Box<dyn std::error::Error>> {
    let src = std::fs::read_to_string(path)?;
    Ok(parse(&src)?)
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// The worker count: `--threads N`, else `DRFRLX_THREADS`, else all
/// cores.
///
/// # Errors
///
/// A `--threads` operand or a set `DRFRLX_THREADS` that is not a
/// positive integer.
fn threads_flag(args: &[String]) -> Result<usize, Box<dyn std::error::Error>> {
    let Some(v) = flag_value(args, "--threads") else { return Ok(drfrlx::sim::default_threads()?) };
    Ok(v.parse().ok().filter(|&n| n >= 1).ok_or("--threads needs a positive integer")?)
}

/// The `--model` operand, if given.
fn model_flag(args: &[String]) -> Result<Option<MemoryModel>, Box<dyn std::error::Error>> {
    let Some(m) = flag_value(args, "--model") else { return Ok(None) };
    Ok(Some(match m.to_ascii_lowercase().as_str() {
        "drf0" => MemoryModel::Drf0,
        "drf1" => MemoryModel::Drf1,
        "drfrlx" => MemoryModel::Drfrlx,
        other => return Err(format!("unknown model `{other}`").into()),
    }))
}

/// Create the directory an output file will land in, if it is missing.
fn create_parent_dirs(path: &std::path::Path) -> std::io::Result<()> {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => std::fs::create_dir_all(dir),
        _ => Ok(()),
    }
}

fn cmd_check(args: &[String], pos: &[&str]) -> CmdResult {
    let path = pos.first().ok_or("check needs a .litmus file")?;
    let models = model_flag(args)?.map_or_else(|| MemoryModel::ALL.to_vec(), |m| vec![m]);
    let p = load_program(path)?;
    let threads = threads_flag(args)?;
    let mut limits = EnumLimits::default();
    if let Some(v) = flag_value(args, "--max-execs") {
        limits.max_executions =
            v.parse().ok().filter(|&n| n > 0).ok_or("--max-execs needs a positive integer")?;
    }
    let reduction = reduction_flag(args)?;
    let stats = args.iter().any(|a| a == "--stats");
    // One deadline for the whole command, shared by every model.
    let res = resilience_flags(args)?;
    let opts = CheckOptions { limits, threads, reduction, ..CheckOptions::default() };

    let (mut finding, mut complete) = (false, true);
    for model in models {
        let out = check_program_resilient(&p, model, &opts, &res);
        let report = &out.report;
        if !out.is_complete() && report.is_race_free() {
            println!(
                "{model}: INCONCLUSIVE (no races in {} SC executions explored)",
                report.executions
            );
        } else {
            if report.is_race_free() {
                println!("{model}: race-free ({} SC executions)", report.executions);
            } else {
                finding = true;
                println!("{model}: RACY ({} SC executions)", report.executions);
                for f in &report.races {
                    println!("  - {}", f.description);
                }
            }
            println!(
                "  executions: {} explored, {} pruned by partial-order reduction",
                report.executions, report.pruned
            );
            if stats {
                println!(
                    "  stats: explored {}, sleep-set-pruned {}, memo-pruned {}, peak-table-size {}",
                    report.executions, report.pruned, report.memo_pruned, report.table_peak
                );
            }
        }
        if !out.is_complete() {
            complete = false;
            println!(
                "  status: {} — {} of {} shards completed",
                out.status, out.completed_shards, out.total_shards
            );
        }
    }
    Ok(verdict_exit(finding, complete))
}

/// `explore`'s walk: one detector for every execution, stopping at the
/// first racy one; until then it keeps the first longest execution.
struct ExploreWalk {
    detector: RaceDetector,
    racy: Option<(Execution, Vec<Race>)>,
    longest: Option<Execution>,
}

impl ExecutionVisitor for ExploreWalk {
    fn visit(&mut self, e: &Execution) -> bool {
        let a = self.detector.analyze(e);
        if !a.is_race_free() {
            self.racy = Some((e.clone(), a.races()));
            return false;
        }
        if self.longest.as_ref().is_none_or(|l| e.len() > l.len()) {
            self.longest = Some(e.clone());
        }
        true
    }
}

fn cmd_explore(args: &[String], pos: &[&str]) -> CmdResult {
    let path = pos.first().ok_or("explore needs a .litmus file")?;
    let p = load_program(path)?;
    let reduction = reduction_flag(args)?;
    // Sleep sets explore every execution up to trace equivalence, and
    // of equivalent executions the first in DFS order; races are
    // trace-invariant, so the first racy execution is the one the
    // exhaustive order reaches first. Memoization keeps the verdict but
    // may skip that execution's state and stop at a later racy one.
    let mut walk =
        ExploreWalk { detector: RaceDetector::for_program(&p), racy: None, longest: None };
    let stats = match visit_sc(&p, &EnumLimits::default(), false, reduction, &mut walk) {
        Err(ExhaustReason::Executions { limit }) => {
            let hint = if reduction == Reduction::SleepSetMemo {
                ""
            } else {
                "; `--reduction memo` prunes more"
            };
            return Err(format!("more than {limit} SC executions{hint}").into());
        }
        r => r?,
    };
    let is_racy = walk.racy.is_some();
    println!(
        "{}: {} SC executions explored, {} pruned by partial-order reduction{}",
        p.name(),
        stats.explored,
        stats.pruned,
        if is_racy { "; stopped at the first racy one" } else { "" }
    );
    let (shown, races) = walk
        .racy
        .unwrap_or_else(|| (walk.longest.expect("every program has an execution"), Vec::new()));
    println!("\n{} execution:", if is_racy { "racy" } else { "representative" });
    print!("{}", format_execution(&p, &shown));
    print!("{}", format_conflict_graph(&p, &shown));
    for r in &races {
        println!("  !! {} between e{} and e{}", r.kind, r.a, r.b);
    }
    if races.is_empty() {
        println!("no illegal races in the shown execution");
    }
    ok01(!is_racy)
}

/// The `--reduction none|sleep|memo` operand `check` and `explore`
/// share (default `sleep`).
fn reduction_flag(args: &[String]) -> Result<Reduction, Box<dyn std::error::Error>> {
    let Some(v) = flag_value(args, "--reduction") else { return Ok(Reduction::SleepSet) };
    Ok(match v.to_ascii_lowercase().as_str() {
        "none" => Reduction::Exhaustive,
        "sleep" => Reduction::SleepSet,
        "memo" => Reduction::SleepSetMemo,
        other => return Err(format!("unknown reduction `{other}`").into()),
    })
}

fn cmd_machine(pos: &[&str]) -> CmdResult {
    let path = pos.first().ok_or("machine needs a .litmus file")?;
    let p = load_program(path)?;
    let cmp = compare_with_sc(&p, MemoryModel::Drfrlx, &EnumLimits::default())?;
    println!(
        "{}: {} relaxed memory results vs {} SC results",
        p.name(),
        cmp.relaxed_count,
        cmp.sc_count
    );
    if cmp.is_sc_only() {
        println!("every relaxed-machine result is an SC result");
    } else {
        println!("{} non-SC results reachable:", cmp.non_sc_results.len());
        for m in &cmp.non_sc_results {
            let pretty: Vec<String> =
                m.iter().map(|(l, v)| format!("{}={v}", p.loc_name(*l))).collect();
            println!("  {{ {} }}", pretty.join(", "));
        }
    }
    ok01(cmp.is_sc_only())
}

fn cmd_infer(pos: &[&str]) -> CmdResult {
    let path = pos.first().ok_or("infer needs a .litmus file")?;
    let p = load_program(path)?;
    let inf = infer(&p, &EnumLimits::default())?;
    if inf.changes.is_empty() {
        let racy = !drfrlx::check_program(&p, MemoryModel::Drfrlx).is_race_free();
        if racy {
            println!("// program is racy; nothing can be inferred");
            return ok01(false);
        }
        println!("// every annotation is already as weak as it can be");
    } else {
        for c in &inf.changes {
            println!("// t{}.i{}: {} -> {}", c.tid, c.iid, c.from, c.to);
        }
    }
    print!("{}", emit(&inf.program));
    ok01(true)
}

fn cmd_fmt(pos: &[&str]) -> CmdResult {
    let path = pos.first().ok_or("fmt needs a .litmus file")?;
    let p = load_program(path)?;
    print!("{}", emit(&p));
    ok01(true)
}

/// The `--config` abbreviation, with `--protocol` optionally
/// overriding the coherence protocol while keeping the model.
fn parse_config(
    args: &[String],
    default: &str,
) -> Result<SystemConfig, Box<dyn std::error::Error>> {
    let mut config = SystemConfig::from_abbrev(flag_value(args, "--config").unwrap_or(default))
        .ok_or("unknown config (use GD0..GDR, DD0..DDR or MD0..MDR)")?;
    if let Some(name) = flag_value(args, "--protocol") {
        config.protocol =
            Protocol::from_name(name).ok_or("unknown protocol (use gpu, denovo or mesi-wb)")?;
    }
    Ok(config)
}

fn cmd_configs() -> CmdResult {
    println!("protocol x model configuration matrix:");
    println!("{:12} {:>7} {:>7} {:>7}", "protocol", "DRF0", "DRF1", "DRFrlx");
    for protocol in Protocol::WITH_EXTENSIONS {
        print!("{:12}", protocol.to_string());
        for model in MemoryModel::ALL {
            print!(" {:>7}", SystemConfig { protocol, model }.abbrev());
        }
        println!();
    }
    println!("\n(the paper evaluates the GPU and DeNovo rows; MESI-WB is this");
    println!(" repo's writeback-baseline extension — see EXPERIMENTS.md)");
    for params in [SysParams::integrated(), SysParams::discrete_gpu()] {
        println!("\n{} platform (Table 2):", params.name);
        for (k, v) in params.table2_rows() {
            println!("  {k:18} {v}");
        }
    }
    ok01(true)
}

fn cmd_list() -> CmdResult {
    println!("{:8} {:6} scaled input", "name", "kind");
    for s in all_workloads().into_iter().chain(extensions()) {
        println!("{:8} {:6} {}", s.name, if s.micro { "micro" } else { "bench" }, s.scaled_input);
    }
    ok01(true)
}

fn cmd_bench(args: &[String], pos: &[&str]) -> CmdResult {
    use drfrlx::bench::{find, registry, run_experiment, write_artifacts};

    let id = *pos.first().ok_or("bench needs an experiment id (see `drfrlx bench list`)")?;
    if id == "list" {
        println!("{:22} title", "id");
        for e in registry() {
            println!("{:22} {}", e.id(), e.title());
        }
        return ok01(true);
    }
    let threads = threads_flag(args)?;
    let outdir = std::path::PathBuf::from(
        flag_value(args, "--out")
            .map(String::from)
            .or_else(|| std::env::var("DRFRLX_RESULTS").ok())
            .unwrap_or_else(|| "results".into()),
    );
    let experiments = if id == "all" {
        registry()
    } else {
        vec![find(id).ok_or_else(|| {
            let ids: Vec<&str> = registry().iter().map(|e| e.id()).collect();
            format!("unknown experiment `{id}`; valid ids: all, {}", ids.join(", "))
        })?]
    };
    for e in experiments {
        let run = run_experiment(e.as_ref(), threads);
        print!("{}", run.text);
        let (txt, json) = write_artifacts(&outdir, e.id(), &run)?;
        let json = json.map(|j| format!(" and {}", j.display())).unwrap_or_default();
        eprintln!("\n[{}: wrote {}{json}; threads={threads}]", e.id(), txt.display());
    }
    ok01(true)
}

fn cmd_conform(args: &[String], pos: &[&str]) -> CmdResult {
    use drfrlx::conform::{
        check_conformance_resilient, generate, is_unsound, render_corpus, render_summary,
        run_campaign, shrink, table1_corpus, template_corpus, ConformOptions,
    };
    use drfrlx::litmus::all_tests;

    let mut opts = ConformOptions { threads: threads_flag(args)?, ..ConformOptions::default() };
    if let Some(v) = flag_value(args, "--seed") {
        opts.seed = v.parse().map_err(|_| "--seed needs an unsigned integer")?;
    }
    if let Some(v) = flag_value(args, "--schedules") {
        opts.schedules =
            v.parse().ok().filter(|&n| n > 0).ok_or("--schedules needs a positive integer")?;
    }
    if args.iter().any(|a| a == "--config") {
        opts.configs = vec![parse_config(args, "GD0")?];
    } else {
        if let Some(name) = flag_value(args, "--protocol") {
            let p =
                Protocol::from_name(name).ok_or("unknown protocol (use gpu, denovo or mesi-wb)")?;
            opts.configs.retain(|c| c.protocol == p);
        }
        if let Some(model) = model_flag(args)? {
            opts.configs.retain(|c| c.model == model);
        }
    }

    let print_report = |r: &drfrlx::conform::ConformReport| {
        println!(
            "conform {}: {} allowed outcomes (SC oracle, {} executions explored)",
            r.name,
            r.allowed.len(),
            r.oracle_stats.explored
        );
        for v in &r.verdicts {
            println!(
                "  {}: observed {:>3}, violations {}",
                v.config,
                v.observed.len(),
                v.violations.len()
            );
            for o in &v.violations {
                println!("    !! disallowed outcome {}", o.render());
            }
        }
        println!(
            "  verdict: {}, coverage {:.3}",
            if r.sound() { "SOUND" } else { "VIOLATION" },
            r.coverage()
        );
    };

    let res = resilience_flags(args)?;

    if let Some(n) = flag_value(args, "--fuzz") {
        let n: u64 = n.parse().ok().filter(|&n| n > 0).ok_or("--fuzz needs a positive count")?;
        let (state, status) = run_campaign(opts.seed, n, &opts, &res, &mut |seed, r| {
            println!("fuzz seed {seed}: VIOLATION");
            print_report(r);
            let small = shrink(&generate(seed), &|q| is_unsound(q, &opts));
            println!("shrunk reproducer:\n{}", drfrlx::model::emit::emit(&small));
        });
        print!("{}", render_summary(&state));
        if !status.is_complete() {
            println!("status: {status}");
        }
        let complete = status.is_complete() && state.skipped.is_empty();
        return Ok(verdict_exit(!state.violations.is_empty(), complete));
    }

    let target =
        *pos.first().ok_or("conform needs a test name, `corpus`, a .litmus file, or --fuzz N")?;
    let is_corpus = matches!(target, "corpus" | "templates");
    let programs = match target {
        "corpus" => table1_corpus(),
        "templates" => template_corpus(),
        _ if target.ends_with(".litmus") => vec![(target.to_string(), load_program(target)?)],
        _ => {
            let t =
                all_tests().into_iter().find(|t| t.name.eq_ignore_ascii_case(target)).ok_or_else(
                    || format!("unknown litmus test `{target}` (or pass a .litmus path)"),
                )?;
            vec![(t.name.to_string(), (t.build)())]
        }
    };
    let mut reports = Vec::new();
    // `(name, status)` of every run that ended short.
    let mut short = Vec::new();
    for (name, p) in &programs {
        let out = check_conformance_resilient(p, &opts, &res);
        reports.extend(out.report);
        if !out.status.is_complete() {
            short.push((name, out.status));
        }
    }
    if is_corpus {
        print!("{}", render_corpus(&reports, &opts));
    } else {
        reports.iter().for_each(print_report);
    }
    for (name, status) in &short {
        if is_corpus {
            println!("status: {name}: {status}");
        } else {
            println!("status: {status}");
        }
    }
    Ok(verdict_exit(reports.iter().any(|r| !r.sound()), short.is_empty()))
}

fn cmd_trace(args: &[String], pos: &[&str]) -> CmdResult {
    use drfrlx::sim::{chrome_trace, render_diff, render_profile, run_workload_traced};

    let name = pos.first().ok_or("trace needs a workload name (see `drfrlx list`)")?;
    let config = parse_config(args, "GD0")?;
    let params = match flag_value(args, "--platform").unwrap_or("integrated") {
        "integrated" => SysParams::integrated(),
        "discrete" => SysParams::discrete_gpu(),
        other => return Err(format!("unknown platform `{other}`").into()),
    };
    let events = match flag_value(args, "--events") {
        None => 65536,
        Some(v) => v
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or("--events needs a positive integer")?,
    };
    let spec = all_workloads()
        .into_iter()
        .chain(extensions())
        .find(|s| s.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown workload `{name}` (see `drfrlx list`)"))?;
    let kernel = spec.kernel();

    let run = |config: SystemConfig| -> Result<_, Box<dyn std::error::Error>> {
        let r = run_workload_traced(kernel.as_ref(), config, &params, events);
        kernel
            .validate(&r.memory)
            .map_err(|e| format!("functional check failed under {config}: {e}"))?;
        Ok(r)
    };

    let r = run(config)?;
    let buf = r.trace.as_ref().expect("traced run carries a buffer");
    let label = format!("{} {} ({}, {} cycles)", spec.name, config, params.name, r.cycles);
    print!("{}", render_profile(buf, &label));
    if buf.dropped() > 0 {
        eprintln!(
            "warning: trace ring saturated; {} of {} events dropped (keep-newest \
             — raise --events to keep more history)",
            buf.dropped(),
            buf.recorded()
        );
    }

    if let Some(out) = flag_value(args, "--out") {
        let path = std::path::Path::new(out);
        create_parent_dirs(path)?;
        std::fs::write(path, chrome_trace(buf, &label))?;
        eprintln!(
            "[trace: wrote {} ({} of {} events kept)]",
            path.display(),
            buf.len(),
            buf.recorded()
        );
    }

    if let Some(cfg2) = flag_value(args, "--diff") {
        let config2 = SystemConfig::from_abbrev(cfg2)
            .ok_or("unknown --diff config (use GD0..GDR, DD0..DDR or MD0..MDR)")?;
        let r2 = run(config2)?;
        let buf2 = r2.trace.as_ref().expect("traced run carries a buffer");
        println!();
        print!("{}", render_diff(&config.to_string(), buf, &config2.to_string(), buf2));
    }
    ok01(true)
}

fn cmd_simulate(args: &[String], pos: &[&str]) -> CmdResult {
    let name = pos.first().ok_or("simulate needs a workload name (see `drfrlx list`)")?;
    let config = parse_config(args, "DDR")?;
    let params = match flag_value(args, "--platform").unwrap_or("integrated") {
        "integrated" => SysParams::integrated(),
        "discrete" => SysParams::discrete_gpu(),
        other => return Err(format!("unknown platform `{other}`").into()),
    };
    let spec = all_workloads()
        .into_iter()
        .chain(extensions())
        .find(|s| s.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown workload `{name}` (see `drfrlx list`)"))?;
    let kernel = spec.kernel();
    let r = run_workload(kernel.as_ref(), config, &params);
    kernel.validate(&r.memory).map_err(|e| format!("functional check failed: {e}"))?;
    println!("{} on {} ({}):", spec.name, config, params.name);
    println!("  cycles              {}", r.cycles);
    println!("  energy              {}", r.energy);
    println!("  atomics             {} ({} overlapped)", r.atomics, r.atomics_overlapped);
    println!("  L1 hits/misses      {}/{}", r.proto.l1_hits, r.proto.l1_misses);
    println!("  invalidation events {}", r.proto.invalidation_events);
    println!("  SB flushes          {}", r.proto.sb_flushes);
    println!("  atomics @L1/@L2     {}/{}", r.proto.atomics_at_l1, r.proto.atomics_at_l2);
    println!("  MSHR coalesced      {}", r.proto.mshr_coalesced);
    println!("  remote L1 transfers {}", r.proto.remote_l1_transfers);
    println!("  sharer invalidations {}", r.proto.sharer_invalidations);
    println!("  functional check    ok");
    ok01(true)
}
