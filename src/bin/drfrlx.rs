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

use drfrlx::model::checker::{
    check_program_resilient, check_program_with, CheckOptions, CheckResilience,
};
use drfrlx::model::emit::emit;
use drfrlx::model::exec::{enumerate_sc, EnumLimits, Reduction};
use drfrlx::model::infer::infer;
use drfrlx::model::parse::parse;
use drfrlx::model::pretty::{format_conflict_graph, format_execution};
use drfrlx::model::program::Program;
use drfrlx::model::races::analyze;
use drfrlx::model::resilience::{Budget, FaultPlan};
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
        Some("check") => cmd_check(&args[1..]),
        Some("explore") => cmd_explore(&args[1..]),
        Some("machine") => cmd_machine(&args[1..]),
        Some("infer") => cmd_infer(&args[1..]),
        Some("fmt") => cmd_fmt(&args[1..]),
        Some("list") => cmd_list(),
        Some("configs") => cmd_configs(),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("conform") => cmd_conform(&args[1..]),
        Some("--help" | "-h" | "help") => {
            print!("{}", drfrlx::cli::usage());
            return ExitCode::SUCCESS;
        }
        None => {
            eprintln!("{}", drfrlx::cli::usage());
            return ExitCode::from(2);
        }
        Some(other) => {
            eprintln!("{}", drfrlx::cli::unknown(other));
            eprintln!("\n{}", drfrlx::cli::usage());
            return ExitCode::from(2);
        }
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

/// The traditional boolean exit mapping of the non-verdict
/// subcommands: 0 when clean, 1 otherwise.
fn ok01(clean: bool) -> CmdResult {
    Ok(if clean { 0 } else { 1 })
}

/// The `--timeout-secs`, `--checkpoint`, `--resume` and `--chaos-seed`
/// flags shared by `check` and `conform`. Any of them engages the
/// resilient execution path; all default off.
struct ResilienceFlags<'a> {
    timeout: Option<f64>,
    chaos_seed: Option<u64>,
    checkpoint: Option<&'a str>,
    resume: Option<&'a str>,
}

impl<'a> ResilienceFlags<'a> {
    fn parse(args: &'a [String]) -> Result<Self, Box<dyn std::error::Error>> {
        let timeout = match flag_value(args, "--timeout-secs") {
            None => None,
            Some(v) => Some(
                v.parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or("--timeout-secs needs a positive number")?,
            ),
        };
        let chaos_seed = match flag_value(args, "--chaos-seed") {
            None => None,
            Some(v) => {
                Some(v.parse::<u64>().map_err(|_| "--chaos-seed needs an unsigned integer")?)
            }
        };
        Ok(ResilienceFlags {
            timeout,
            chaos_seed,
            checkpoint: flag_value(args, "--checkpoint"),
            resume: flag_value(args, "--resume"),
        })
    }

    fn engaged(&self) -> bool {
        self.timeout.is_some()
            || self.chaos_seed.is_some()
            || self.checkpoint.is_some()
            || self.resume.is_some()
    }

    fn budget(&self) -> Option<Arc<Budget>> {
        self.timeout.map(|s| Arc::new(Budget::with_timeout(Duration::from_secs_f64(s))))
    }

    fn fault_plan(&self) -> Option<FaultPlan> {
        self.chaos_seed.map(FaultPlan::seeded)
    }
}

fn load_program(path: &str) -> Result<Program, Box<dyn std::error::Error>> {
    let src = std::fs::read_to_string(path)?;
    Ok(parse(&src)?)
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// Create the directory an output file will land in, if it is missing.
fn create_parent_dirs(path: &std::path::Path) -> std::io::Result<()> {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => std::fs::create_dir_all(dir),
        _ => Ok(()),
    }
}

fn cmd_check(args: &[String]) -> CmdResult {
    let path = args.first().ok_or("check needs a .litmus file")?;
    let models: Vec<MemoryModel> = match flag_value(args, "--model") {
        None => MemoryModel::ALL.to_vec(),
        Some(m) => vec![match m.to_ascii_lowercase().as_str() {
            "drf0" => MemoryModel::Drf0,
            "drf1" => MemoryModel::Drf1,
            "drfrlx" => MemoryModel::Drfrlx,
            other => return Err(format!("unknown model `{other}`").into()),
        }],
    };
    let p = load_program(path)?;
    let threads = match flag_value(args, "--threads") {
        None => drfrlx::sim::default_threads(),
        Some(v) => v.parse().ok().filter(|&n| n > 0).ok_or("--threads needs a positive integer")?,
    };
    let mut limits = EnumLimits::default();
    if let Some(v) = flag_value(args, "--max-execs") {
        limits.max_executions =
            v.parse().ok().filter(|&n| n > 0).ok_or("--max-execs needs a positive integer")?;
    }
    let reduction = match flag_value(args, "--reduction") {
        None => Reduction::SleepSet,
        Some(v) => match v.to_ascii_lowercase().as_str() {
            "none" => Reduction::Exhaustive,
            "sleep" => Reduction::SleepSet,
            "memo" => Reduction::SleepSetMemo,
            other => return Err(format!("unknown reduction `{other}`").into()),
        },
    };
    let stats = args.iter().any(|a| a == "--stats");
    let res_flags = ResilienceFlags::parse(args)?;
    if (res_flags.checkpoint.is_some() || res_flags.resume.is_some()) && models.len() != 1 {
        return Err("--checkpoint/--resume need a single --model".into());
    }

    let print_report = |report: &drfrlx::CheckReport, clean: &mut bool| {
        let model = report.model;
        if report.is_race_free() {
            println!("{model}: race-free ({} SC executions)", report.executions);
        } else {
            *clean = false;
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
    };

    let mut clean = true;
    let mut inconclusive = false;
    if !res_flags.engaged() {
        let opts = CheckOptions { limits, threads, reduction, ..CheckOptions::default() };
        for model in models {
            match check_program_with(&p, model, &opts) {
                Ok(report) => print_report(&report, &mut clean),
                Err(e) => {
                    inconclusive = true;
                    println!("{model}: INCONCLUSIVE ({e})");
                }
            }
        }
    } else {
        let budget = res_flags.budget();
        for model in models {
            let mut limits = limits.clone();
            limits.budget = budget.clone();
            let opts = CheckOptions { limits, threads, reduction, ..CheckOptions::default() };
            let completed = match res_flags.resume {
                Some(path) => {
                    let text = std::fs::read_to_string(path)?;
                    drfrlx::checkpoint::parse_check_checkpoint(&text, &p, model, &opts)?
                }
                None => Vec::new(),
            };
            let res = CheckResilience { fault_plan: res_flags.fault_plan(), completed };
            let out = check_program_resilient(&p, model, &opts, &res);
            if out.status.is_complete() || !out.report.is_race_free() {
                print_report(&out.report, &mut clean);
            } else {
                println!(
                    "{model}: INCONCLUSIVE (no races in {} SC executions explored)",
                    out.report.executions
                );
            }
            if !out.status.is_complete() {
                inconclusive = true;
                println!(
                    "  status: {} — {} of {} shards completed",
                    out.status,
                    out.shards.len(),
                    out.total_shards
                );
            }
            if let Some(path) = res_flags.checkpoint {
                create_parent_dirs(std::path::Path::new(path))?;
                let rendered = drfrlx::checkpoint::render_check_checkpoint(&p, model, &opts, &out);
                std::fs::write(path, rendered)?;
                eprintln!(
                    "[checkpoint: wrote {path} ({} of {} shards)]",
                    out.shards.len(),
                    out.total_shards
                );
            }
        }
    }
    Ok(if !clean {
        EXIT_FINDING
    } else if inconclusive {
        EXIT_INCONCLUSIVE
    } else {
        EXIT_CLEAN
    })
}

fn cmd_explore(args: &[String]) -> CmdResult {
    let path = args.first().ok_or("explore needs a .litmus file")?;
    let p = load_program(path)?;
    let execs = enumerate_sc(&p, &EnumLimits::default())?;
    println!("{}: {} SC executions", p.name(), execs.len());
    let racy = execs.iter().find(|e| !analyze(e).is_race_free());
    let shown = racy.unwrap_or_else(|| execs.iter().max_by_key(|e| e.len()).expect("nonempty"));
    println!("\n{} execution:", if racy.is_some() { "racy" } else { "representative" });
    print!("{}", format_execution(&p, shown));
    print!("{}", format_conflict_graph(&p, shown));
    let mut any = false;
    for r in analyze(shown).races() {
        println!("  !! {} between e{} and e{}", r.kind, r.a, r.b);
        any = true;
    }
    if !any {
        println!("no illegal races in the shown execution");
    }
    ok01(racy.is_none())
}

fn cmd_machine(args: &[String]) -> CmdResult {
    let path = args.first().ok_or("machine needs a .litmus file")?;
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

fn cmd_infer(args: &[String]) -> CmdResult {
    let path = args.first().ok_or("infer needs a .litmus file")?;
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

fn cmd_fmt(args: &[String]) -> CmdResult {
    let path = args.first().ok_or("fmt needs a .litmus file")?;
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

fn cmd_bench(args: &[String]) -> CmdResult {
    use drfrlx::bench::timing::PerfReport;
    use drfrlx::bench::{find, registry, run_experiment, write_artifacts};

    let id = args.first().ok_or("bench needs an experiment id (see `drfrlx bench list`)")?;
    if id == "list" {
        println!("{:22} title", "id");
        for e in registry() {
            println!("{:22} {}", e.id(), e.title());
        }
        return ok01(true);
    }
    let threads = match flag_value(args, "--threads") {
        None => drfrlx::sim::default_threads(),
        Some(v) => v
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or("--threads needs a positive integer")?,
    };
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
    let mut perf = PerfReport::new(&format!("drfrlx bench {id} --threads {threads}"));
    for e in experiments {
        let t0 = std::time::Instant::now();
        let run = run_experiment(e.as_ref(), threads);
        perf.record(e.id(), t0.elapsed().as_secs_f64());
        print!("{}", run.text);
        let (txt, json) = write_artifacts(&outdir, e.id(), &run)?;
        eprintln!(
            "\n[{}: wrote {} and {}; threads={threads}]",
            e.id(),
            txt.display(),
            json.display()
        );
    }
    if let Some(perf_path) = flag_value(args, "--perf") {
        let rendered = match flag_value(args, "--perf-baseline") {
            Some(base_path) => {
                let text = std::fs::read_to_string(base_path)?;
                let before = PerfReport::parse(&text)
                    .ok_or_else(|| format!("`{base_path}` is not a perf report"))?;
                perf.to_json_vs(&before)
            }
            None => perf.to_json(),
        };
        create_parent_dirs(std::path::Path::new(perf_path))?;
        std::fs::write(perf_path, rendered)?;
        eprintln!(
            "[perf: {} experiments, {:.2}s total -> {perf_path}]",
            perf.entries.len(),
            perf.total_seconds()
        );
    }
    ok01(true)
}

fn cmd_conform(args: &[String]) -> CmdResult {
    use drfrlx::conform::{
        check_conformance, check_conformance_resilient, generate, is_unsound, render_corpus,
        render_summary, resume_campaign, run_corpus, run_template_corpus, shrink, CampaignState,
        ConformOptions, ConformResilience,
    };
    use drfrlx::litmus::all_tests;

    let threads = match flag_value(args, "--threads") {
        None => drfrlx::sim::default_threads(),
        Some(v) => v.parse().ok().filter(|&n| n > 0).ok_or("--threads needs a positive integer")?,
    };
    let mut opts = ConformOptions { threads, ..ConformOptions::default() };
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
        if let Some(m) = flag_value(args, "--model") {
            let model = match m.to_ascii_lowercase().as_str() {
                "drf0" => MemoryModel::Drf0,
                "drf1" => MemoryModel::Drf1,
                "drfrlx" => MemoryModel::Drfrlx,
                other => return Err(format!("unknown model `{other}`").into()),
            };
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

    let res_flags = ResilienceFlags::parse(args)?;
    let budget = res_flags.budget();
    // The oracle polls the budget through its enumeration limits; the
    // simulation matrix polls it before every job attempt.
    opts.limits.budget = budget.clone();
    let res = ConformResilience { budget, fault_plan: res_flags.fault_plan() };

    if let Some(n) = flag_value(args, "--fuzz") {
        let n: u64 = n.parse().ok().filter(|&n| n > 0).ok_or("--fuzz needs a positive count")?;
        let mut state = match res_flags.resume {
            Some(path) => {
                let text = std::fs::read_to_string(path)?;
                let state = drfrlx::checkpoint::parse_fuzz_checkpoint(&text, &opts)?;
                if state.total != n {
                    return Err(format!(
                        "checkpoint is for --fuzz {}, not --fuzz {n}",
                        state.total
                    )
                    .into());
                }
                if state.seed != opts.seed {
                    return Err(format!(
                        "checkpoint campaign is rooted at seed {}, not --seed {}",
                        state.seed, opts.seed
                    )
                    .into());
                }
                state
            }
            None => CampaignState::new(opts.seed, n),
        };
        let status = resume_campaign(&mut state, &opts, &res, &mut |seed, r| {
            println!("fuzz seed {seed}: VIOLATION");
            print_report(r);
            let small = shrink(&generate(seed), &|q| is_unsound(q, &opts));
            println!("shrunk reproducer:\n{}", drfrlx::model::emit::emit(&small));
        });
        print!("{}", render_summary(&state));
        if !status.is_complete() {
            println!("status: {status}");
        }
        if let Some(path) = res_flags.checkpoint {
            create_parent_dirs(std::path::Path::new(path))?;
            std::fs::write(path, drfrlx::checkpoint::render_fuzz_checkpoint(&opts, &state))?;
            eprintln!(
                "[checkpoint: wrote {path} ({} of {} programs)]",
                state.next_index, state.total
            );
        }
        return Ok(if !state.violations.is_empty() {
            EXIT_FINDING
        } else if !status.is_complete() || !state.skipped.is_empty() {
            EXIT_INCONCLUSIVE
        } else {
            EXIT_CLEAN
        });
    }
    if res_flags.checkpoint.is_some() || res_flags.resume.is_some() {
        return Err("conform --checkpoint/--resume only apply to --fuzz campaigns".into());
    }

    let target = args
        .iter()
        .find(|a| !a.starts_with("--") && !is_flag_operand(args, a))
        .ok_or("conform needs a test name, `corpus`, a .litmus file, or --fuzz N")?;
    if target == "corpus" || target == "templates" {
        let run = if target == "corpus" { run_corpus } else { run_template_corpus };
        let reports = match run(&opts) {
            Ok(reports) => reports,
            Err(e) => {
                eprintln!("inconclusive: {e}");
                return Ok(EXIT_INCONCLUSIVE);
            }
        };
        print!("{}", render_corpus(&reports, &opts));
        return Ok(if reports.iter().all(|r| r.sound()) { EXIT_CLEAN } else { EXIT_FINDING });
    }
    let p = if target.ends_with(".litmus") {
        load_program(target)?
    } else {
        all_tests()
            .into_iter()
            .find(|t| t.name.eq_ignore_ascii_case(target))
            .map(|t| (t.build)())
            .ok_or_else(|| format!("unknown litmus test `{target}` (or pass a .litmus path)"))?
    };
    if res_flags.engaged() {
        let out = check_conformance_resilient(&p, &opts, &res);
        return Ok(match out.report {
            Some(r) => {
                print_report(&r);
                if !out.status.is_complete() {
                    println!("status: {}", out.status);
                }
                if !r.sound() {
                    EXIT_FINDING
                } else if !out.status.is_complete() {
                    EXIT_INCONCLUSIVE
                } else {
                    EXIT_CLEAN
                }
            }
            None => {
                println!("status: {}", out.status);
                EXIT_INCONCLUSIVE
            }
        });
    }
    let r = match check_conformance(&p, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("inconclusive: {e}");
            return Ok(EXIT_INCONCLUSIVE);
        }
    };
    print_report(&r);
    Ok(if r.sound() { EXIT_CLEAN } else { EXIT_FINDING })
}

/// Is `arg` the operand of a `--flag value` pair (so not a positional)?
fn is_flag_operand(args: &[String], arg: &str) -> bool {
    args.iter()
        .position(|a| a == arg)
        .and_then(|i| i.checked_sub(1))
        .and_then(|i| args.get(i))
        .is_some_and(|prev| prev.starts_with("--"))
}

fn cmd_trace(args: &[String]) -> CmdResult {
    use drfrlx::sim::{chrome_trace, render_diff, render_profile, run_workload_traced};

    let name = args.first().ok_or("trace needs a workload name (see `drfrlx list`)")?;
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
    let label = format!("{} {} ({}, {} cycles)", spec.name, config, r.platform, r.cycles);
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

fn cmd_simulate(args: &[String]) -> CmdResult {
    let name = args.first().ok_or("simulate needs a workload name (see `drfrlx list`)")?;
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
    println!("{} on {} ({}):", spec.name, config, r.platform);
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
