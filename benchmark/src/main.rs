//! Command line:
//!
//! ```text
//! drfrlx-benchmark --workload W --seed S --seconds T --trace 0|1 [--trace-out FILE]
//! drfrlx-benchmark compare A.jsonl B.jsonl
//! ```
//!
//! A run prints its full record and then, as the last line, the result
//! `{"correct", "attempted", "failed", "metrics"}`. It exits 0 when
//! every output was correct, 1 when some op failed, and 2 without a
//! result when it could not run at all.

use drfrlx_benchmark::catalog::Workload;
use drfrlx_benchmark::compare::compare;
use drfrlx_benchmark::run::{default_threads, package_dir, run, Options};
use std::process::ExitCode;

const USAGE: &str = "usage: drfrlx-benchmark --workload W --seed S --seconds T --trace 0|1 \
                     [--trace-out FILE]\n       drfrlx-benchmark compare A.jsonl B.jsonl\n\
                     workloads: sim_drf0 sim_drfrlx check_corpus conform_fuzz";

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let workload = flag(args, "--workload").ok_or("--workload is required")?;
    let workload =
        Workload::from_name(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seed = flag(args, "--seed")
        .ok_or("--seed is required")?
        .parse::<u64>()
        .map_err(|_| "--seed needs an unsigned integer")?;
    let seconds = flag(args, "--seconds")
        .ok_or("--seconds is required")?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or("--seconds needs a positive number")?;
    let trace = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let trace_out = flag(args, "--trace-out").map(Into::into).unwrap_or_else(|| {
        package_dir().join("out").join(format!("spans-{}-s{seed}.json", workload.name()))
    });
    Ok(Options { workload, seed, seconds, trace, trace_out, threads: default_threads() })
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else { return Err("compare takes two record files".into()) };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let bench_json = package_dir().join("..").join("BENCHMARK.json");
    let bench_json = read(&bench_json.display().to_string())?;
    let (text, any_worse) = compare(&read(a)?, &read(b)?, &bench_json)?;
    print!("{text}");
    Ok(if any_worse { ExitCode::from(1) } else { ExitCode::SUCCESS })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let result = match args.first().map(String::as_str) {
        Some("compare") => cmd_compare(&args[1..]),
        _ => parse_options(&args).and_then(|opts| run(&opts)).map(|r| {
            println!("{}", r.record);
            println!("{}", r.summary);
            if r.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
