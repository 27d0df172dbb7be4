//! Explore a litmus test the way the paper's Herd formalization does:
//! enumerate SC executions, print the program/conflict graph, detect
//! illegal races, and compare against the relaxed machine.
//!
//! Run with `cargo run --release --example litmus_explorer [test-name]`.

use drfrlx::litmus::suite::all_tests;
use drfrlx::model::exec::{enumerate_sc, EnumLimits};
use drfrlx::model::pretty::{format_conflict_graph, format_execution};
use drfrlx::model::races::RaceDetector;
use drfrlx::model::syscentric::compare_with_sc;
use drfrlx::MemoryModel;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "figure2a".into());
    let tests = all_tests();
    let Some(test) = tests.iter().find(|t| t.name == name) else {
        eprintln!("unknown test {name}; available:");
        for t in &tests {
            eprintln!("  {}", t.name);
        }
        std::process::exit(1);
    };
    let p = (test.build)();
    let limits = EnumLimits::default();
    let execs = enumerate_sc(&p, &limits).expect("enumerable");
    println!("{name}: {} SC executions", execs.len());

    // One detector for every execution; the racy execution shown is the
    // first one it flags, with the races found then.
    let mut detector = RaceDetector::for_program(&p);
    let racy = execs.iter().find_map(|e| {
        let a = detector.analyze(e);
        (!a.is_race_free()).then(|| (e, a.races()))
    });
    let is_racy = racy.is_some();
    let (shown, races) = racy
        .unwrap_or_else(|| (execs.iter().max_by_key(|e| e.len()).expect("nonempty"), Vec::new()));
    println!("\n{} execution:", if is_racy { "racy" } else { "representative" });
    print!("{}", format_execution(&p, shown));
    print!("{}", format_conflict_graph(&p, shown));
    for r in &races {
        println!("  !! {} between e{} and e{}", r.kind, r.a, r.b);
    }

    match compare_with_sc(&p, MemoryModel::Drfrlx, &limits) {
        Ok(cmp) if cmp.is_sc_only() => {
            println!("\nrelaxed machine: all {} results are SC results", cmp.relaxed_count)
        }
        Ok(cmp) => println!(
            "\nrelaxed machine: {} non-SC memory results reachable",
            cmp.non_sc_results.len()
        ),
        Err(e) => println!("\nrelaxed machine: exploration skipped ({e})"),
    }
}
