//! `repro` — regenerate every table and figure from the paper's evaluation.
//!
//! ```text
//! repro [--quick] all
//! repro [--quick] fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 table2 table3 ablation
//! ```
//!
//! `--quick` runs a reduced model space (same shapes, seconds instead of
//! minutes). Output is plain text.

use std::time::Instant;
use tahoma_bench::context::{ExperimentContext, Scale};
use tahoma_bench::experiments as exp;

const ALL_EXPERIMENTS: [&str; 11] = [
    "table2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "table3",
    "ablation",
];

fn usage() -> ! {
    eprintln!(
        "usage: repro [--quick] <experiment>...\n  experiments: {} | all",
        ALL_EXPERIMENTS.join(" | ")
    );
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Paper;
    args.retain(|a| {
        if a == "--quick" {
            scale = Scale::Quick;
            false
        } else {
            true
        }
    });
    if args.is_empty() {
        usage();
    }
    let mut selected: Vec<&str> = Vec::new();
    for a in &args {
        match a.as_str() {
            "all" => selected.extend(ALL_EXPERIMENTS),
            name if ALL_EXPERIMENTS.contains(&name) => selected.push(name),
            other => {
                eprintln!("unknown experiment '{other}'");
                usage();
            }
        }
    }
    selected.dedup();

    println!(
        "TAHOMA reproduction harness — scale: {}",
        match scale {
            Scale::Paper => "paper (360 models, ~1.3M cascades per predicate)",
            Scale::Quick => "quick (reduced model space)",
        }
    );
    let t0 = Instant::now();
    println!("initializing systems for 10 predicates...");
    let ctx = ExperimentContext::build(scale);
    let total_cascades: usize = ctx.runs.iter().map(|r| r.system.n_cascades()).sum();
    println!(
        "initialized {} cascades across 10 predicates in {:.1}s\n",
        total_cascades,
        t0.elapsed().as_secs_f64()
    );

    for name in selected {
        let t = Instant::now();
        let output = match name {
            "table2" => exp::table2::render(&exp::table2::run(&ctx), &ctx),
            "fig4" => exp::fig4::render(&exp::fig4::run(&ctx)),
            "fig5" => exp::fig5::render(&exp::fig5::run(&ctx)),
            "fig6" => exp::fig6::render(&exp::fig6::run(&ctx)),
            "fig7" => exp::fig7::render(&exp::fig7::run(&ctx)),
            "fig8" => exp::fig8::render(&exp::fig8::run(&ctx)),
            "fig9" => exp::fig9::render(&exp::fig9::run(&ctx)),
            "fig10" => exp::fig10::render(&exp::fig10::run(&ctx)),
            "fig11" => exp::fig11::render(&exp::fig11::run(&ctx)),
            "table3" => exp::table3::render(&exp::table3::run(&ctx)),
            "ablation" => exp::ablation::render(&exp::ablation::run(&ctx)),
            _ => unreachable!("validated above"),
        };
        println!("{}", "=".repeat(78));
        print!("{output}");
        println!("[{name} completed in {:.1}s]\n", t.elapsed().as_secs_f64());
    }
    println!("total wall time: {:.1}s", t0.elapsed().as_secs_f64());
}
