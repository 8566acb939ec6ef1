//! Experiment driver: regenerates every table and figure of the paper's
//! evaluation section.
//!
//! ```text
//! experiments <id> [<id> ...]      run specific experiments
//! experiments all                  run everything in paper order
//! experiments --quick <id>         reduced scale + short k sweep
//! ```
//!
//! ids: table1 table3 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11
//! orders parallel memory io ampc all
//!
//! Environment: `CLUGP_SCALE` (dataset scale multiplier, default 1.0),
//! `CLUGP_KS` (comma-separated partition counts), `CLUGP_RESULTS_DIR`
//! (output directory, default `results/`).

use clugp_bench::experiments::{self, ExpContext};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let ids: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    if ids.is_empty() {
        eprintln!(
            "usage: experiments [--quick] <table1|table3|fig3|...|fig11|orders|parallel|memory|io|ampc|all>"
        );
        std::process::exit(2);
    }
    let ctx = if quick {
        ExpContext::quick()
    } else {
        ExpContext::default()
    };
    println!(
        "# CLUGP reproduction experiments (scale={}, ks={:?})",
        ctx.scale, ctx.ks
    );
    let started = std::time::Instant::now();
    for id in ids {
        let t = std::time::Instant::now();
        match id {
            "all" => experiments::run_all(&ctx),
            "table1" => experiments::tables::table1(&ctx),
            "table3" => experiments::tables::table3(&ctx),
            "fig3" => experiments::quality::fig3(&ctx),
            "fig4" => experiments::quality::fig4(&ctx),
            "fig5" => experiments::quality::fig5(&ctx),
            "fig6" => experiments::scalability::fig6(&ctx),
            "fig7" => experiments::scalability::fig7(&ctx),
            "fig8" => experiments::system::fig8(&ctx),
            "fig9" => experiments::quality::fig9(&ctx),
            "fig10" => experiments::scalability::fig10(&ctx),
            "fig11" => experiments::quality::fig11(&ctx),
            "orders" => experiments::orders::orders(&ctx),
            "parallel" => experiments::scalability::parallel(&ctx),
            "memory" => experiments::memory::memory(&ctx),
            "io" => experiments::io::io(&ctx),
            "ampc" => experiments::ampc::ampc(&ctx),
            other => {
                eprintln!("unknown experiment id: {other}");
                std::process::exit(2);
            }
        }
        println!("[{id} done in {:.1}s]\n", t.elapsed().as_secs_f64());
    }
    println!(
        "# all requested experiments done in {:.1}s",
        started.elapsed().as_secs_f64()
    );
}
