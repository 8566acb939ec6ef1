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
//! orders all
//!
//! Environment: `CLUGP_SCALE` (dataset scale multiplier, default 1.0),
//! `CLUGP_KS` (comma-separated partition counts), `CLUGP_RESULTS_DIR`
//! (output directory, default `results/`). An unknown flag or id, or a
//! variable that is set but cannot be used, exits 2 before anything runs.

use clugp_bench::experiments::{self, ExpContext, EXPERIMENTS};

const USAGE: &str =
    "usage: experiments [--quick] <table1|table3|fig3|...|fig11|orders|all> [<id> ...]";

/// What the command line asks for.
#[derive(Debug, PartialEq)]
struct Args {
    quick: bool,
    ids: Vec<String>,
}

/// Parses the command line: `--quick` and at least one known id.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        quick: false,
        ids: Vec::new(),
    };
    for arg in args {
        if arg == "--quick" {
            parsed.quick = true;
        } else if arg.starts_with('-') {
            return Err(format!("unknown flag: {arg}"));
        } else if arg == "all" || EXPERIMENTS.iter().any(|(id, _)| id == arg) {
            parsed.ids.push(arg.clone());
        } else {
            return Err(format!("unknown experiment id: {arg}"));
        }
    }
    if parsed.ids.is_empty() {
        return Err("no experiment id given".into());
    }
    Ok(parsed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage_error = |msg: String| -> ! {
        eprintln!("{msg}\n{USAGE}");
        std::process::exit(2)
    };
    let args = parse_args(&args).unwrap_or_else(|e| usage_error(e));
    let ctx = ExpContext::from_env().unwrap_or_else(|e| usage_error(e));
    let ctx = if args.quick { ExpContext::quick() } else { ctx };
    println!(
        "# CLUGP reproduction experiments (scale={}, ks={:?})",
        ctx.scale, ctx.ks
    );
    let started = std::time::Instant::now();
    for id in &args.ids {
        let t = std::time::Instant::now();
        match EXPERIMENTS.iter().find(|(name, _)| name == id) {
            Some((_, run)) => run(&ctx),
            None => experiments::run_all(&ctx), // `all`, the one other id parse_args takes
        }
        println!("[{id} done in {:.1}s]\n", t.elapsed().as_secs_f64());
    }
    println!(
        "# all requested experiments done in {:.1}s",
        started.elapsed().as_secs_f64()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_quick_and_ids() {
        let args = parse(&["--quick", "fig3", "orders"]).unwrap();
        assert!(args.quick);
        assert_eq!(args.ids, ["fig3", "orders"]);
        assert_eq!(parse(&["all"]).unwrap().ids, ["all"]);
        assert!(!parse(&["table1"]).unwrap().quick);
    }

    #[test]
    fn rejects_what_it_cannot_run() {
        for (args, needle) in [
            (&["--quik", "fig3"][..], "unknown flag: --quik"),
            (&["fig3", "-q"][..], "unknown flag: -q"),
            (&["fig3", "io"][..], "unknown experiment id: io"),
            (&["ampc"][..], "unknown experiment id: ampc"),
            (&["memory"][..], "unknown experiment id: memory"),
            (&["parallel"][..], "unknown experiment id: parallel"),
            (&["--quick"][..], "no experiment id"),
            (&[][..], "no experiment id"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }
}
