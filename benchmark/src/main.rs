//! Command line of the benchmark (see the library's crate documentation).

use clugp_benchmark::measure::{self, Ctx};
use clugp_benchmark::spec::{self, Sizes, Spec, WORKLOADS};
use clugp_benchmark::{compare, json, pipeline, probe, report};
use clugp_obs::json::{Arr, Obj};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: clugp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
           one run of one workload; the last line printed is its JSON result
       clugp-benchmark run [--seed <n>] [--seconds <s>] [--smoke] [--out <file>]
           every workload, end-to-end pass then traced pass; writes a results file
       clugp-benchmark compare <a.json> <b.json>
           verdict per workload x end-to-end metric, by the bounds of BENCHMARK.json
       clugp-benchmark selfcheck [--seed <n>] [--seconds <s>] [--smoke]
           two runs of the same build; fails if any verdict is `worse`";

/// `--key value` pairs, the `--smoke` switch, and positional arguments.
struct Args {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
    smoke: bool,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            positional: Vec::new(),
            flags: BTreeMap::new(),
            smoke: false,
        };
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some("smoke") => args.smoke = true,
                Some(key) => {
                    let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    args.flags.insert(key.to_string(), value.clone());
                }
                None => args.positional.push(arg.clone()),
            }
        }
        Ok(args)
    }

    fn get(&self, key: &str) -> Result<&str, String> {
        self.flags
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.get(key) {
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot read {v:?}")),
            None => Ok(default),
        }
    }

    fn path(&self, key: &str) -> Result<PathBuf, String> {
        self.get(key).map(PathBuf::from)
    }
}

/// Context and sampling time shared by the measuring subcommands.
fn context(args: &Args) -> Result<(Ctx, u64, f64), String> {
    let spec = Spec::locate()?;
    let seconds = args.number("seconds", if args.smoke { 0.0 } else { spec.run_seconds })?;
    if !(0.0..=60.0).contains(&seconds) {
        return Err(format!("--seconds must be within 0..=60, got {seconds}"));
    }
    let ctx = Ctx {
        spec,
        sizes: if args.smoke {
            Sizes::SMOKE
        } else {
            Sizes::FULL
        },
        exe: std::env::current_exe().map_err(|e| format!("current executable: {e}"))?,
    };
    Ok((ctx, args.number("seed", 1)?, seconds))
}

/// The driver contract: one workload, one pass, one JSON line.
fn contract(args: &Args) -> Result<ExitCode, String> {
    let (ctx, seed, seconds) = context(args)?;
    let workload = spec::workload(args.get("workload")?)?;
    let traced = match args.get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let (_, decls) = ctx.spec.pass(traced);
    let measured = measure::measure(&ctx, workload, seed, seconds, traced)?;
    for note in &measured.notes {
        eprintln!("FAILED {note}");
    }
    let missing = report::missing(decls, &measured);
    if !missing.is_empty() {
        return Err(format!("no value for {}", missing.join(", ")));
    }
    println!("{}", report::contract_line(decls, &measured));
    Ok(ExitCode::SUCCESS)
}

/// Runs every workload through both passes, prints every metric, and
/// writes the results file. Returns whether everything was measured and
/// nothing failed.
fn run_all(ctx: &Ctx, seed: u64, seconds: f64, out: &Path) -> Result<bool, String> {
    let mut clean = true;
    let mut workloads = Arr::new();
    for workload in &WORKLOADS {
        let mut entry = Obj::new()
            .str("name", workload.name)
            .str("why", workload.why);
        for traced in [false, true] {
            let (section, decls) = ctx.spec.pass(traced);
            eprintln!("{}: {section} pass", workload.name);
            let measured = measure::measure(ctx, workload, seed, seconds, traced)?;
            report::print_pass(workload.name, decls, &measured);
            clean &= measured.failed == 0 && report::missing(decls, &measured).is_empty();
            entry = entry.raw(section, &report::pass_json(decls, &measured));
        }
        let trace = ctx.spec.trace_path(workload.name);
        workloads.raw(&entry.str("trace", &trace.to_string_lossy()).finish());
    }
    let results = Obj::new()
        .str("schema", "clugp-benchmark/1")
        .u64("seed", seed)
        .raw("seconds", &json::num(seconds))
        .raw(
            "smoke",
            if ctx.sizes == Sizes::SMOKE {
                "true"
            } else {
                "false"
            },
        )
        .u64("web_vertices", ctx.sizes.web_vertices)
        .u64("social_vertices", ctx.sizes.social_vertices)
        .u64("k", u64::from(spec::K))
        .raw("host", &report::host_json())
        .raw("workloads", &workloads.finish())
        .finish();
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(out, results + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    println!("results written to {}", out.display());
    Ok(clean)
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let (ctx, seed, seconds) = context(args)?;
    let out = match args.flags.get("out") {
        Some(path) => PathBuf::from(path),
        None => ctx.spec.out_dir().join("results.json"),
    };
    let clean = run_all(&ctx, seed, seconds, &out)?;
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn selfcheck(args: &Args) -> Result<ExitCode, String> {
    let (ctx, seed, seconds) = context(args)?;
    let a = ctx.spec.out_dir().join("selfcheck-a.json");
    let b = ctx.spec.out_dir().join("selfcheck-b.json");
    let clean = run_all(&ctx, seed, seconds, &a)? & run_all(&ctx, seed, seconds, &b)?;
    let worse = compare::compare(&ctx.spec, &a, &b)?;
    println!("selfcheck: {worse} verdict(s) `worse`");
    Ok(if clean && worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(raw)?;
    let printed = |report: String| {
        println!("{report}");
        ExitCode::SUCCESS
    };
    match args.positional.first().map(String::as_str) {
        None if args.flags.contains_key("workload") => contract(&args),
        Some("run") => run(&args),
        Some("selfcheck") => selfcheck(&args),
        Some("compare") => {
            let [_, a, b] = args.positional.as_slice() else {
                return Err("compare takes two results files".to_string());
            };
            let worse = compare::compare(&Spec::locate()?, Path::new(a), Path::new(b))?;
            Ok(if worse == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        // The three below are the harness's own child processes.
        Some("run-one") => pipeline::run_one(&pipeline::SampleArgs {
            workload: spec::workload(args.get("workload")?)?,
            pack: args.path("pack")?,
            scratch: args.path("scratch")?,
            trace_out: args.flags.get("trace-out").map(PathBuf::from),
        })
        .map(printed),
        Some("probe") => probe::run(&args.path("pack")?, &args.path("scratch")?).map(printed),
        Some("relaxed-pack") => {
            probe::relaxed_pack(&args.path("pack")?).map(|()| ExitCode::SUCCESS)
        }
        _ => {
            eprintln!("{USAGE}");
            Ok(ExitCode::from(2))
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&raw) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("clugp-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
