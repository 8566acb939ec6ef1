//! Output: the driver contract's one-line result, the human table, and the
//! results file `run` writes — all through `clugp_obs::json`.

use crate::json;
use crate::measure::{median, quartiles, reported, Measured};
use crate::spec::MetricDecl;
use clugp_obs::json::{escape, Arr, Obj};
use std::process::Command;

/// A JSON array of strings.
pub fn string_array(items: &[String]) -> String {
    let mut arr = Arr::new();
    for item in items {
        arr.raw(&format!("\"{}\"", escape(item)));
    }
    arr.finish()
}

/// The declared metrics `measured` has no value for.
pub fn missing<'a>(decls: &'a [MetricDecl], measured: &Measured) -> Vec<&'a str> {
    decls
        .iter()
        .filter(|d| {
            !measured
                .metrics
                .get(&d.name)
                .is_some_and(|v| reported(d, v).is_finite())
        })
        .map(|d| d.name.as_str())
        .collect()
}

/// The last line the driver reads: `correct`, `attempted`, `failed` and
/// what every declared metric reports for the run, with its unit.
pub fn contract_line(decls: &[MetricDecl], measured: &Measured) -> String {
    let mut metrics = Obj::new();
    for decl in decls {
        let value = measured
            .metrics
            .get(&decl.name)
            .map_or(f64::NAN, |v| reported(decl, v));
        metrics = metrics.raw(
            &decl.name,
            &Obj::new()
                .raw("value", &json::num(value))
                .str("unit", &decl.unit)
                .finish(),
        );
    }
    Obj::new()
        .raw(
            "correct",
            if measured.failed == 0 {
                "true"
            } else {
                "false"
            },
        )
        .u64("attempted", measured.attempted)
        .u64("failed", measured.failed)
        .raw("metrics", &metrics.finish())
        .finish()
}

/// One pass of one workload as a results-file object: failure accounting
/// plus, per declared metric, the reported value, the dispersion of the
/// samples and every raw value.
pub fn pass_json(decls: &[MetricDecl], measured: &Measured) -> String {
    let mut metrics = Obj::new();
    for decl in decls {
        let Some(values) = measured.metrics.get(&decl.name) else {
            continue;
        };
        let (q1, q3) = quartiles(values);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        metrics = metrics.raw(
            &decl.name,
            &Obj::new()
                .str("unit", &decl.unit)
                .raw("value", &json::num(reported(decl, values)))
                .raw("median", &json::num(median(values)))
                .raw("min", &json::num(min))
                .raw("q1", &json::num(q1))
                .raw("q3", &json::num(q3))
                .raw("max", &json::num(max))
                .u64("n", values.len() as u64)
                .raw("samples", &json::num_array(values))
                .finish(),
        );
    }
    Obj::new()
        .u64("attempted", measured.attempted)
        .u64("failed", measured.failed)
        .raw("failed_share", &json::num(measured.failed_share()))
        .raw("notes", &string_array(&measured.notes))
        .raw("metrics", &metrics.finish())
        .finish()
}

/// Prints every declared metric of one pass by name, with its unit.
pub fn print_pass(workload: &str, decls: &[MetricDecl], measured: &Measured) {
    for decl in decls {
        let Some(values) = measured.metrics.get(&decl.name) else {
            println!("{workload:<20} {:<30} (not measured)", decl.name);
            continue;
        };
        let (q1, q3) = quartiles(values);
        let spread = if values.len() > 1 {
            format!("  q1 {q1:.6}  q3 {q3:.6}  n {}", values.len())
        } else {
            String::new()
        };
        println!(
            "{workload:<20} {:<30} {:>16.6} {:<8}{spread}",
            decl.name,
            reported(decl, values),
            decl.unit
        );
    }
    println!(
        "{workload:<20} {:<30} {:>16.6} {:<8}  {} of {} samples",
        "failed_share",
        measured.failed_share(),
        "ratio",
        measured.failed,
        measured.attempted
    );
    for note in &measured.notes {
        println!("{workload:<20} FAILED {note}");
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where the numbers were taken: cores, CPU model, compiler, commit.
pub fn host_json() -> String {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Obj::new()
        .u64(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        )
        .str("cpu_model", &cpu_model)
        .str("rustc", &command_line("rustc", &["-V"]))
        .str("git_commit", &command_line("git", &["rev-parse", "HEAD"]))
        .finish()
}
