//! The parent side: set up inputs, run samples in child processes, account
//! for failures, and turn raw samples into named metrics.
//!
//! One call to [`measure`] is one run of one workload, either the
//! end-to-end pass (tracing off; the only source of end-to-end metrics) or
//! the traced pass (layer probe + traced samples; the source of per-layer
//! metrics). The driver contract's `--workload … --trace …` invocation and
//! the `run` subcommand both go through it.

use crate::inputs::{self, PackedInput};
use crate::json::{self, Value};
use crate::spec::{self, MetricDecl, Route, Sizes, Spec, Workload};
use std::collections::BTreeMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A child that runs longer than this is killed and counted as failed.
const SAMPLE_TIMEOUT: Duration = Duration::from_secs(120);
/// No child outlives this much of a run, so a run with a hanging sample
/// still reports within the driver's 180 s limit.
const RUN_DEADLINE: Duration = Duration::from_secs(150);
/// Set-ups per end-to-end run: one before the samples, the others after
/// them, so that one slow spell of the host does not cover them all.
const SETUPS: usize = 3;
/// The end-to-end timings, which report the best sample of a run: the
/// shared host this runs on slows for seconds at a time, which only ever
/// adds to a time, so the fastest sample is the one least disturbed and
/// repeats from run to run where the median does not (README, *Protocol*).
/// Every other metric reports the median of its samples.
const BEST_SAMPLE: [&str; 3] = ["setup_s", "wall_s", "edges_per_s"];
/// The relaxed run may replicate more than the monolith, but not more than
/// this many times as much.
const RELAXED_RF_LIMIT: f64 = 1.5;

/// What stays the same across the runs of one invocation.
pub struct Ctx {
    pub spec: Spec,
    pub sizes: Sizes,
    /// This binary, re-run as `run-one` / `probe` / `relaxed-pack`.
    pub exe: PathBuf,
}

/// The outcome of one run of one workload.
#[derive(Debug, Default)]
pub struct Measured {
    /// Child processes run, and how many failed (non-zero exit, panic,
    /// timeout, or any output check).
    pub attempted: u64,
    pub failed: u64,
    /// One line per failure, for the human reading the log.
    pub notes: Vec<String>,
    /// Raw values per metric name; [`reported`] picks the one to report.
    pub metrics: BTreeMap<String, Vec<f64>>,
}

impl Measured {
    fn push(&mut self, name: &str, value: f64) {
        self.metrics
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        self.notes.push(note);
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// What a metric reports for a run, given its samples: the best one for the
/// `BEST_SAMPLE` timings, the median for the rest.
pub fn reported(decl: &MetricDecl, values: &[f64]) -> f64 {
    if !BEST_SAMPLE.contains(&decl.name.as_str()) {
        return median(values);
    }
    let best = if decl.lower_is_better {
        f64::min
    } else {
        f64::max
    };
    values.iter().copied().reduce(best).unwrap_or(f64::NAN)
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the "exclusive" method); both are the single value when
/// there is only one.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    if len < 2 {
        let only = sorted.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let at = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// A scratch directory that is removed when the run ends, however it ends.
struct Scratch(PathBuf);

impl Scratch {
    fn create(spec: &Spec) -> Result<Scratch, String> {
        let dir = spec.out_dir().join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The first CPU this process may run on (`Cpus_allowed_list` of
/// `/proc/self/status`), as `taskset -c` wants it.
fn first_allowed_cpu() -> Result<String, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map(|list| {
            let list = list.trim();
            let end = list
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(list.len());
            list[..end].to_string()
        })
        .filter(|cpu| !cpu.is_empty())
        .ok_or_else(|| "no Cpus_allowed_list in /proc/self/status".to_string())
}

/// Runs this binary with `args` — under `taskset`, confined to one CPU, if
/// `one_cpu` — waits for it (killing it at the earlier of
/// [`SAMPLE_TIMEOUT`] and `deadline`), and parses the last line it printed.
fn run_child(
    ctx: &Ctx,
    scratch: &Path,
    one_cpu: bool,
    args: &[&str],
    deadline: Instant,
) -> Result<Value, String> {
    let stdout = scratch.join("child.stdout");
    let stderr = scratch.join("child.stderr");
    let create = |p: &Path| File::create(p).map_err(|e| format!("{}: {e}", p.display()));
    let mut command = if one_cpu {
        // `taskset` execs the program, so the child is still ours to kill.
        let mut taskset = Command::new("taskset");
        taskset.arg("-c").arg(first_allowed_cpu()?).arg(&ctx.exe);
        taskset
    } else {
        Command::new(&ctx.exe)
    };
    let mut child = command
        .args(args)
        .stdin(Stdio::null())
        .stdout(create(&stdout)?)
        .stderr(create(&stderr)?)
        .spawn()
        .map_err(|e| format!("spawning {command:?}: {e}"))?;
    let limit = (Instant::now() + SAMPLE_TIMEOUT).min(deadline);
    let status = loop {
        match child.try_wait().map_err(|e| format!("waiting: {e}"))? {
            Some(status) => break status,
            None if Instant::now() >= limit => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("{} timed out", args[0]));
            }
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    if !status.success() {
        let log = std::fs::read_to_string(&stderr).unwrap_or_default();
        let tail: Vec<&str> = log
            .lines()
            .filter(|l| !l.trim().is_empty())
            .take(3)
            .collect();
        return Err(format!("{} {status}: {}", args[0], tail.join(" | ")));
    }
    let out = std::fs::read_to_string(&stdout).map_err(|e| format!("{}: {e}", stdout.display()))?;
    let line = out
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    json::parse(line).map_err(|e| format!("{} printed no report: {e}", args[0]))
}

/// One `run-one` child. `Err` means the sample failed: the process did, or
/// one of its own output checks.
fn run_sample(
    ctx: &Ctx,
    scratch: &Path,
    workload: &Workload,
    pack: &Path,
    trace_out: Option<&Path>,
    deadline: Instant,
) -> Result<Value, String> {
    let (pack, scratch_arg) = (pack.to_string_lossy(), scratch.to_string_lossy());
    let mut args = vec![
        "run-one",
        "--workload",
        workload.name,
        "--pack",
        &pack,
        "--scratch",
        &scratch_arg,
    ];
    let trace_out = trace_out.map(|p| p.to_string_lossy());
    if let Some(path) = &trace_out {
        args.extend(["--trace-out", path]);
    }
    let report = run_child(ctx, scratch, workload.runs_on_one_cpu(), &args, deadline)?;
    let failures: Vec<&str> = report
        .get("failures")
        .map(Value::items)
        .unwrap_or_default()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    if failures.is_empty() {
        Ok(report)
    } else {
        Err(format!("output checks failed: {}", failures.join(", ")))
    }
}

/// One run of one workload in progress: its input, the reference sample
/// AMPC workloads are held against, and what has been measured so far.
struct Run<'a> {
    ctx: &'a Ctx,
    workload: &'a Workload,
    scratch: Scratch,
    input: PackedInput,
    /// One sample of the monolith on the same input (AMPC workloads only):
    /// what sequenced runs must match bit for bit, and the base of the
    /// overhead and drift ratios.
    reference: Option<Value>,
    first_hash: Option<String>,
    deadline: Instant,
    m: Measured,
}

impl Run<'_> {
    /// Runs one sample of the workload and holds it against the checks only
    /// the parent can make. A failure is recorded and yields `None`.
    fn sample(&mut self, trace_out: Option<&Path>) -> Option<Value> {
        self.m.attempted += 1;
        let outcome = run_sample(
            self.ctx,
            &self.scratch.0,
            self.workload,
            &self.input.pack,
            trace_out,
            self.deadline,
        )
        .and_then(|report| self.cross_check(&report).map(|()| report));
        match outcome {
            Ok(report) => Some(report),
            Err(e) => {
                self.m.fail(format!("{}: {e}", self.workload.name));
                None
            }
        }
    }

    /// One assignment hash per workload across samples; sequenced AMPC
    /// bit-identical to the monolith; the relaxed run's replication factor
    /// within [`RELAXED_RF_LIMIT`] of the monolith's.
    fn cross_check(&mut self, report: &Value) -> Result<(), String> {
        let hash = report.string("hash")?;
        let first = self.first_hash.get_or_insert_with(|| hash.to_string());
        if first != hash {
            return Err(format!(
                "assignment hash {hash} differs from the first sample's {first}"
            ));
        }
        let Route::Ampc { relaxed, .. } = self.workload.route else {
            return Ok(());
        };
        let reference = self
            .reference
            .as_ref()
            .ok_or_else(|| format!("no {} reference sample", spec::REFERENCE_WORKLOAD))?;
        if relaxed {
            let rf = report.num("replication_factor")?;
            let base = reference.num("replication_factor")?;
            if rf > RELAXED_RF_LIMIT * base {
                return Err(format!(
                    "replication factor {rf} exceeds {RELAXED_RF_LIMIT} x {base}"
                ));
            }
        } else if reference.string("hash")? != hash {
            return Err(format!("not bit-identical to {}", spec::REFERENCE_WORKLOAD));
        }
        Ok(())
    }

    /// Whether another round of samples, taking as long as the one begun at
    /// `round`, would end after the `seconds` of the window.
    fn window_closed(&self, window: Instant, seconds: f64, round: Instant) -> bool {
        (window.elapsed() + round.elapsed()).as_secs_f64() >= seconds
            || Instant::now() >= self.deadline
    }

    /// Tracing off: timed samples for as long as the window has room. The
    /// only source of end-to-end metrics. No sample is set aside as a
    /// warm-up: the input was written a moment ago and is cached, and a
    /// slow first sample is not the best one.
    fn end_to_end_pass(&mut self, seconds: f64) -> Result<(), String> {
        let window = Instant::now();
        loop {
            let round = Instant::now();
            if let Some(report) = self.sample(None) {
                // One value per pipeline, not per sample: the shorter the
                // timed stretch, the likelier one of them ran undisturbed.
                let edges = report.num("edges")?;
                let pipelines = report.get("pipeline_wall_s").map(Value::items);
                for wall_s in pipelines.unwrap_or_default() {
                    let wall_s = wall_s
                        .as_f64()
                        .ok_or("pipeline_wall_s holds a non-number")?;
                    self.m.push("wall_s", wall_s);
                    self.m.push("edges_per_s", edges / wall_s);
                }
                for name in ["peak_rss_mib", "replication_factor", "relative_balance"] {
                    self.m.push(name, report.num(name)?);
                }
            }
            if self.window_closed(window, seconds, round) {
                return Ok(());
            }
        }
    }

    /// The layer probe, then traced and plain samples in turn (so the
    /// overhead ratio compares neighbours in time) until the window closes.
    /// The only source of per-layer metrics.
    fn traced_pass(&mut self, seconds: f64) -> Result<(), String> {
        let window = Instant::now();
        self.m.push("pack.encode_s", self.input.encode_s);
        self.m
            .push("pack.bytes_per_edge", self.input.stats.bytes_per_edge());
        self.m
            .push("pack.blocks", self.input.stats.num_blocks as f64);
        probe_layers(
            self.ctx,
            &self.scratch.0,
            &self.input.pack,
            self.deadline,
            &mut self.m,
        );
        let spec = &self.ctx.spec;
        let trace_path = spec.trace_path(self.workload.name);
        loop {
            let round = Instant::now();
            if let Some(report) = self.sample(Some(&trace_path)) {
                record_traced(&report, &mut self.m)?;
            }
            if let Some(report) = self.sample(None) {
                record_layers(&report, self.reference.as_ref(), spec, &mut self.m)?;
            }
            if self.window_closed(window, seconds, round) {
                break;
            }
        }
        if let (Some(t), Some(p)) = (
            self.m.metrics.get("traced_wall_s"),
            self.m.metrics.get("wall_s"),
        ) {
            let ratio = median(t) / median(p);
            self.m.push("obs.trace_overhead_ratio", ratio);
        }
        if !self.workload.is_ampc() {
            // The engine is not on a monolithic workload's path.
            for decl in &spec.per_layer {
                if decl.name.starts_with("ampc.") && !self.m.metrics.contains_key(&decl.name) {
                    self.m.push(&decl.name, 0.0);
                }
            }
        }
        Ok(())
    }
}

/// Runs `workload` once: set-up, then the end-to-end pass or the traced
/// pass. `seconds` is how long samples are taken for; with `seconds == 0`
/// (smoke) each pass sets up once and takes the fewest samples it can.
pub fn measure(
    ctx: &Ctx,
    workload: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Measured, String> {
    let deadline = Instant::now() + RUN_DEADLINE;
    let scratch = Scratch::create(&ctx.spec)?;
    let mut m = Measured::default();

    let input = inputs::build(workload.input, ctx.sizes, seed, &scratch.0)?;
    m.push("setup_s", input.setup_s);

    let mut reference = None;
    if workload.is_ampc() {
        m.attempted += 1;
        let monolith = spec::workload(spec::REFERENCE_WORKLOAD)?;
        match run_sample(ctx, &scratch.0, monolith, &input.pack, None, deadline) {
            Ok(report) => reference = Some(report),
            Err(e) => m.fail(format!("reference {}: {e}", monolith.name)),
        }
    }

    let mut run = Run {
        ctx,
        workload,
        scratch,
        input,
        reference,
        first_hash: None,
        deadline,
        m,
    };
    if traced {
        run.traced_pass(seconds)?;
    } else {
        run.end_to_end_pass(seconds)?;
        if seconds > 0.0 {
            for _ in 1..SETUPS {
                let again = inputs::build(workload.input, ctx.sizes, seed, &run.scratch.0)?;
                run.m.push("setup_s", again.setup_s);
            }
        }
    }
    Ok(run.m)
}

/// Runs the two probe children and files what they report.
fn probe_layers(ctx: &Ctx, scratch: &Path, pack: &Path, deadline: Instant, m: &mut Measured) {
    let (pack, scratch_arg) = (pack.to_string_lossy(), scratch.to_string_lossy());
    m.attempted += 1;
    match run_child(
        ctx,
        scratch,
        false,
        &["probe", "--pack", &pack, "--scratch", &scratch_arg],
        deadline,
    ) {
        Ok(report) => {
            for (name, value) in report.fields() {
                m.push(name, value.as_f64().unwrap_or(f64::NAN));
            }
        }
        Err(e) => m.fail(e),
    }
    // Not counted as attempted: this child is expected to fail until the
    // relaxed transform is fixed, and the metric says whether it did.
    let relaxed_pack = ["relaxed-pack", "--pack", &pack];
    let ok = run_child(ctx, scratch, false, &relaxed_pack, deadline).is_ok();
    m.push("ampc.relaxed_pack_ok", f64::from(u8::from(ok)));
}

/// Files one plain sample of the traced pass: the coarse layer split and,
/// on AMPC workloads, the engine's counters. (Tracing adds `TraceEvents`
/// frames to the wire, so byte counts come from plain samples.)
fn record_layers(
    report: &Value,
    reference: Option<&Value>,
    spec: &Spec,
    m: &mut Measured,
) -> Result<(), String> {
    for name in ["wall_s", "open_s", "partition_s", "emit_s"] {
        m.push(name, report.num(name)?);
    }
    let (Some(ampc), Some(reference)) = (report.get("ampc"), reference) else {
        return Ok(());
    };
    let partition_s = report.num("partition_s")?;
    m.push("ampc.run_s", partition_s);
    m.push(
        "ampc.overhead_ratio",
        partition_s / reference.num("partition_s")?,
    );
    m.push(
        "ampc.rf_drift",
        report.num("replication_factor")? / reference.num("replication_factor")?,
    );
    m.push(
        "ampc.exchange_bytes_per_edge",
        ampc.num("bytes")? / report.num("edges")?,
    );
    for name in ["frames", "ckpt_write_s", "ckpt_writes", "recoveries"] {
        m.push(&format!("ampc.{name}"), ampc.num(name)?);
    }
    for decl in &spec.per_layer {
        if let Some(verb) = decl.name.strip_prefix("ampc.bytes.") {
            let bytes = ampc.get("by_verb").and_then(|v| v.get(verb));
            m.push(&decl.name, bytes.and_then(Value::as_f64).unwrap_or(0.0));
        }
    }
    Ok(())
}

/// Files one traced sample: its wall-clock (for the overhead ratio only)
/// and what the engine's spans add up to.
fn record_traced(report: &Value, m: &mut Measured) -> Result<(), String> {
    m.push("traced_wall_s", report.num("wall_s")?);
    let trace = report
        .get("trace")
        .ok_or("traced sample has no trace section")?;
    m.push("obs.trace_events", trace.num("events")?);
    if report.get("ampc").is_some() {
        for (name, value) in trace.fields() {
            if name != "events" {
                m.push(&format!("ampc.{name}"), value.as_f64().unwrap_or(f64::NAN));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn end_to_end_timings_report_their_best_sample() {
        let decl = |name: &str, lower_is_better| MetricDecl {
            name: name.into(),
            unit: "s".into(),
            lower_is_better,
            bound: Some(0.25),
        };
        let samples = [1.5, 1.0, 2.0, 1.25];
        assert_eq!(reported(&decl("wall_s", true), &samples), 1.0);
        assert_eq!(reported(&decl("edges_per_s", false), &samples), 2.0);
        assert_eq!(reported(&decl("peak_rss_mib", true), &samples), 1.375);
        assert!(reported(&decl("wall_s", true), &[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1.0, 2.0, 4.0], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
        // statistics.quantiles([1.0, 3.0], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }
}
