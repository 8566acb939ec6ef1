//! `compare`: two results files, one verdict per workload × end-to-end
//! metric, judged by the bounds of `BENCHMARK.json`.

use crate::json::{self, Value};
use crate::measure::{quartiles, reported};
use crate::spec::{MetricDecl, Spec, WORKLOADS};
use std::path::Path;

/// How the second file reads against the first on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread exceeds the bound, so the reported values
    /// cannot settle it.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges samples `b` against samples `a` by the value each side reports
/// (the best sample for end-to-end timings, the median otherwise). A value
/// that worsened by more than the bound is `worse`; one that improved by
/// more than the spread is `better`. When the spread (the wider
/// interquartile range, as a share of `a`'s value) exceeds the bound the
/// metric is `unresolved`, unless every value of `b` is better than every
/// value of `a`. A side with a single sample (`--smoke`) has no spread to
/// show; the bound stands in for it.
pub fn judge(decl: &MetricDecl, a: &[f64], b: &[f64]) -> Verdict {
    let bound = decl.bound.unwrap_or(0.0);
    let sign = if decl.lower_is_better { 1.0 } else { -1.0 };
    let base = reported(decl, a);
    let worsening = sign * (reported(decl, b) - base) / base.abs();
    let iqr = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        q3 - q1
    };
    let spread = if a.len() < 2 || b.len() < 2 {
        bound
    } else {
        iqr(a).max(iqr(b)) / base.abs()
    };
    if spread > bound {
        let worst_b = b.iter().map(|v| sign * v).fold(f64::NEG_INFINITY, f64::max);
        let best_a = a.iter().map(|v| sign * v).fold(f64::INFINITY, f64::min);
        return if worst_b < best_a {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -spread {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn workload<'a>(doc: &'a Value, name: &str) -> Option<&'a Value> {
    doc.get("workloads")?
        .items()
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(name))?
        .get("end_to_end")
}

fn samples(pass: &Value, metric: &str) -> Vec<f64> {
    pass.get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("samples"))
        .map(Value::items)
        .unwrap_or_default()
        .iter()
        .filter_map(Value::as_f64)
        .collect()
}

/// Prints the comparison table and returns how many verdicts were `worse`.
pub fn compare(spec: &Spec, a: &Path, b: &Path) -> Result<usize, String> {
    let (doc_a, doc_b) = (load(a)?, load(b)?);
    let mut worse = 0;
    println!(
        "{:<20} {:<20} {:>14} {:>14} {:>9} {:>8}  verdict",
        "workload", "metric", "a", "b", "delta", "bound"
    );
    for name in WORKLOADS.iter().map(|w| w.name) {
        let (Some(pass_a), Some(pass_b)) = (workload(&doc_a, name), workload(&doc_b, name)) else {
            println!("{name:<20} (not in both files)");
            continue;
        };
        for decl in &spec.end_to_end {
            let (va, vb) = (samples(pass_a, &decl.name), samples(pass_b, &decl.name));
            if va.is_empty() || vb.is_empty() {
                println!("{name:<20} {:<20} (not in both files)", decl.name);
                continue;
            }
            let verdict = judge(decl, &va, &vb);
            worse += usize::from(verdict == Verdict::Worse);
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            let (ra, rb) = (reported(decl, &va), reported(decl, &vb));
            println!(
                "{name:<20} {:<20} {:>14.6} {:>14.6} {:>+8.2}% {:>7.1}%  {}  (a q1..q3 {:.6}..{:.6}, b {:.6}..{:.6})",
                decl.name,
                ra,
                rb,
                100.0 * (rb - ra) / ra.abs(),
                100.0 * decl.bound.unwrap_or(0.0),
                verdict.name(),
                qa.0,
                qa.1,
                qb.0,
                qb.1,
            );
        }
        // Failures have no tolerance: any more than before is a regression.
        let (fa, fb) = (pass_a.num("failed_share")?, pass_b.num("failed_share")?);
        let verdict = if fb > fa {
            worse += 1;
            Verdict::Worse
        } else if fb < fa {
            Verdict::Better
        } else {
            Verdict::Same
        };
        println!(
            "{name:<20} {:<20} {fa:>14.6} {fb:>14.6} {:>9} {:>7.1}%  {}",
            "failed_share",
            "",
            0.0,
            verdict.name()
        );
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(lower_is_better: bool, bound: f64) -> MetricDecl {
        MetricDecl {
            name: "m".into(),
            unit: "s".into(),
            lower_is_better,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_bound_and_direction() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        let lower = decl(true, 0.10);
        assert_eq!(judge(&lower, &a, &a), Verdict::Same);
        assert_eq!(
            judge(&lower, &a, &[1.20, 1.21, 1.19, 1.20, 1.22]),
            Verdict::Worse
        );
        assert_eq!(
            judge(&lower, &a, &[0.80, 0.81, 0.79, 0.80, 0.82]),
            Verdict::Better
        );
        assert_eq!(
            judge(&lower, &a, &[1.05, 1.06, 1.04, 1.05, 1.07]),
            Verdict::Same
        );
        let higher = decl(false, 0.10);
        assert_eq!(
            judge(&higher, &a, &[0.80, 0.81, 0.79, 0.80, 0.82]),
            Verdict::Worse
        );
        assert_eq!(
            judge(&higher, &a, &[1.20, 1.21, 1.19, 1.20, 1.22]),
            Verdict::Better
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_value_wins() {
        let lower = decl(true, 0.05);
        let noisy = [1.0, 1.3, 0.8, 1.1, 0.9];
        assert_eq!(
            judge(&lower, &noisy, &[1.2, 0.9, 1.0, 1.4, 0.7]),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&lower, &noisy, &[0.5, 0.6, 0.4, 0.7, 0.5]),
            Verdict::Better
        );
    }

    #[test]
    fn single_samples_need_the_bound_to_count_as_better() {
        let lower = decl(true, 0.10);
        assert_eq!(judge(&lower, &[1.0], &[0.99]), Verdict::Same);
        assert_eq!(judge(&lower, &[1.0], &[0.85]), Verdict::Better);
        assert_eq!(judge(&lower, &[1.0], &[1.15]), Verdict::Worse);
    }

    #[test]
    fn identical_deterministic_values_are_same() {
        let lower = decl(true, 0.005);
        assert_eq!(judge(&lower, &[6.85; 5], &[6.85; 5]), Verdict::Same);
        assert_eq!(judge(&lower, &[6.85; 5], &[6.95; 5]), Verdict::Worse);
    }
}
