//! `setbench compare <dirA> <dirB>`: for each workload and end-to-end
//! metric of `BENCHMARK.json`, each side's median and quartiles over its
//! untraced result files, and a verdict against the metric's bound.

use crate::json::{self, Json};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// One end-to-end metric's regression rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The runs spread wider than the bound: no claim either way.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Metric values of one directory's untraced runs, by workload and name.
pub type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// What `compare` judges: the workloads and `end_to_end` bounds of a
/// `BENCHMARK.json`.
#[derive(Debug)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub bounds: Vec<Bound>,
}

/// Read the spec from a `BENCHMARK.json`.
pub fn load_spec(path: &Path) -> Result<Spec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spec = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| spec.get(key).map(Json::as_array).unwrap_or_default();
    let name = |m: &Json| -> Result<String, String> {
        let name = m.get("name").and_then(Json::as_str);
        Ok(name.ok_or("an entry without name")?.to_string())
    };
    let workloads = list("workloads")
        .iter()
        .map(name)
        .collect::<Result<Vec<_>, _>>()?;
    if workloads.is_empty() {
        return Err(format!("{}: no workloads", path.display()));
    }
    let bounds = list("end_to_end")
        .iter()
        .map(|m| {
            Ok(Bound {
                name: name(m)?,
                higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Spec { workloads, bounds })
}

/// Every untraced result file in `dir`. A run's failed operations are
/// kept as the `failed_frac` metric.
pub fn load_runs(dir: &Path) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.ends_with(".json") || name.ends_with(".trace.json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let result = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if result.get("trace") != Some(&Json::Bool(false)) {
            continue;
        }
        let Some(workload) = result.get("workload").and_then(Json::as_str) else {
            continue;
        };
        let metrics = runs.entry(workload.to_string()).or_default();
        for (metric, value) in result
            .get("metrics")
            .map(Json::as_object)
            .unwrap_or_default()
        {
            if let Some(v) = value.get("value").and_then(Json::as_f64) {
                metrics.entry(metric.clone()).or_default().push(v);
            }
        }
    }
    Ok(runs)
}

/// Relative interquartile range.
fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Judge B against A. Where either side spreads wider than the bound the
/// result is unresolved, unless every run of B beats every run of A.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse = match (ma == 0.0, higher_is_better) {
        (true, _) if mb == 0.0 => 0.0,
        (true, true) => -f64::INFINITY,
        (true, false) => f64::INFINITY,
        (false, true) => (ma - mb) / ma.abs(),
        (false, false) => (mb - ma) / ma.abs(),
    };
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let all_better = if higher_is_better {
        min(b) > max(a)
    } else {
        max(b) < min(a)
    };
    if spread(a).max(spread(b)) > bound {
        if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if worse > bound {
        Verdict::Regressed
    } else if -worse > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Print the comparison table; `true` when every workload of the spec has
/// runs on both sides, nothing regressed, nothing is unresolved and no run
/// of B failed an operation or check.
pub fn compare(a: &Runs, b: &Runs, spec: &Spec) -> bool {
    let mut clean = true;
    println!(
        "{:<10} {:<20} {:>34} {:>34} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    let fmt = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        format!("{:.4} [{:.4}, {:.4}] n={}", median(v), q1, q3, v.len())
    };
    for workload in &spec.workloads {
        let (Some(a_metrics), Some(b_metrics)) = (a.get(workload), b.get(workload)) else {
            let side = if a.contains_key(workload) { "B" } else { "A" };
            println!("{workload:<10} missing: no runs in {side}");
            clean = false;
            continue;
        };
        for bound in &spec.bounds {
            let (Some(av), Some(bv)) = (a_metrics.get(&bound.name), b_metrics.get(&bound.name))
            else {
                println!("{workload:<10} {:<20} missing", bound.name);
                clean = false;
                continue;
            };
            let v = verdict(av, bv, bound.higher_is_better, bound.bound);
            clean &= matches!(v, Verdict::Improved | Verdict::Unchanged);
            let change = (median(bv) - median(av)) / median(av).abs().max(f64::MIN_POSITIVE);
            println!(
                "{workload:<10} {:<20} {:>34} {:>34} {:>+7.1}% {:>6}  {v}",
                bound.name,
                fmt(av),
                fmt(bv),
                change * 100.0,
                bound.bound,
            );
        }
        let failed = b_metrics
            .get("failed_frac")
            .is_some_and(|f| f.iter().any(|&x| x > 0.0));
        if failed {
            println!("{workload:<10} failed_frac > 0 in B");
            clean = false;
        }
    }
    clean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.8, 99.4, 100.1, 99.9];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        let noisy = [80.0, 120.0, 100.0, 60.0, 140.0];
        assert_eq!(verdict(&a, &same, false, 0.1), Verdict::Unchanged);
        assert_eq!(verdict(&a, &slower, false, 0.1), Verdict::Regressed);
        assert_eq!(verdict(&a, &slower, true, 0.1), Verdict::Improved);
        assert_eq!(verdict(&a, &noisy, false, 0.1), Verdict::Unresolved);
        let far_better = [10.0, 50.0, 30.0, 20.0, 40.0];
        assert_eq!(verdict(&a, &far_better, false, 0.1), Verdict::Improved);
    }

    #[test]
    fn a_workload_missing_from_either_side_is_not_clean() {
        let spec = Spec {
            workloads: vec!["w1".to_string(), "w2".to_string()],
            bounds: vec![Bound {
                name: "m".to_string(),
                higher_is_better: false,
                bound: 0.1,
            }],
        };
        let metrics: BTreeMap<String, Vec<f64>> = [("m".to_string(), vec![1.0, 1.01, 0.99])].into();
        let both: Runs = [
            ("w1".to_string(), metrics.clone()),
            ("w2".to_string(), metrics.clone()),
        ]
        .into();
        let partial: Runs = [("w1".to_string(), metrics)].into();
        assert!(compare(&both, &both, &spec));
        assert!(!compare(&both, &Runs::new(), &spec));
        assert!(!compare(&both, &partial, &spec));
        assert!(!compare(&partial, &both, &spec));
    }
}
