//! `benchmark compare <old.jsonl> <new.jsonl>`: the regression rule of
//! `BENCHMARK.json` applied to two sets of runs, each the lines a series of
//! `benchmark ... --out <file>` calls appended.
//!
//! One row per (workload, end-to-end metric). A metric is `regressed` when
//! the new median is worse than the old by more than the metric's bound,
//! `unresolved` when either side's own spread (distance between quartiles
//! over median) exceeds the bound so that the comparison cannot tell, and
//! `unchanged` otherwise. Failed requests may not increase at all.

use std::collections::BTreeMap;

use crate::json::{self, Json};
use crate::stats;

/// The runs of one file: per workload, per metric, the values; and per
/// workload the failed and attempted totals.
#[derive(Default)]
struct Runs {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    failed: BTreeMap<String, (f64, f64)>,
    incorrect: usize,
}

fn read_runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let field = |key: &str| {
            run.get(key)
                .ok_or_else(|| format!("{path}:{}: no {key:?}", n + 1))
        };
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        if field("correct")? != &Json::Bool(true) {
            runs.incorrect += 1;
        }
        let totals = runs.failed.entry(workload.clone()).or_default();
        totals.0 += field("failed")?.as_f64().unwrap_or(0.0);
        totals.1 += field("attempted")?.as_f64().unwrap_or(0.0);
        let metrics = field("metrics")?
            .as_object()
            .ok_or_else(|| format!("{path}:{}: metrics is not an object", n + 1))?;
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                runs.values
                    .entry(workload.clone())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(runs)
}

/// Distance between the quartiles as a share of the median; 0 with fewer
/// than two values, which have no spread to speak of.
fn spread(values: &[f64]) -> f64 {
    match (stats::quartiles(values), stats::median(values)) {
        (Some((q1, q3)), median) if median != 0.0 => (q3 - q1) / median.abs(),
        _ => 0.0,
    }
}

/// Compares the two files; `Ok(true)` when anything regressed.
pub fn main(args: &[String]) -> Result<bool, String> {
    let (old_path, new_path, bounds_path) = match args {
        [old, new] => (old, new, "BENCHMARK.json"),
        [old, new, flag, bounds] if flag == "--bounds" => (old, new, bounds.as_str()),
        _ => return Err("compare takes two result files".into()),
    };
    let spec = std::fs::read_to_string(bounds_path).map_err(|e| format!("{bounds_path}: {e}"))?;
    let spec = json::parse(&spec).map_err(|e| format!("{bounds_path}: {e}"))?;
    let bounded = spec
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{bounds_path}: no end_to_end list"))?;
    let old = read_runs(old_path)?;
    let new = read_runs(new_path)?;

    let mut regressed = false;
    println!(
        "{:<16} {:<16} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "old median", "new median", "worse", "spread", "bound"
    );
    for (workload, old_metrics) in &old.values {
        let Some(new_metrics) = new.values.get(workload) else {
            println!("{workload:<16} missing from {new_path}");
            regressed = true;
            continue;
        };
        for metric in bounded {
            let text = |key: &str| metric.get(key).and_then(Json::as_str).unwrap_or_default();
            let (name, better) = (text("name"), text("better"));
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (Some(old_values), Some(new_values)) =
                (old_metrics.get(name), new_metrics.get(name))
            else {
                continue;
            };
            let (old_median, new_median) = (stats::median(old_values), stats::median(new_values));
            let change = (new_median - old_median) / old_median.abs();
            let worse = if better == "higher" { -change } else { change };
            let widest = spread(old_values).max(spread(new_values));
            let verdict = if widest > bound {
                "unresolved (spread > bound)"
            } else if worse > bound {
                regressed = true;
                "regressed"
            } else {
                "unchanged"
            };
            println!(
                "{workload:<16} {name:<16} {old_median:>12.4} {new_median:>12.4} {:>7.1}% {:>6.1}% {:>6.1}%  {verdict}",
                worse * 100.0,
                widest * 100.0,
                bound * 100.0
            );
        }
        let share = |runs: &Runs| {
            runs.failed
                .get(workload)
                .map_or(0.0, |&(failed, attempted)| failed / attempted.max(1.0))
        };
        let (old_share, new_share) = (share(&old), share(&new));
        let verdict = if new_share > old_share {
            regressed = true;
            "regressed"
        } else {
            "unchanged"
        };
        println!(
            "{workload:<16} {:<16} {old_share:>12.6} {new_share:>12.6} {:>8} {:>7} {:>7}  {verdict}",
            "failed_share", "", "", "0.0%"
        );
    }
    if new.incorrect > 0 {
        println!(
            "{} run(s) in {new_path} failed the correctness oracle",
            new.incorrect
        );
        regressed = true;
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(workload: &str, throughputs: &[f64], failed: u64) -> String {
        throughputs
            .iter()
            .map(|t| {
                format!(
                    "{{\"workload\": \"{workload}\", \"seed\": 1, \"trace\": 0, \"correct\": true, \
                     \"attempted\": 100, \"failed\": {failed}, \"metrics\": \
                     {{\"throughput_rps\": {{\"value\": {t}, \"unit\": \"1/s\"}}}}}}\n"
                )
            })
            .collect()
    }

    fn verdict(old: &str, new: &str) -> bool {
        let dir = std::env::temp_dir().join(format!(
            "oar-benchmark-compare-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
        std::fs::write(path("old"), old).expect("write");
        std::fs::write(path("new"), new).expect("write");
        std::fs::write(
            path("bounds"),
            "{\"end_to_end\": [{\"name\": \"throughput_rps\", \"unit\": \"1/s\", \
             \"better\": \"higher\", \"bound\": 0.1}]}",
        )
        .expect("write");
        let args = [path("old"), path("new"), "--bounds".into(), path("bounds")];
        let regressed = main(&args).expect("comparable");
        std::fs::remove_dir_all(&dir).expect("clean up");
        regressed
    }

    #[test]
    fn a_drop_beyond_the_bound_regresses_and_one_within_does_not() {
        let old = lines("w", &[100.0, 101.0, 99.0, 100.0, 100.5], 0);
        assert!(verdict(
            &old,
            &lines("w", &[85.0, 86.0, 84.0, 85.0, 85.5], 0)
        ));
        assert!(!verdict(
            &old,
            &lines("w", &[95.0, 96.0, 94.0, 95.0, 95.5], 0)
        ));
        // Faster is never a regression.
        assert!(!verdict(
            &old,
            &lines("w", &[150.0, 151.0, 149.0, 150.0, 150.5], 0)
        ));
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_regressed() {
        let old = lines("w", &[100.0, 101.0, 99.0, 100.0, 100.5], 0);
        assert!(!verdict(
            &old,
            &lines("w", &[60.0, 110.0, 85.0, 70.0, 100.0], 0)
        ));
    }

    #[test]
    fn more_failures_regress_whatever_the_speed() {
        let old = lines("w", &[100.0, 101.0, 99.0], 0);
        assert!(verdict(&old, &lines("w", &[100.0, 101.0, 99.0], 1)));
    }
}
