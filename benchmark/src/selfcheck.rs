//! `--selfcheck k`: does the benchmark survive a rerun on this machine?
//!
//! Runs the gated workloads as two sets of `k` runs (every run its own
//! process and its own seed), and prints per workload × end-to-end metric
//! both medians, by how much the second reads worse, each set's spread
//! (distance between the first and third quartile over the median, quartiles
//! as Python's `statistics.quantiles` gives them) and the bound. Exits
//! non-zero if any difference exceeds its bound.

use crate::spec::{Better, END_TO_END, GATED};
use crate::stats::{median, quartiles};
use std::process::{Command, ExitCode};

/// The metric values of a result line, or `None` if it is not one or says
/// the run was incorrect.
pub fn parse_result(line: &str) -> Option<Vec<(String, f64)>> {
    if !line.starts_with("{\"correct\":true,") {
        return None;
    }
    let metrics = &line[line.find("\"metrics\":{")? + 11..];
    let mut values = Vec::new();
    for part in metrics.split("\"unit\":").filter(|p| p.contains("{\"value\":")) {
        let (head, value) = part.split_once("\":{\"value\":")?;
        let name = &head[head.rfind('"')? + 1..];
        values.push((name.to_string(), value.trim_end_matches(',').parse().ok()?));
    }
    Some(values)
}

fn one_run(workload: &str, seed: u64, seconds: u64) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    match parse_result(last) {
        Some(values) if output.status.success() => Ok(values),
        _ => Err(format!("{workload} seed {seed} failed:\n{stdout}")),
    }
}

/// (Q3 − Q1) ÷ median.
fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(&mut values.to_vec());
    (q3 - q1) / q2
}

pub fn run(k: usize, seed: u64, seconds: u64) -> ExitCode {
    let k = k.max(3);
    // values[set][workload][metric] = one value per run.
    let mut values = vec![vec![vec![Vec::new(); END_TO_END.len()]; GATED.len()]; 2];
    for (set, set_values) in values.iter_mut().enumerate() {
        for run in 0..k {
            for (w, workload) in GATED.iter().enumerate() {
                let seed = seed + (set * k + run) as u64;
                eprintln!("set {} run {} {workload} seed {seed}", set + 1, run + 1);
                let result = match one_run(workload, seed, seconds) {
                    Ok(result) => {
                        eprintln!("  {result:?}");
                        result
                    }
                    Err(problem) => {
                        eprintln!("{problem}");
                        return ExitCode::FAILURE;
                    }
                };
                for (m, metric) in END_TO_END.iter().enumerate() {
                    let value = result.iter().find(|(name, _)| name == metric.name);
                    set_values[w][m].push(value.expect("every end-to-end metric").1);
                }
            }
        }
    }
    println!(
        "{:<18} {:<14} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}",
        "workload", "metric", "median 1", "median 2", "worse", "spread1", "spread2", "bound"
    );
    let mut agree = true;
    for (w, workload) in GATED.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let first = median(&mut values[0][w][m].clone());
            let second = median(&mut values[1][w][m].clone());
            // Positive: the second set reads worse than the first.
            let diff = match metric.better {
                Better::Lower => (second - first) / first,
                Better::Higher => (first - second) / first,
            };
            let (s1, s2) = (spread(&values[0][w][m]), spread(&values[1][w][m]));
            let ok = diff.abs() <= metric.bound;
            agree &= ok;
            // A spread above the bound is flagged: the pipeline refuses it
            // for every metric but setup_s.
            let wide = metric.name != "setup_s" && s1.max(s2) > metric.bound;
            println!(
                "{workload:<18} {:<14} {first:>12.3} {second:>12.3} {:>+7.1}% {:>7.1}% {:>7.1}% {:>5.0}%{}{}",
                metric.name,
                100.0 * diff,
                100.0 * s1,
                100.0 * s2,
                100.0 * metric.bound,
                if ok { "" } else { "  DISAGREE" },
                if wide { "  WIDE" } else { "" },
            );
        }
    }
    if agree {
        println!("two sets of {k} runs agree within every bound");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_parse_back() {
        let line = r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":1.25,"unit":"s"},"goodput_per_s":{"value":6021.5,"unit":"1/s"}}}"#;
        assert_eq!(
            parse_result(line).unwrap(),
            vec![("setup_s".to_string(), 1.25), ("goodput_per_s".to_string(), 6021.5)]
        );
        assert!(parse_result(&line.replace("true", "false")).is_none());
        assert!(parse_result("ops_attempted 10").is_none());
    }
}
