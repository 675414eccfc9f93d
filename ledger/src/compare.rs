//! `ledger --compare A.json B.json`: every end-to-end metric per workload,
//! B against A, with its delta measured against its bound. Fails on a
//! regression or a higher failed share — the tool for "two sets of runs
//! agree" and for a later CI gate.

use crate::json::{self, Value};
use crate::names::{Better, EndToEnd, END_TO_END};
use crate::run::Workload;
use std::process::ExitCode;

/// Ordered from best to worst, so the worst of several is their `max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    Ok,
    /// Not worse beyond the bound, but a side's own repetitions spread
    /// wider than the bound: neither "unchanged" nor "regressed".
    Unresolved,
    Regression,
}

/// By what share of `a` the metric got *worse* going from `a` to `b`
/// (negative = better).
pub fn worsening(m: &EndToEnd, a: f64, b: f64) -> f64 {
    match m.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn judge(m: &EndToEnd, a: f64, b: f64, spread: f64) -> Verdict {
    if worsening(m, a, b) > m.bound {
        Verdict::Regression
    } else if spread > m.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn end_to_end(ledger: &Value, w: Workload) -> Option<&Value> {
    ledger.get(w.name())?.get("end_to_end")
}

fn metric(section: &Value, name: &str, field: &str) -> Option<f64> {
    section.get("metrics")?.get(name)?.get(field)?.as_f64()
}

fn failed_share(section: &Value) -> Option<f64> {
    let attempted = section.get("attempted")?.as_f64()?;
    Some(section.get("failed")?.as_f64()? / attempted.max(1.0))
}

/// Compares two ledgers; returns the printed rows' worst verdict.
pub fn compare(a: &Value, b: &Value) -> Result<Verdict, String> {
    let mut worst = Verdict::Ok;
    let mut compared = 0;
    println!(
        "{:<15} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for w in Workload::ALL {
        let (Some(sa), Some(sb)) = (end_to_end(a, w), end_to_end(b, w)) else {
            continue;
        };
        compared += 1;
        for m in &END_TO_END {
            let get = |s: &Value| {
                metric(s, m.name, "value")
                    .ok_or_else(|| format!("{}: {} is missing", w.name(), m.name))
            };
            let (va, vb) = (get(sa)?, get(sb)?);
            let spread = [sa, sb]
                .iter()
                .filter_map(|s| metric(s, m.name, "spread"))
                .fold(0.0, f64::max);
            let verdict = judge(m, va, vb, spread);
            println!(
                "{:<15} {:<20} {:>14.4} {:>14.4} {:>+8.2}% {:>6.0}%  {}",
                w.name(),
                m.name,
                va,
                vb,
                worsening(m, va, vb) * 100.0,
                m.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Regression => "REGRESSION",
                }
            );
            worst = worst.max(verdict);
        }
        let (fa, fb) = (
            failed_share(sa).ok_or("A: no op counts")?,
            failed_share(sb).ok_or("B: no op counts")?,
        );
        let more_failures = fb > fa;
        println!(
            "{:<15} {:<20} {:>14.6} {:>14.6} {:>9} {:>7}  {}",
            w.name(),
            "failed_share",
            fa,
            fb,
            "",
            "",
            if more_failures { "REGRESSION" } else { "ok" }
        );
        if more_failures {
            worst = Verdict::Regression;
        }
    }
    if compared == 0 {
        return Err("the two ledgers share no workload with end-to-end results".into());
    }
    Ok(worst)
}

pub fn main(a: &str, b: &str) -> ExitCode {
    match load(a)
        .and_then(|a| Ok((a, load(b)?)))
        .and_then(|(a, b)| compare(&a, &b))
    {
        Ok(Verdict::Regression) => {
            println!("compare: REGRESSION");
            ExitCode::FAILURE
        }
        Ok(verdict) => {
            println!(
                "compare: no regression{}",
                if verdict == Verdict::Unresolved {
                    " (some metrics unresolved)"
                } else {
                    ""
                }
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(throughput: f64, rss: f64, failed: u64, spread: f64) -> Value {
        let mut metrics = String::new();
        for m in &END_TO_END {
            let v = match m.name {
                "sim_throughput_rps" => throughput,
                "host_peak_rss_mb" => rss,
                _ => 10.0,
            };
            metrics.push_str(&format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\", \"spread\": {spread}}},",
                m.name, m.unit
            ));
        }
        metrics.pop();
        json::parse(&format!(
            "{{\"null_rpc\": {{\"end_to_end\": {{\"attempted\": 1000, \"failed\": {failed}, \
             \"metrics\": {{{metrics}}}}}}}}}"
        ))
        .unwrap()
    }

    #[test]
    fn direction_decides_what_worse_means() {
        let tput = &END_TO_END[0];
        assert_eq!(tput.better, Better::Higher);
        assert!((worsening(tput, 100.0, 90.0) - 0.10).abs() < 1e-12);
        let rss = END_TO_END
            .iter()
            .find(|m| m.name == "host_peak_rss_mb")
            .unwrap();
        assert!((worsening(rss, 100.0, 90.0) + 0.10).abs() < 1e-12);
    }

    #[test]
    fn identical_ledgers_agree() {
        let a = ledger(1000.0, 50.0, 0, 0.0);
        assert_eq!(compare(&a, &a), Ok(Verdict::Ok));
    }

    #[test]
    fn a_drop_beyond_the_bound_is_a_regression() {
        let a = ledger(1000.0, 50.0, 0, 0.0);
        let within = ledger(1000.0 * (1.0 - END_TO_END[0].bound * 0.9), 50.0, 0, 0.0);
        let beyond = ledger(1000.0 * (1.0 - END_TO_END[0].bound * 1.1), 50.0, 0, 0.0);
        assert_eq!(compare(&a, &within), Ok(Verdict::Ok));
        assert_eq!(compare(&a, &beyond), Ok(Verdict::Regression));
        // Getting better is never a regression.
        assert_eq!(compare(&beyond, &a), Ok(Verdict::Ok));
    }

    #[test]
    fn more_failures_fail_and_wide_spread_is_unresolved() {
        let a = ledger(1000.0, 50.0, 0, 0.0);
        assert_eq!(
            compare(&a, &ledger(1000.0, 50.0, 1, 0.0)),
            Ok(Verdict::Regression)
        );
        assert_eq!(
            compare(&a, &ledger(1000.0, 50.0, 0, 0.3)),
            Ok(Verdict::Unresolved)
        );
    }

    #[test]
    fn disjoint_ledgers_are_an_error() {
        let a = ledger(1000.0, 50.0, 0, 0.0);
        assert!(compare(&a, &json::parse("{}").unwrap()).is_err());
    }
}
