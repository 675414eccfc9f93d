//! What one run prints and writes: the metric table, the result line the
//! driver reads, and the files under `<target>/bench/`.

use crate::json::{self, Value};
use crate::names;
use crate::run::Workload;
use crate::spans::Spans;
use crate::stats;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// The only directory the ledger writes to: `bench/` under the cargo
/// target directory the driver (or the user) chose.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("bench")
}

/// The accumulated ledger: one section per workload, each with the latest
/// `end_to_end` and `per_layer` results. `--compare` reads two of these.
pub const LEDGER_FILE: &str = "LEDGER.json";

pub struct Report {
    workload: Workload,
    seed: u64,
    attempted: u64,
    failed: u64,
    samples: usize,
    metrics: Vec<(&'static str, f64)>,
    /// Host metrics whose repetitions spread beyond their limit.
    spreads: Vec<(&'static str, f64, bool)>,
    notes: Vec<String>,
    failures: Vec<String>,
    artifacts: Vec<(String, String)>,
}

impl Report {
    pub fn new(workload: Workload, seed: u64) -> Self {
        Report {
            workload,
            seed,
            attempted: 0,
            failed: 0,
            samples: 0,
            metrics: Vec::new(),
            spreads: Vec::new(),
            notes: Vec::new(),
            failures: Vec::new(),
            artifacts: Vec::new(),
        }
    }

    pub fn counts(&mut self, attempted: u64, failed: u64) {
        self.attempted = attempted;
        self.failed = failed;
    }

    /// Latency sample count behind the reported percentiles.
    pub fn samples(&mut self, n: usize) {
        self.samples = n;
        if !stats::supports_percentile(n, 0.99) {
            self.fail(format!(
                "{n} latency samples leave fewer than {} beyond p99",
                stats::MIN_SAMPLES_BEYOND
            ));
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// A median over host-clock repetitions with their spread
    /// `(max − min) ÷ median`; beyond `limit` it prints as `unresolved`.
    pub fn host_metric(&mut self, name: &'static str, value: f64, spread: f64, limit: f64) {
        self.metrics.push((name, value));
        self.spreads.push((name, spread, spread > limit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a failed output check (once, however many repetitions
    /// report it).
    pub fn fail(&mut self, what: String) {
        if !self.failures.contains(&what) {
            self.failures.push(what);
        }
    }

    /// A file to write next to the ledger when the run ends.
    pub fn artifact(&mut self, file: String, content: String) {
        self.artifacts.push((file, content));
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
    }

    /// Prints one table row per metric this mode must report and returns
    /// them keyed by name (`value`, `unit`, and `spread` for host medians).
    fn metric_rows(&mut self, traced: bool) -> BTreeMap<String, Value> {
        // `(name, unit)` of what this mode must report, in table order.
        let wanted: Vec<(&str, &str)> = if traced {
            names::per_layer().map(|m| (m.name, m.unit)).collect()
        } else {
            names::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let mut metrics = BTreeMap::new();
        for &(name, unit) in &wanted {
            // Per-layer metrics a workload does not exercise read 0; an
            // end-to-end metric must always be there.
            let value = self.value(name).unwrap_or_else(|| {
                if !traced {
                    self.failures.push(format!("{name} was not measured"));
                }
                0.0
            });
            if !value.is_finite() || (!traced && value <= 0.0) {
                self.failures
                    .push(format!("{name} = {value} is not a usable measurement"));
            }
            let spread = self.spreads.iter().find(|(k, ..)| *k == name);
            let tag = match spread {
                Some((_, s, true)) => format!("  unresolved (spread {:.1}%)", s * 100.0),
                Some((_, s, false)) => format!("  (spread {:.1}%)", s * 100.0),
                None => String::new(),
            };
            println!("{name:<34} {value:>16.4} {unit}{tag}");
            let mut entry = BTreeMap::new();
            entry.insert("value".to_owned(), Value::Number(value));
            entry.insert("unit".to_owned(), Value::String(unit.to_owned()));
            if let Some((_, s, _)) = spread {
                entry.insert("spread".to_owned(), Value::Number(*s));
            }
            metrics.insert(name.to_owned(), Value::Object(entry));
        }
        metrics
    }

    /// Prints the table, writes the files, prints the result line last.
    pub fn finish(mut self, traced: bool, spans: &Spans) -> ExitCode {
        println!(
            "== ledger: {} seed {} ({}) ==",
            self.workload.name(),
            self.seed,
            if traced {
                "sim pass, traced"
            } else {
                "host pass"
            }
        );
        let metrics = self.metric_rows(traced);
        println!(
            "{:<34} {:>16}\n{:<34} {:>16}\n{:<34} {:>16}",
            "ops_attempted",
            self.attempted,
            "ops_failed",
            self.failed,
            "latency_samples",
            self.samples
        );
        for name in ["build", "warmup", "measure", "collect", "kernels"] {
            let total = spans.total_s(name);
            if total > 0.0 {
                println!("span {name:<29} {total:>16.3} s (wall, all repetitions)");
            }
        }
        for note in &self.notes {
            println!("{note}");
        }
        if self.attempted == 0 {
            self.failures.push("no operation was attempted".into());
        }
        for f in &self.failures {
            println!("CHECK FAILED: {f}");
        }
        let correct = self.failures.is_empty();

        let count = |n: u64| Value::Number(n as f64);
        let mut line = BTreeMap::from([
            ("correct".to_owned(), Value::Bool(correct)),
            ("attempted".to_owned(), count(self.attempted)),
            ("failed".to_owned(), count(self.failed)),
            ("metrics".to_owned(), Value::Object(metrics)),
        ]);
        // The ledger file's section is the result line plus the seed, the
        // sample count and each host metric's spread.
        let mut section = line.clone();
        section.insert("seed".to_owned(), count(self.seed));
        section.insert("latency_samples".to_owned(), count(self.samples as u64));
        self.artifacts.push((
            format!("SPANS_{}.json", self.workload.name()),
            spans.export_json(),
        ));
        if let Err(e) = self.write_files(traced, Value::Object(section)) {
            // The result line below is still valid; the files are a
            // convenience for `--compare`.
            eprintln!("ledger: could not write under {}: {e}", out_dir().display());
        }
        // The result line carries exactly `value` and `unit` per metric.
        if let Some(Value::Object(metrics)) = line.get_mut("metrics") {
            for entry in metrics.values_mut() {
                if let Value::Object(e) = entry {
                    e.remove("spread");
                }
            }
        }
        println!("{}", Value::Object(line));
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }

    fn write_files(&self, traced: bool, section: Value) -> std::io::Result<()> {
        let dir = out_dir();
        std::fs::create_dir_all(&dir)?;
        for (file, content) in &self.artifacts {
            std::fs::write(dir.join(file), content)?;
        }
        let path = dir.join(LEDGER_FILE);
        let mut ledger = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| json::parse(&text).ok())
            .and_then(|v| v.as_object().cloned())
            .unwrap_or_default();
        let mut workload = ledger
            .get(self.workload.name())
            .and_then(Value::as_object)
            .cloned()
            .unwrap_or_default();
        let key = if traced { "per_layer" } else { "end_to_end" };
        workload.insert(key.to_owned(), section);
        ledger.insert(self.workload.name().to_owned(), Value::Object(workload));
        std::fs::write(&path, pretty(&Value::Object(ledger)))
    }
}

/// The ledger file laid out one metric per line, so a committed baseline
/// diffs readably.
fn pretty(ledger: &Value) -> String {
    fn walk(v: &Value, depth: usize, out: &mut String) {
        match v {
            Value::Object(map) if depth < 4 && !map.is_empty() => {
                out.push_str("{\n");
                for (i, (k, child)) in map.iter().enumerate() {
                    out.push_str(&"  ".repeat(depth + 1));
                    out.push_str(&format!("\"{}\": ", pws_obs::escape_json(k)));
                    walk(child, depth + 1, out);
                    out.push_str(if i + 1 < map.len() { ",\n" } else { "\n" });
                }
                out.push_str(&"  ".repeat(depth));
                out.push('}');
            }
            other => out.push_str(&other.to_string()),
        }
    }
    let mut out = String::new();
    walk(ledger, 0, &mut out);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whatever a run measured, each mode reports exactly the metrics
    /// `BENCHMARK.json` declares for it, with the declared units.
    #[test]
    fn each_mode_reports_exactly_the_declared_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let declared = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let mut report = Report::new(Workload::NullRpc, 1);
            report.metric("sim_throughput_rps", 1.0);
            report.metric("not_declared", 1.0);
            let rows = report.metric_rows(traced);
            let want: BTreeMap<&str, &str> = declared
                .get(section)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Value::as_str).unwrap();
                    (field("name"), field("unit"))
                })
                .collect();
            let got: BTreeMap<&str, &str> = rows
                .iter()
                .map(|(k, v)| (k.as_str(), v.get("unit").and_then(Value::as_str).unwrap()))
                .collect();
            assert_eq!(got, want, "{section}");
        }
    }

    #[test]
    fn pretty_ledger_parses_back() {
        let v = json::parse(
            r#"{"null_rpc": {"end_to_end": {"seed": 1, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}}}"#,
        )
        .unwrap();
        let text = pretty(&v);
        assert_eq!(json::parse(&text).unwrap(), v);
        assert!(text.contains("\"setup_s\": {\"unit\": \"s\", \"value\": 0.5}\n"));
    }
}
