//! The two-clock benchmark ledger for Perpetual-WS.
//!
//! ```text
//! ledger --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ledger --compare A.json B.json
//! ledger --benchmark-json
//! ```
//!
//! One command per workload prints every metric by name and unit, checks
//! the outputs are correct, and writes JSON under the cargo target
//! directory only. With `--trace 0` it runs the *host pass* (tracing off,
//! three or more identical repetitions, medians) and reports the
//! end-to-end metrics; with `--trace 1` the *sim pass* (one untraced and
//! one `Phases`-traced repetition, then the per-layer kernels) and
//! reports the per-layer metrics. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`. See README.md.

mod clock;
mod compare;
mod json;
mod kernels;
mod load;
mod names;
mod report;
mod run;
mod spans;
mod stats;
mod workloads;

use perpetual_ws::TraceLevel;
use report::Report;
use run::{RunResult, RunSpec, Workload};
use spans::Spans;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The seed of the committed baseline.
const DEFAULT_SEED: u64 = 2007;
/// Host-pass repetitions: the fewest that give a median and a spread.
const MIN_REPS: usize = 3;
/// Host-pass spread (max − min) ÷ median beyond which the host metrics
/// are printed as `unresolved`.
const MAX_HOST_SPREAD: f64 = 0.05;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ledger --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       \
         ledger --compare A.json B.json\n       ledger --benchmark-json",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Option<Args> {
    let mut args = Args {
        workload: Workload::NullRpc,
        seed: DEFAULT_SEED,
        seconds: names::RUN_SECONDS as f64,
        trace: false,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => args.seed = value.parse().ok()?,
            "--seconds" => args.seconds = value.parse().ok().filter(|s| *s > 0.0)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    args.workload = workload?;
    Some(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--benchmark-json") if argv.len() == 1 => {
            print!("{}", names::benchmark_json());
            ExitCode::SUCCESS
        }
        Some("--compare") if argv.len() == 3 => compare::main(&argv[1], &argv[2]),
        _ => match parse_args(&argv) {
            Some(args) => bench(&args),
            None => usage(),
        },
    }
}

fn bench(args: &Args) -> ExitCode {
    let mut spans = Spans::new();
    let mut report = Report::new(args.workload, args.seed);
    if args.trace {
        sim_pass(args, &mut spans, &mut report);
    } else {
        host_pass(args, &mut spans, &mut report);
    }
    if args.workload == Workload::ShardedMix {
        exact_once_side_run(args.seed, &mut report);
    }
    report.finish(args.trace, &spans)
}

/// Repetitions of one spec must agree on the op counts, every sim-clock
/// end-to-end value and (absent view changes) the event digest, at any
/// trace level.
fn check_identical(reps: &[RunResult], report: &mut Report) {
    for (i, r) in reps.iter().enumerate().skip(1) {
        if r.identity() != reps[0].identity() {
            report.fail(format!(
                "repetition {i} diverged from repetition 0: {:?} vs {:?}",
                r.identity(),
                reps[0].identity()
            ));
        }
        if r.digest_repeats() && r.digest != reps[0].digest {
            report.fail(format!(
                "repetition {i} digest {:#x} differs from repetition 0's {:#x}",
                r.digest, reps[0].digest
            ));
        }
    }
    for f in reps.iter().flat_map(|r| &r.failures) {
        report.fail(f.clone());
    }
}

/// Tracing off, at least [`MIN_REPS`] identical repetitions, then more
/// while they fit in `--seconds`; `host_ops_per_cpu_s` is the best of them
/// and `setup_s` their median.
fn host_pass(args: &Args, spans: &mut Spans, report: &mut Report) {
    let spec = RunSpec::standard(args.workload, args.seed, TraceLevel::Off);
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut reps: Vec<RunResult> = Vec::new();
    // Peak memory of one repetition: read after the first, so it does not
    // depend on how many repetitions `--seconds` allows.
    let mut peak_rss_mb = None;
    loop {
        let rep_started = Instant::now();
        let span = spans.open("rep");
        reps.push(run::run(&spec, spans));
        spans.close(span);
        peak_rss_mb = peak_rss_mb.or_else(clock::peak_rss_mb);
        if reps.len() >= MIN_REPS && started.elapsed() + rep_started.elapsed() > budget {
            break;
        }
    }
    check_identical(&reps, report);

    let per_cpu_s: Vec<f64> = reps
        .iter()
        .map(|r| r.ops as f64 / r.measure_cpu_s)
        .collect();
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_cpu_s).collect();
    let first = &reps[0];
    report.counts(first.attempted, first.failed);
    report.samples(first.latencies_ms.len());
    for &(name, value) in &first.sim {
        report.metric(name, value);
    }
    // Interference from the box's other tenants only ever adds CPU time
    // (a busy sibling hyperthread, a thrashed cache), in episodes that can
    // outlast a repetition. The least-disturbed repetition is therefore the
    // estimator; the spread says how disturbed the run was.
    report.host_metric(
        "host_ops_per_cpu_s",
        per_cpu_s.iter().copied().fold(f64::MIN, f64::max),
        stats::spread(&per_cpu_s),
        MAX_HOST_SPREAD,
    );
    report.metric("host_peak_rss_mb", peak_rss_mb.unwrap_or(0.0));
    report.host_metric(
        "setup_s",
        stats::median(&setups),
        stats::spread(&setups),
        f64::INFINITY,
    );
    report.note(format!(
        "host pass: {} repetitions; measured CPU-s each: {}",
        reps.len(),
        reps.iter()
            .map(|r| format!("{:.3}", r.measure_cpu_s))
            .collect::<Vec<_>>()
            .join(" ")
    ));
}

/// One untraced and one `Phases` repetition (their CPU ratio is the
/// tracing overhead), the trace export, then the kernels.
fn sim_pass(args: &Args, spans: &mut Spans, report: &mut Report) {
    let mut rep = |trace: TraceLevel, span: &str| {
        let span = spans.open(span);
        let r = run::run(&RunSpec::standard(args.workload, args.seed, trace), spans);
        spans.close(span);
        r
    };
    let off = rep(TraceLevel::Off, "rep.off");
    let mut traced = rep(TraceLevel::Phases, "rep.phases");
    report.counts(traced.attempted, traced.failed);
    report.samples(traced.latencies_ms.len());
    for &(name, value) in &traced.sim {
        report.metric(name, value);
    }
    report.metric(
        "simnet.events_per_cpu_s",
        off.window_events as f64 / off.measure_cpu_s,
    );
    report.metric(
        "obs.trace_overhead_x",
        traced.measure_cpu_s / off.measure_cpu_s,
    );
    if let Some(trace) = traced.trace_json.take() {
        report.artifact(format!("TRACE_{}.json", args.workload.name()), trace);
    }
    check_identical(&[off, traced], report);

    let span = spans.open("kernels");
    // A kernel batch is a fixed slice of the run's budget: 15 batches of
    // some 35 kernels fit in about a third of `--seconds`.
    let batch = Duration::from_secs_f64(args.seconds / 1500.0);
    let results = kernels::Kernels::new(spans, batch).run_all(args.seed);
    spans.close(span);
    for (name, value) in results {
        report.metric(name, value);
    }
}

/// The exact form of the exactly-once audit, on a finite run of the same
/// 4 × 4 transactional mix that is driven to quiescence: applications =
/// single-key requests + 2 keys per commit, and nothing aborts.
fn exact_once_side_run(seed: u64, report: &mut Report) {
    let (callers, per_caller) = (4u64, 120u64);
    let mix = pws_bench::run_sharded_mixed(4, 4, callers as u32, per_caller, 8, 10, seed);
    let total = callers * per_caller;
    if mix.completed != total
        || mix.commits == 0
        || mix.aborts != 0
        || mix.applied != total + mix.commits
    {
        report.fail(format!(
            "exactly-once side run: {} of {total} completed, {} committed, {} aborted, \
             {} applied",
            mix.completed, mix.commits, mix.aborts, mix.applied
        ));
    }
}
