//! `sns-perfbench`: the layered end-to-end benchmark of the SliceNStitch
//! workspace. See `perfbench/README.md` for the workloads, the metrics,
//! and which layer each metric watches.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <taxi-serial|fleet-bulk|fleet-trickle> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run's provenance, every metric by name with its unit (and
//! sample counts behind percentiles), every correctness check, and as the
//! last line one JSON object `{"correct", "attempted", "failed",
//! "metrics"}` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Exits non-zero if any check fails.

mod fleet;
mod inputs;
mod layers;
mod probe;
mod report;
mod serial;
mod stats;
mod trace;

use report::{Report, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;

/// Fallible result with a human-readable error.
pub type Res<T> = Result<T, String>;

/// Directory (relative to the working directory) for run artifacts:
/// per-run WAL/checkpoint scratch (deleted at exit), reports, spans.
const OUT_DIR: &str = ".perfbench-out";

/// The workloads; see README.md for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One serial SNS⁺_RND engine, paper protocol.
    TaxiSerial,
    /// Shipped-config pool, many small tenants, closed loop.
    FleetBulk,
    /// Shipped-config pool, taxi tenants, open loop with reads.
    FleetTrickle,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "taxi-serial" => Some(Workload::TaxiSerial),
            "fleet-bulk" => Some(Workload::FleetBulk),
            "fleet-trickle" => Some(Workload::FleetTrickle),
            _ => None,
        }
    }

    /// Passes per run: each sets up, measures, checks, and recovers
    /// (see [`combine`]). The fleets replay one plan in every pass;
    /// `taxi-serial` takes a stream of its own per pass.
    pub fn passes(self) -> usize {
        match self {
            Workload::TaxiSerial => 9,
            Workload::FleetBulk => 7,
            Workload::FleetTrickle => 8,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::TaxiSerial => "taxi-serial",
            Workload::FleetBulk => "fleet-bulk",
            Workload::FleetTrickle => "fleet-trickle",
        }
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured-phase length the inputs are sized for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Res<Args> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(|| bad("workload"))?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad("seconds"))?),
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace,
    })
}

/// The generated input of one workload.
enum Input {
    /// One stream per pass, generated when the pass starts (so only one
    /// is ever held): the workload seed and the length of one pass.
    Serial(u64, f64),
    /// One plan every pass replays.
    Fleet(fleet::Plan),
}

/// The input of the passes, each sized so the passes together measure
/// for about `args.seconds` on the reference host.
fn make_input(args: &Args) -> Input {
    let seconds = args.seconds / args.workload.passes() as f64;
    match args.workload {
        Workload::TaxiSerial => Input::Serial(args.seed, seconds),
        Workload::FleetBulk => Input::Fleet(fleet::bulk_plan(args.seed, seconds)),
        Workload::FleetTrickle => Input::Fleet(fleet::trickle_plan(args.seed, seconds)),
    }
}

/// Folds passes into one report. Model quality (`fitness`,
/// `fitness_rel`) is the mean over passes. Every other metric is the
/// **better quartile** of its per-pass values (the 25th percentile where
/// lower is better, the 75th where higher is better): load from other
/// tenants of the host only ever slows a pass, so this estimates the
/// cost on a quiet host without resting on the single luckiest pass.
/// Checks and operation counts are kept from every pass; facts and
/// sample counts (which are per pass) come from the first.
fn combine(passes: Vec<Report>) -> Report {
    let n = passes.len();
    let mut out = Report::default();
    if let Some(first) = passes.first() {
        out.series = first.series.clone();
        out.facts = first.facts.clone();
        out.not_applicable = first.not_applicable.clone();
        for &(name, _) in &first.metrics {
            let values: Vec<f64> = passes.iter().filter_map(|p| p.get(name)).collect();
            let value = match name {
                "fitness" | "fitness_rel" => stats::mean(&values),
                _ if report::higher_is_better(name) => stats::quantile(&values, 0.75),
                _ => stats::quantile(&values, 0.25),
            };
            out.set(name, value);
            if n > 1 && END_TO_END.iter().any(|&(e, _)| e == name) {
                let listed: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
                out.fact(&format!("per_pass.{name}"), listed.join(" "));
            }
        }
        for (i, series) in first.series.iter().enumerate() {
            for &(name, p) in &series.percentiles {
                let beyond = passes
                    .iter()
                    .filter_map(|r| r.series.get(i))
                    .map(|s| stats::beyond(&s.values, p));
                out.fact(&format!("min_beyond_per_pass.{name}"), beyond.min().unwrap_or(0));
            }
        }
    }
    out.fact("passes", n);
    for (i, p) in passes.into_iter().enumerate() {
        out.attempted += p.attempted;
        out.failed += p.failed;
        out.checks.extend(p.checks.into_iter().map(|mut c| {
            if n > 1 {
                c.detail = format!("pass {}: {}", i + 1, c.detail);
            }
            c
        }));
    }
    out
}

/// Measured pass `i` over `input`, traced or not.
fn pass(input: &Input, i: usize, dir: &Path, tracer: &Arc<Tracer>) -> Res<Report> {
    match input {
        &Input::Serial(seed, seconds) => serial::run(&serial::input(seed, i, seconds), tracer),
        Input::Fleet(plan) => fleet::run(plan, dir, tracer),
    }
}

/// Runs the workload: its untraced passes, or with `--trace 1` one
/// untraced and one traced pass (whose `tuples_per_s` ratio gives
/// `trace.overhead`). Returns the report and, when traced, the spans.
pub fn run(args: &Args, dir: &Path) -> Res<(Report, Option<Arc<Tracer>>)> {
    let probe_before = probe::host_probe_ms();
    let start = Instant::now();
    let input = make_input(args);
    let input_s = start.elapsed().as_secs_f64();
    let plain = Arc::new(Tracer::new(false));
    let passes = if args.trace { 1 } else { args.workload.passes() };
    let base = combine(
        (0..passes)
            .map(|i| pass(&input, i, &dir.join(format!("pass-{i}")), &plain))
            .collect::<Res<Vec<_>>>()?,
    );
    let (mut report, spans) = if args.trace {
        let tracer = Arc::new(Tracer::new(true));
        let mut traced = pass(&input, 0, &dir.join("traced"), &tracer)?;
        let ratio =
            traced.get("tuples_per_s").unwrap_or(0.0) / base.get("tuples_per_s").unwrap_or(1.0);
        traced.set("trace.overhead", ratio - 1.0);
        traced.attempted += base.attempted;
        traced.failed += base.failed;
        traced.checks.extend(base.checks.iter().cloned().map(|mut c| {
            c.detail = format!("(untraced pass) {}", c.detail);
            c
        }));
        (traced, Some(tracer))
    } else {
        (base, None)
    };
    report.set("peak_rss_mb", probe::peak_rss_mb());
    report.fact(
        "host_probe_ms",
        format!("{probe_before:.2} before, {:.2} after", probe::host_probe_ms()),
    );
    if let Input::Fleet(plan) = &input {
        let tuples: usize = plan.tenants.iter().map(|t| t.live.len()).sum();
        report.fact("streams", plan.tenants.len());
        report.fact("live_tuples", tuples);
        report.fact("input_generation_s", format!("{input_s:.3}"));
    }
    Ok((report, spans))
}

fn provenance(report: &mut Report, args: &Args) {
    let mut facts = vec![
        ("workload", args.workload.name().to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("cores", probe::cores().to_string()),
        ("rustc", probe::rustc_version()),
        ("git_commit", probe::git_commit()),
    ];
    match args.workload {
        Workload::TaxiSerial => {
            facts.push(("config", "serial SnsEngine (SNS+_RND), no pool, no journal".to_string()));
            facts.push(("serial_rate_nominal", serial::SERIAL_RATE.to_string()));
        }
        Workload::FleetBulk | Workload::FleetTrickle => {
            facts.push((
                "config",
                format!(
                    "EnginePool shards={} quarantine=Rollback journal=WalSet queue_depth=default",
                    fleet::SHARDS
                ),
            ));
            facts.push((
                "durability",
                "WalSet writes each record to the page cache and fsyncs only on rotate/drop: \
                 journal costs here are page-cache costs, not disk flushes"
                    .to_string(),
            ));
        }
    }
    match args.workload {
        Workload::FleetBulk => facts.push(("bulk_rate_nominal", fleet::BULK_RATE.to_string())),
        Workload::FleetTrickle => {
            facts.push(("offered_rate_tuples_per_s", fleet::TRICKLE_RATE.to_string()));
            facts.push(("receipt_poll_us", fleet::POLL.as_micros().to_string()));
        }
        Workload::TaxiSerial => {}
    }
    let mut rest = std::mem::take(&mut report.facts);
    report.facts = facts.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    report.facts.append(&mut rest);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sns-perfbench: {e}");
            eprintln!("usage: --workload <taxi-serial|fleet-bulk|fleet-trickle> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let out = PathBuf::from(OUT_DIR);
    let tag = format!("{}-s{}-t{}", args.workload.name(), args.seed, u8::from(args.trace));
    let scratch = out.join(format!("{tag}-{}", std::process::id()));
    let outcome = run(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let (mut report, spans) = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sns-perfbench: {tag} failed: {e}");
            let mut r = Report::default();
            r.check("run_completed", false, e);
            (r, None)
        }
    };
    provenance(&mut report, &args);
    if std::fs::create_dir_all(&out).is_ok() {
        let _ = std::fs::write(out.join(format!("{tag}.json")), report.to_json());
        if let Some(tracer) = spans {
            let _ = tracer.write_jsonl(&out.join(format!("{tag}-spans.jsonl")));
        }
    }
    print!("{}", report.render(&tag));
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let line = report.result_json(names);
    println!("{line}");
    std::process::exit(if line.starts_with("{\"correct\": true") { 0 } else { 1 });
}

#[cfg(test)]
mod tests;
