//! `annsbench`: the serving benchmark of the limited-adaptivity ANNS
//! workspace. See `README.md` beside this crate for the workloads, the
//! metrics and what each layer metric is predicted to move.
//!
//! ```text
//! cargo run --release --manifest-path annsbench/Cargo.toml -- \
//!     --workload solo-distinct|engine-hot|wire-closed --seed N --seconds S --trace 0|1
//! ```
//!
//! Every line but the last is a human-readable report; the last line is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`).

mod fixture;
mod host;
mod judge;
mod layers;
mod traced;
mod workloads;

use std::process::ExitCode;

use fixture::{Backend, SetupTimes};
use workloads::Measured;

const USAGE: &str = "usage: annsbench --workload solo-distinct|engine-hot|wire-closed \
                     --seed N --seconds S --trace 0|1";

#[derive(Clone, Copy)]
pub enum Kind {
    SoloDistinct,
    EngineHot,
    WireClosed,
}

impl Kind {
    fn parse(name: &str) -> Result<Kind, String> {
        match name {
            "solo-distinct" => Ok(Kind::SoloDistinct),
            "engine-hot" => Ok(Kind::EngineHot),
            "wire-closed" => Ok(Kind::WireClosed),
            other => Err(format!("unknown workload {other:?}")),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::SoloDistinct => "solo-distinct",
            Kind::EngineHot => "engine-hot",
            Kind::WireClosed => "wire-closed",
        }
    }
}

pub struct Args {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Human-readable lines: layer timings measured only where a layer
    /// runs, reconciliations, context.
    pub notes: Vec<String>,
    /// Failed checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Values that must repeat exactly for one seed (the self-check).
    pub exact: Vec<(String, String)>,
}

impl Report {
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// The end-to-end metrics of one measured phase. `judged` answers were
/// checked off the clock, `ok` of them held.
pub fn end_to_end(m: &Measured, setups: &[SetupTimes], ok: u64, judged: u64) -> Vec<Metric> {
    let mut setup: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    vec![
        metric("setup_s", median(&mut setup), "s"),
        metric("throughput_qps", m.throughput_qps(), "1/s"),
        metric("latency_p50_us", m.latency_us(0.5), "us"),
        metric("cpu_us_per_query", m.cpu_us_per_query(), "us"),
        metric("rss_mb", m.rss_mb(), "MiB"),
        metric("answer_ok_frac", ok as f64 / judged.max(1) as f64, "frac"),
    ]
}

/// The JSON `metrics` object. A non-finite value, which JSON cannot
/// hold, is written as 0; the caller marks such a run incorrect.
fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn run(args: &Args) -> Result<Report, String> {
    let ds = fixture::dataset();
    let work = std::env::current_exe()
        .map_err(|e| format!("cannot locate the benchmark binary: {e}"))?
        .parent()
        .ok_or("the benchmark binary has no parent directory")?
        .join("annsbench-work");
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let path = work.join(format!("{}-{}.anns", args.kind.name(), std::process::id()));
    let backend = match args.kind {
        Kind::WireClosed => Backend::Mmap,
        Kind::SoloDistinct | Kind::EngineHot => Backend::Heap,
    };
    let result =
        fixture::setup_repeated(&ds, backend, &path).and_then(|(bundle, setups)| match args.kind {
            Kind::SoloDistinct => layers::solo_distinct(args, &ds, bundle, &setups),
            Kind::EngineHot => layers::engine_hot(args, &ds, bundle, &setups),
            Kind::WireClosed => layers::wire_closed(args, &ds, bundle, &setups),
        });
    let _ = std::fs::remove_file(&path);
    result
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("annsbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let stamp = host::HostStamp::start();
    let report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("annsbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# host {}", stamp.finish());
    for note in &report.notes {
        println!("# {note}");
    }
    let shown = if args.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    for m in shown {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    let exact: Vec<String> = report
        .exact
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("# exact {{{}}}", exact.join(", "));
    for problem in &report.problems {
        println!("# FAILED CHECK: {problem}");
    }
    let finite = shown.iter().all(|m| m.value.is_finite());
    let correct = report.problems.is_empty() && finite;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted.max(1),
        report.failed,
        json_metrics(shown)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
