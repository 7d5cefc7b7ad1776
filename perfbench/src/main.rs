//! `perfbench` — the end-to-end and per-layer benchmark of the alive
//! toolchain. One invocation runs one workload in its own process:
//!
//! ```text
//! perfbench --workload <verify-corpus|serve-mixed|peephole-pass>
//!           [--seed N] [--seconds S] [--trace 0|1] [--work-dir DIR]
//! perfbench --list-metrics
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Untraced runs (`--trace 0`)
//! report the end-to-end metrics; traced runs (`--trace 1`) report the
//! per-layer metrics. A wrong output (a wrong verdict, a rewrite that does
//! not refine its input, a verbatim resubmission that misses the store)
//! ends the run with exit code 1 and no result line. See README.md.

mod layers;
mod measure;
mod peephole_pass;
mod serve_mixed;
mod verify_corpus;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// One reported metric: name, unit, and which direction is better.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Printed by every untraced run.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("calls_per_s", "1/s", "higher"),
    m("call_p50_ms", "ms", "lower"),
    m("call_p95_ms", "ms", "lower"),
];

/// Printed by every traced run; a layer a workload does not exercise
/// reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    m("ir.parse_ms", "ms", "lower"),
    m("ir.canon_ms", "ms", "lower"),
    m("typeck.ms", "ms", "lower"),
    m("typeck.typings", "count", "lower"),
    m("vcgen.encode_ms", "ms", "lower"),
    m("smt.blast_ms", "ms", "lower"),
    m("smt.gates", "count", "lower"),
    m("smt.gates_muldiv", "count", "lower"),
    m("smt.cegis_rounds", "count", "lower"),
    m("sat.ms", "ms", "lower"),
    m("sat.calls", "count", "lower"),
    m("sat.conflicts", "count", "lower"),
    m("sat.propagations", "count", "lower"),
    m("sat.decisions", "count", "lower"),
    m("sat.restarts", "count", "lower"),
    m("verifier.attempts", "count", "lower"),
    m("verifier.retried_conflicts", "count", "lower"),
    m("verifier.first_attempt_share", "%", "higher"),
    m("verifier.check_ms", "ms", "lower"),
    m("store.open_ms", "ms", "lower"),
    m("store.bytes", "bytes", "lower"),
    m("store.lookup_ms", "ms", "lower"),
    m("store.append_ms", "ms", "lower"),
    m("store.appends", "count", "lower"),
    m("serve.hits", "count", "higher"),
    m("serve.misses", "count", "lower"),
    m("serve.decode_ms", "ms", "lower"),
    m("serve.verify_ms", "ms", "lower"),
    m("opt.pass_ms", "ms", "lower"),
    m("opt.visited", "count", "lower"),
    m("opt.sweeps", "count", "lower"),
    m("opt.rewrites", "count", "higher"),
    m("opt.fire_share", "%", "higher"),
    m("opt.cost", "cost", "lower"),
    m("trace.coverage_pct", "%", "higher"),
    m("trace.overhead_pct", "%", "lower"),
];

pub const WORKLOADS: &[&str] = &["verify-corpus", "serve-mixed", "peephole-pass"];

/// Command-line settings shared by every workload.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Length of the untraced timed phase.
    pub run: Duration,
    pub trace: bool,
    /// Scratch space for the serve workload's verdict store.
    pub work_dir: PathBuf,
}

/// What a workload run produced. `metrics` holds the end-to-end metrics
/// of an untraced run, or the per-layer metrics of a traced one (peak
/// memory is added by `main`).
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Counts one operation; `ok == false` marks it failed.
    pub fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

const USAGE: &str = "usage: perfbench --workload <verify-corpus|serve-mixed|peephole-pass> \
                     [--seed N] [--seconds S] [--trace 0|1] [--work-dir DIR] | --list-metrics";

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        run: Duration::from_secs(20),
        trace: false,
        work_dir: PathBuf::from(format!(
            ".bench_build/perfbench-work-{}",
            std::process::id()
        )),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--list-metrics" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad(&"must lie in (0, 3600]"));
                }
                args.run = Duration::from_secs_f64(s);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--work-dir" => args.work_dir = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown or missing --workload {:?}", args.workload));
    }
    Ok(Some(args))
}

/// Peak resident memory of this process, from the kernel's `VmHWM`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn list_metrics() {
    for (kind, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        for metric in table {
            println!(
                "{{\"kind\": \"{kind}\", \"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                metric.name, metric.unit, metric.better
            );
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return list_metrics(),
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(64);
        }
    };
    let result = match args.workload.as_str() {
        "verify-corpus" => verify_corpus::run(&args),
        "serve-mixed" => serve_mixed::run(&args),
        _ => peephole_pass::run(&args),
    };
    let mut report = match result {
        Ok(report) => report,
        Err(wrong) => {
            eprintln!("perfbench: {}: wrong output: {wrong}", args.workload);
            std::process::exit(1);
        }
    };
    // The serve workload's scratch directories are gone by now; this
    // removes the default work directory only if it is empty.
    let _ = std::fs::remove_dir(&args.work_dir);
    let table = if args.trace {
        PER_LAYER
    } else {
        report.set("peak_rss_mb", peak_rss_mb());
        END_TO_END
    };
    let metrics: Vec<String> = table
        .iter()
        .map(|metric| {
            let value = match report.metrics.remove(metric.name) {
                Some(value) => value,
                None if args.trace => 0.0,
                None => panic!("{} did not report {}", args.workload, metric.name),
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            )
        })
        .collect();
    assert!(
        report.metrics.is_empty(),
        "metrics missing from the table: {:?}",
        report.metrics.keys().collect::<Vec<_>>()
    );
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}
