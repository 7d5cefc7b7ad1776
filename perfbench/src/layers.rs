//! The traced run: an in-memory trace of the program's own spans and
//! counters plus the benchmark's spans around each public call, folded
//! into per-layer self time the way `alive stats` folds a trace file.

use crate::Report;
use alive::trace::{EventKind, MemorySink, TraceEvent, TraceStats, Tracer};
use std::sync::Arc;

/// The benchmark's span around each timed call into the program. Its
/// self time is the part of a call no deeper span accounts for.
pub const CALL_SPAN: &str = "bench.call";
/// The benchmark's span around each parse of transform text.
pub const PARSE_SPAN: &str = "ir.parse";

/// Gates of these bit-vector operations make up `smt.gates_muldiv`.
const MULDIV_OPS: &[&str] = &["bvmul", "bvudiv", "bvsdiv", "bvurem", "bvsrem"];

/// Share of the timed calls' time the program's spans must cover.
const MIN_COVERAGE_PCT: f64 = 95.0;

/// A tracer that keeps every event in memory until the run ends.
pub struct Recorder {
    sink: Arc<MemorySink>,
    pub tracer: Tracer,
}

impl Recorder {
    pub fn new() -> Recorder {
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::new(Box::new(Arc::clone(&sink)));
        Recorder { sink, tracer }
    }

    /// Folds the events: all of them for `ir.parse_ms`, and those inside
    /// the timed calls' `bench.call` spans for everything else. The
    /// workloads trace only one thread.
    fn fold(&self) -> (TraceStats, TraceStats) {
        let events: Vec<TraceEvent> = self
            .sink
            .snapshot()
            .into_iter()
            .map(|e| TraceEvent {
                kind: e.kind,
                id: e.id,
                parent: e.parent,
                tid: e.tid,
                us: e.us,
                name: e.name.to_string(),
                arg: e.arg,
                value: e.value,
            })
            .collect();
        let mut in_call = false;
        let calls: Vec<TraceEvent> = events
            .iter()
            .filter(|e| {
                let is_call = e.name == CALL_SPAN;
                let keep = in_call || (is_call && e.kind == EventKind::Start);
                if is_call {
                    in_call = e.kind == EventKind::Start;
                }
                keep
            })
            .cloned()
            .collect();
        let all = TraceStats::from_events(&events).expect("spans nest");
        let timed = TraceStats::from_events(&calls).expect("spans nest");
        (all, timed)
    }
}

fn ms(us: u64) -> f64 {
    us as f64 / 1000.0
}

/// Sets the per-layer metrics the trace carries and prints the self-time
/// breakdown of the timed calls. `trace.coverage_pct` is the share of the
/// calls' time (the `bench.call` spans) that the program's own spans
/// account for; with `gate` set, a share below `MIN_COVERAGE_PCT` fails
/// the run. A workload whose calls emit no program spans passes `false`.
pub fn report(
    recorder: &Recorder,
    report: &mut Report,
    workload: &str,
    gate: bool,
) -> Result<(), String> {
    let (all, timed) = recorder.fold();
    let self_us = |name: &str| timed.phases.get(name).map_or(0, |p| p.self_us);
    let count = |name: &str| timed.phases.get(name).map_or(0, |p| p.count);
    let counter = |name: &str| timed.counters.get(name).copied().unwrap_or(0);

    report.set(
        "ir.parse_ms",
        ms(all.phases.get(PARSE_SPAN).map_or(0, |p| p.total_us)),
    );
    report.set("typeck.ms", ms(self_us("typeck")));
    report.set("typeck.typings", count("typing") as f64);
    report.set("vcgen.encode_ms", ms(self_us("encode")));
    report.set("smt.blast_ms", ms(self_us("blast")));
    report.set("smt.gates", counter("blast.gates") as f64);
    let muldiv: u64 = MULDIV_OPS
        .iter()
        .map(|op| counter(&format!("blast.gates.{op}")))
        .sum();
    report.set("smt.gates_muldiv", muldiv as f64);
    report.set("smt.cegis_rounds", counter("cegis.rounds") as f64);
    report.set("sat.ms", ms(self_us("sat.solve")));
    report.set("sat.calls", count("sat.solve") as f64);
    for name in [
        "sat.conflicts",
        "sat.propagations",
        "sat.decisions",
        "sat.restarts",
    ] {
        report.set(name, counter(name) as f64);
    }
    report.set("verifier.check_ms", ms(self_us("check-model")));

    let calls_us = timed.phases.get(CALL_SPAN).map_or(0, |p| p.total_us);
    let covered_us = timed.total_self_us() - self_us(CALL_SPAN);
    let coverage = covered_us as f64 / calls_us.max(1) as f64 * 100.0;
    report.set("trace.coverage_pct", coverage);
    println!(
        "{workload}: traced self time by span over {:.3}s of calls:",
        ms(calls_us) / 1e3
    );
    let mut rows: Vec<_> = timed.phases.iter().collect();
    rows.sort_by(|a, b| b.1.self_us.cmp(&a.1.self_us).then(a.0.cmp(b.0)));
    for (name, agg) in rows {
        println!(
            "  {name:<16} {:>10.3} ms  {:>6.2}%  ({} spans)",
            ms(agg.self_us),
            agg.self_us as f64 / calls_us.max(1) as f64 * 100.0,
            agg.count
        );
    }
    println!("{workload}: the program's spans cover {coverage:.1}% of the calls");
    if gate && coverage < MIN_COVERAGE_PCT {
        return Err(format!(
            "the program's spans cover {coverage:.1}% of the timed calls, below {MIN_COVERAGE_PCT}%"
        ));
    }
    Ok(())
}

/// Prints what the determinism self-check compares between two traced
/// runs besides the counters: the traced phase's failures and a digest of
/// its outputs.
pub fn print_phase(workload: &str, calls: usize, failed: u64, digest: u64) {
    println!("{workload}: traced phase: {calls} calls, {failed} failed, digest {digest:016x}");
}

/// `trace.overhead_pct`: how much slower the traced phase ran than the
/// untraced one, in calls per second as each workload estimates it.
pub fn set_overhead(report: &mut Report, untraced_per_s: f64, traced_per_s: f64) {
    report.set(
        "trace.overhead_pct",
        (untraced_per_s - traced_per_s) / untraced_per_s.max(1e-9) * 100.0,
    );
}
