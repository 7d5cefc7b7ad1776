//! `verify-corpus`: one `verify_single` call per paper-corpus entry, in
//! corpus order, under a conflict-budget chain with no wall-clock
//! timeout, so every verdict is a fixed function of the build. A run
//! makes whole passes over the corpus; each entry reports its best pass.

use crate::layers::{self, Recorder, CALL_SPAN, PARSE_SPAN};
use crate::measure::{BestOf, Digest, Setups};
use crate::{Args, Report};
use alive::suite::SuiteEntry;
use alive::trace::Tracer;
use alive::verifier::{verify_single, DriverConfig, OutcomeKind, TransformOutcome};
use alive::VerifyConfig;
use std::time::Duration;

const WORKLOAD: &str = "verify-corpus";
/// Entries the corpus labels as the paper's Fig. 8 bugs.
const FIG8_BUGS: usize = 8;
/// Corpus parses timed between two passes for `setup_s`.
const SETUPS_PER_PASS: usize = 5;

/// Fast widths {4, 8}; conflict budget 50 with `DriverConfig`'s default
/// single retry at 8x (400). Each further level makes a pass several
/// times longer, and a run needs many passes for every entry's best time
/// to be steady; see README.md.
fn driver(tracer: Tracer) -> DriverConfig {
    let mut verify = VerifyConfig::fast();
    verify.ef.tracer = tracer;
    DriverConfig {
        verify,
        timeout: None,
        conflict_budget: Some(50),
        max_retries: 1,
        retry_multiplier: 8,
        ..DriverConfig::default()
    }
}

fn parse_corpus(tracer: &Tracer) -> Vec<SuiteEntry> {
    let _span = tracer.span(PARSE_SPAN);
    alive::suite::full_corpus()
}

/// Checks one outcome against the entry's hand-written label. Returns
/// whether the call succeeded; a decided verdict that contradicts the
/// label is a wrong output.
fn check(entry: &SuiteEntry, outcome: &TransformOutcome) -> Result<bool, String> {
    match outcome.kind {
        OutcomeKind::Valid | OutcomeKind::Invalid => {
            let found_bug = outcome.kind == OutcomeKind::Invalid;
            if found_bug != entry.expected_bug {
                return Err(format!(
                    "{} verified {} but the corpus labels it {}",
                    entry.name,
                    outcome.kind.as_str(),
                    if entry.expected_bug {
                        "a bug"
                    } else {
                        "correct"
                    }
                ));
            }
            Ok(true)
        }
        OutcomeKind::Unknown | OutcomeKind::Error | OutcomeKind::Hung => Ok(false),
    }
}

/// One timed phase: its calls and what their outcomes add to the
/// per-layer metrics.
struct Phase {
    calls: BestOf,
    attempts: u64,
    retried_conflicts: u64,
    first_attempt: u64,
    digest: Digest,
}

/// Verifies the corpus in whole passes until the calls add up to `run`,
/// calling `between` after each pass; `None` makes exactly one pass.
fn passes(
    corpus: &[SuiteEntry],
    config: &DriverConfig,
    run: Option<Duration>,
    between: &mut dyn FnMut(),
    report: &mut Report,
) -> Result<Phase, String> {
    let mut phase = Phase {
        calls: BestOf::new(corpus.len()),
        attempts: 0,
        retried_conflicts: 0,
        first_attempt: 0,
        digest: Digest::default(),
    };
    loop {
        for entry in corpus {
            let outcome = phase.calls.time(|| {
                let _span = config.verify.ef.tracer.span(CALL_SPAN);
                verify_single(&entry.name, &entry.transform, config)
            });
            report.tally(check(entry, &outcome)?);
            phase.digest.add(outcome.kind.as_str().as_bytes());
            let (retried, _last) = outcome.attempts.split_at(outcome.attempts.len() - 1);
            phase.attempts += outcome.attempts.len() as u64;
            phase.first_attempt += u64::from(retried.is_empty());
            phase.retried_conflicts += retried.iter().map(|a| a.conflicts).sum::<u64>();
        }
        phase.calls.end_round();
        between();
        if run.is_none_or(|run| phase.calls.total() >= run) {
            return Ok(phase);
        }
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setups = Setups::default();
    let corpus = setups.time(|| parse_corpus(&Tracer::disabled()));
    let bugs = corpus.iter().filter(|e| e.expected_bug).count();
    assert_eq!(bugs, FIG8_BUGS, "the corpus labels the eight Fig. 8 bugs");

    let untraced = passes(
        &corpus,
        &driver(Tracer::disabled()),
        Some(args.run),
        &mut || {
            for _ in 0..SETUPS_PER_PASS {
                setups.time(|| parse_corpus(&Tracer::disabled()));
            }
        },
        &mut report,
    )?;
    if !args.trace {
        report.set("setup_s", setups.median());
        untraced.calls.report(WORKLOAD, &mut report);
        return Ok(report);
    }

    // Traced: one pass, so every counter is a fixed function of the build.
    let recorder = Recorder::new();
    let corpus = parse_corpus(&recorder.tracer);
    let failed = report.failed;
    let traced = passes(
        &corpus,
        &driver(recorder.tracer.clone()),
        None,
        &mut || {},
        &mut report,
    )?;
    layers::print_phase(
        WORKLOAD,
        corpus.len(),
        report.failed - failed,
        traced.digest.0,
    );
    layers::report(&recorder, &mut report, WORKLOAD, true)?;
    layers::set_overhead(
        &mut report,
        untraced.calls.mean_per_second(),
        traced.calls.mean_per_second(),
    );
    let calls = corpus.len() as f64;
    report.set("verifier.attempts", traced.attempts as f64);
    report.set(
        "verifier.retried_conflicts",
        traced.retried_conflicts as f64,
    );
    report.set(
        "verifier.first_attempt_share",
        traced.first_attempt as f64 / calls * 100.0,
    );
    Ok(report)
}
