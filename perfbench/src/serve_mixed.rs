//! `serve-mixed`: one client in a closed loop sends protocol `verify`
//! lines to an in-process `alive_serve::Server` running the daemon's CI
//! profile. Most requests resubmit corpus entries verbatim, with their
//! registers renamed, or with commutative operands reordered; a fixed
//! share per round are fresh generated transforms that miss the store.

use crate::layers::{self, Recorder, CALL_SPAN, PARSE_SPAN};
use crate::measure::{BestOf, Digest, Setups};
use crate::{Args, Report};
use alive::fuzz::{case_seed, gen_case, paranoid_audit, GenConfig, OracleConfig};
use alive::ir::ast::{BinOp, ICmpPred, Inst};
use alive::serve::proto::{json_escape, parse_response, Response, VerdictLine};
use alive::serve::{ServeConfig, ServeLimits, Server};
use alive::suite::SuiteEntry;
use alive::trace::Tracer;
use alive::verifier::DriverConfig;
use alive::{Transform, VerifyConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const WORKLOAD: &str = "serve-mixed";
/// Set-up repetitions: each pays a full cold pass, so there are few.
const SETUP_REPS: usize = 5;
/// The corpus entry of skew rank `r` is sent `1 + SKEW / (r + 1)` times
/// per round: every entry at least once, the most popular 65 times.
const SKEW: usize = 64;
/// Fresh generated transforms per round; each one misses the store.
const FRESH_PER_ROUND: u64 = 5;
/// Rounds in a cycle. A timed phase repeats one cycle, each time on a
/// fresh copy of the cold-pass store, so every request of the cycle
/// meets the same store state every time (its fresh transforms miss
/// again), and the live store, with the memory that holds it, does not
/// grow with the number of cycles a run fits in.
const CYCLE_ROUNDS: u64 = 10;
/// The canonicalizer enumerates the commutation orbit of transforms with
/// at most this many commutative sites (docs/SERVING.md); only those are
/// sent reordered, so that a reordered request is meant to hit the store.
const MAX_ORBIT_SITES: usize = 8;
/// Mixed into the seed for the per-round request order and renamings.
const ROUND_STREAM: u64 = 0x726f_756e_6473;

/// The daemon's CI profile: fast widths, conflict budget 50, two
/// retries. No per-request deadline, so every verdict is a fixed
/// function of the build.
fn config(store_path: PathBuf, tracer: Tracer) -> ServeConfig {
    ServeConfig {
        driver: DriverConfig {
            verify: VerifyConfig::fast(),
            conflict_budget: Some(50),
            max_retries: 2,
            ..DriverConfig::default()
        },
        store_path,
        tracer,
        limits: ServeLimits {
            request_timeout: None,
            ..ServeLimits::default()
        },
        ..ServeConfig::default()
    }
}

/// Fresh transforms come from the fuzzer's generator at widths up to 4
/// and without `undef` operands. At its defaults (widths up to 8, some
/// `undef`) about one generated transform in 5,000 exhausts the conflict
/// budget, and which one does depends on the seed; see README.md.
fn fresh_config() -> GenConfig {
    GenConfig {
        max_width: 4,
        undef_prob: 0.0,
        ..GenConfig::default()
    }
}

fn open(store_path: &Path, tracer: Tracer) -> Server {
    Server::open(config(store_path.to_path_buf(), tracer))
        .unwrap_or_else(|e| panic!("open verdict store {}: {e}", store_path.display()))
        .0
}

fn verify_line(id: &str, text: &str) -> String {
    format!(
        "{{\"op\":\"verify\",\"id\":\"{id}\",\"text\":\"{}\"}}",
        json_escape(text)
    )
}

/// Sends one line and returns the single response it produced.
fn send(server: &Server, line: &str, calls: &mut BestOf, tracer: &Tracer) -> Response {
    let mut out = Vec::with_capacity(512);
    calls
        .time(|| {
            let _span = tracer.span(CALL_SPAN);
            server.handle_line(line, &mut out)
        })
        .expect("writing to memory cannot fail");
    let text = String::from_utf8(out).expect("responses are UTF-8");
    parse_response(text.trim_end()).unwrap_or_else(|e| panic!("unparseable response {text:?}: {e}"))
}

/// Checks a corpus-derived answer against the entry's label. Returns
/// whether the request succeeded.
fn check_corpus(entry: &SuiteEntry, verbatim: bool, response: &Response) -> Result<bool, String> {
    let Response::Verdict(v) = response else {
        return Ok(false);
    };
    if verbatim && !v.cached {
        return Err(format!(
            "verbatim resubmission of {} missed the store",
            entry.name
        ));
    }
    match v.verdict.as_str() {
        "valid" | "invalid" => {
            if (v.verdict == "invalid") != entry.expected_bug {
                return Err(format!(
                    "{} answered {} but the corpus labels it {}",
                    entry.name,
                    v.verdict,
                    if entry.expected_bug {
                        "a bug"
                    } else {
                        "correct"
                    }
                ));
            }
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// Store open, cold pass over the corpus, close and reopen.
fn set_up(store_path: &Path, corpus: &[SuiteEntry], lines: &[String]) -> Result<(), String> {
    if let Some(dir) = store_path.parent() {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let server = open(store_path, Tracer::disabled());
    let mut calls = BestOf::new(lines.len());
    for (entry, line) in corpus.iter().zip(lines) {
        let response = send(&server, line, &mut calls, &Tracer::disabled());
        check_corpus(entry, false, &response)?;
    }
    drop(server);
    drop(open(store_path, Tracer::disabled()));
    Ok(())
}

/// The live verdict store: a fresh copy of the cold-pass store for every
/// cycle.
struct Live {
    pristine: PathBuf,
    dir: PathBuf,
    tracer: Tracer,
}

impl Live {
    /// Replaces the live store by a fresh copy and opens a server on it.
    /// Returns the server and how long the open took.
    fn open(&self) -> Result<(Server, Duration), String> {
        let _ = std::fs::remove_dir_all(&self.dir);
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("create {}: {e}", self.dir.display()))?;
        let path = self.dir.join("store.jsonl");
        std::fs::copy(&self.pristine, &path).map_err(|e| format!("copy store: {e}"))?;
        let start = Instant::now();
        let server = open(&path, self.tracer.clone());
        Ok((server, start.elapsed()))
    }
}

/// Renames every register of `text` consistently, to names drawn by
/// `rng`. `%u` is left alone: it is also the unsigned-remainder operator.
fn rename_registers(text: &str, rng: &mut StdRng) -> String {
    let is_name = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '.';
    let mut names: Vec<&str> = Vec::new();
    let mut tokens: Vec<(usize, usize)> = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let end = text[i + 1..]
                .find(|c: char| !is_name(c))
                .map_or(text.len(), |n| i + 1 + n);
            let name = &text[i + 1..end];
            if !name.is_empty() && name != "u" {
                tokens.push((i + 1, end));
                if !names.contains(&name) {
                    names.push(name);
                }
            }
            i = end.max(i + 1);
        } else {
            i += 1;
        }
    }
    let base = rng.gen_range(0..1000u32);
    let mut fresh: Vec<String> = (0..names.len())
        .map(|k| format!("v{}", base + k as u32))
        .collect();
    for k in (1..fresh.len()).rev() {
        fresh.swap(k, rng.gen_range(0..=k));
    }
    let mut out = String::with_capacity(text.len() + 8 * tokens.len());
    let mut last = 0;
    for (start, end) in tokens {
        out.push_str(&text[last..start]);
        let k = names
            .iter()
            .position(|n| *n == &text[start..end])
            .expect("every token was collected");
        out.push_str(&fresh[k]);
        last = end;
    }
    out.push_str(&text[last..]);
    out
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for k in (1..items.len()).rev() {
        items.swap(k, rng.gen_range(0..=k));
    }
}

/// Statements of `t` whose two operands may be swapped without changing
/// the optimization: `add`, `mul`, `and`, `or`, `xor` and `icmp eq`/`ne`
/// with distinct operands, as `alive::ir::canon` counts them.
fn commutative_sites(t: &Transform) -> Vec<(bool, usize)> {
    let mut sites = Vec::new();
    for (in_target, stmts) in [(false, &t.source), (true, &t.target)] {
        for (i, stmt) in stmts.iter().enumerate() {
            let commutes = match &stmt.inst {
                Inst::BinOp { op, a, b, .. } => {
                    matches!(
                        op,
                        BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
                    ) && a != b
                }
                Inst::ICmp { pred, a, b } => matches!(pred, ICmpPred::Eq | ICmpPred::Ne) && a != b,
                _ => false,
            };
            if commutes {
                sites.push((in_target, i));
            }
        }
    }
    sites
}

/// Swaps the operands of a seeded, non-empty subset of `t`'s commutative
/// sites and prints the result.
fn reorder_operands(t: &Transform, rng: &mut StdRng) -> String {
    let sites = commutative_sites(t);
    let mask = rng.gen_range(1..1u32 << sites.len());
    let mut out = t.clone();
    for (k, &(in_target, i)) in sites.iter().enumerate() {
        if mask & (1 << k) != 0 {
            let stmts = if in_target {
                &mut out.target
            } else {
                &mut out.source
            };
            if let Inst::BinOp { a, b, .. } | Inst::ICmp { a, b, .. } = &mut stmts[i].inst {
                std::mem::swap(a, b);
            }
        }
    }
    out.to_string()
}

/// How a corpus request is resubmitted: the three kinds docs/SERVING.md
/// names. Each takes exactly a third of a round's corpus requests; the
/// shares are not measured, see README.md.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Variant {
    Verbatim,
    Renamed,
    Reordered,
}

enum Source {
    Corpus { entry: usize, variant: Variant },
    Fresh(Box<Transform>),
}

struct Request {
    line: String,
    source: Source,
}

/// The request mix: every round sends the same multiset of corpus
/// entries (so the failed share is the same in every run) in a seeded
/// order, a third of them each verbatim, renamed and reordered by a
/// seeded draw, plus `FRESH_PER_ROUND` generated transforms.
struct Mix {
    seed: u64,
    transforms: Vec<Transform>,
    texts: Vec<String>,
    /// Corpus index, once per request of a round.
    picks: Vec<usize>,
    /// Whether each corpus entry may be sent reordered.
    reorderable: Vec<bool>,
}

impl Mix {
    fn new(seed: u64, corpus: &[SuiteEntry]) -> Mix {
        // Skew ranks come from a hash of the entry name, not from the
        // seed, so the multiset is the same under every seed.
        let mut by_rank: Vec<usize> = (0..corpus.len()).collect();
        by_rank.sort_by_key(|&i| {
            let mut d = Digest::default();
            d.add(corpus[i].name.as_bytes());
            (d.0, i)
        });
        let mut picks = Vec::new();
        for (rank, &i) in by_rank.iter().enumerate() {
            picks.extend(std::iter::repeat_n(i, 1 + SKEW / (rank + 1)));
        }
        let reorderable: Vec<bool> = corpus
            .iter()
            .map(|e| (1..=MAX_ORBIT_SITES).contains(&commutative_sites(&e.transform).len()))
            .collect();
        let mix = Mix {
            seed,
            transforms: corpus.iter().map(|e| e.transform.clone()).collect(),
            texts: corpus.iter().map(|e| e.transform.to_string()).collect(),
            picks,
            reorderable,
        };
        let reorderable_picks = mix.picks.iter().filter(|&&i| mix.reorderable[i]).count();
        assert!(
            reorderable_picks >= mix.picks.len() / 3,
            "too few reorderable requests for a third of the round"
        );
        mix
    }

    /// A variant for every pick of a round: exactly a third of the picks
    /// each, reordered ones only among entries with commutative sites.
    fn variants(&self, rng: &mut StdRng) -> Vec<Variant> {
        let n = self.picks.len();
        let mut variants = vec![Variant::Renamed; n];
        let mut candidates: Vec<usize> = (0..n)
            .filter(|&k| self.reorderable[self.picks[k]])
            .collect();
        shuffle(&mut candidates, rng);
        for &k in &candidates[..n / 3] {
            variants[k] = Variant::Reordered;
        }
        let mut rest: Vec<usize> = (0..n)
            .filter(|&k| variants[k] != Variant::Reordered)
            .collect();
        shuffle(&mut rest, rng);
        for &k in &rest[..n / 3] {
            variants[k] = Variant::Verbatim;
        }
        variants
    }

    fn round(&self, index: u64, tracer: &Tracer) -> Vec<Request> {
        let mut rng = StdRng::seed_from_u64(case_seed(self.seed ^ ROUND_STREAM, index));
        let mut requests: Vec<(String, Source)> = Vec::new();
        for (&entry, variant) in self.picks.iter().zip(self.variants(&mut rng)) {
            let text = match variant {
                Variant::Verbatim => self.texts[entry].clone(),
                Variant::Renamed => rename_registers(&self.texts[entry], &mut rng),
                Variant::Reordered => reorder_operands(&self.transforms[entry], &mut rng),
            };
            requests.push((text, Source::Corpus { entry, variant }));
        }
        for j in 0..FRESH_PER_ROUND {
            let t = gen_case(self.seed, index * FRESH_PER_ROUND + j, &fresh_config());
            requests.push((t.to_string(), Source::Fresh(Box::new(t))));
        }
        shuffle(&mut requests, &mut rng);
        requests
            .into_iter()
            .enumerate()
            .map(|(k, (text, source))| {
                {
                    let _span = tracer.span(PARSE_SPAN);
                    if let Err(e) = alive::parse_transform(&text) {
                        panic!("generated request does not parse: {e}\n{text}");
                    }
                }
                Request {
                    line: verify_line(&format!("r{index}-{k}"), &text),
                    source,
                }
            })
            .collect()
    }
}

/// One timed phase.
struct Phase {
    calls: BestOf,
    /// Digest of the first cycle's verdicts; every cycle must repeat it.
    digest: Digest,
    /// Summed server-side timings of the phase's verdict lines, µs.
    canon_us: u64,
    lookup_us: u64,
    verify_us: u64,
    decode_us: u64,
    /// Store opens and their summed time.
    opens: u32,
    open_time: Duration,
    /// What the phase's servers counted.
    hits: u64,
    misses: u64,
    appends: u64,
    append_us: u64,
}

impl Phase {
    fn add_timing(&mut self, v: &VerdictLine, wall: Duration) {
        let parts = v.canon_us + v.lookup_us + v.queue_us + v.verify_us;
        self.canon_us += v.canon_us;
        self.lookup_us += v.lookup_us;
        self.verify_us += v.verify_us;
        self.decode_us += (wall.as_micros() as u64).saturating_sub(parts);
    }

    /// Adds what a server counted, before it is replaced.
    fn close(&mut self, server: Server) {
        let (stats, append) = (server.stats(), server.telemetry().append);
        self.hits += stats.hits;
        self.misses += stats.misses;
        self.appends += append.count;
        self.append_us += append.count * append.mean_us;
    }
}

/// Sends the cycle's requests, each time on a server opened on a fresh
/// copy of the store, until the calls add up to `run`; `None` sends the
/// cycle once. The first cycle's fresh verdicts are audited; every later
/// cycle must answer exactly as the first did.
fn cycles(
    live: &Live,
    cycle: &[Request],
    corpus: &[SuiteEntry],
    run: Option<Duration>,
    report: &mut Report,
) -> Result<Phase, String> {
    let mut phase = Phase {
        calls: BestOf::new(cycle.len()),
        digest: Digest::default(),
        canon_us: 0,
        lookup_us: 0,
        verify_us: 0,
        decode_us: 0,
        opens: 0,
        open_time: Duration::ZERO,
        hits: 0,
        misses: 0,
        appends: 0,
        append_us: 0,
    };
    loop {
        let (server, took) = live.open()?;
        phase.opens += 1;
        phase.open_time += took;
        let mut digest = Digest::default();
        // Fresh transforms with their decided verdicts.
        let mut fresh: Vec<(&Transform, String)> = Vec::new();
        for request in cycle {
            let response = send(&server, &request.line, &mut phase.calls, &live.tracer);
            let ok = match (&request.source, &response) {
                (Source::Corpus { entry, variant }, _) => {
                    check_corpus(&corpus[*entry], *variant == Variant::Verbatim, &response)?
                }
                (Source::Fresh(t), Response::Verdict(v)) => {
                    let decided = v.verdict == "valid" || v.verdict == "invalid";
                    if decided {
                        fresh.push((t, v.verdict.clone()));
                    }
                    decided
                }
                (Source::Fresh(_), _) => false,
            };
            report.tally(ok);
            if let Response::Verdict(v) = &response {
                phase.add_timing(v, phase.calls.last());
                digest.add(v.verdict.as_bytes());
            }
        }
        phase.close(server);
        phase.calls.end_round();
        if phase.opens == 1 {
            audit(&fresh)?;
            phase.digest = digest;
        } else if digest.0 != phase.digest.0 {
            return Err("a repeated cycle answered differently from the first".into());
        }
        if run.is_none_or(|run| phase.calls.total() >= run) {
            let _ = std::fs::remove_dir_all(&live.dir);
            return Ok(phase);
        }
    }
}

/// Brute-forces each fresh transform's verdict through the alive-opt
/// interpreter, outside the timed phase.
fn audit(fresh: &[(&Transform, String)]) -> Result<(), String> {
    let vcfg = VerifyConfig::fast();
    let ocfg = OracleConfig {
        check_certificates: false,
        ..OracleConfig::default()
    };
    for (t, verdict) in fresh {
        let kind = alive::verifier::OutcomeKind::from_label(verdict).expect("decided verdict");
        let result = paranoid_audit(t, kind, &[], &vcfg, &ocfg);
        if !result.is_clean() {
            return Err(format!(
                "fresh transform answered {verdict}, but the brute-force audit disagrees: {}\n{t}",
                result.disagreements.join("; ")
            ));
        }
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let corpus = alive::suite::full_corpus();
    let mix = Mix::new(args.seed, &corpus);
    let cold_lines: Vec<String> = mix
        .texts
        .iter()
        .enumerate()
        .map(|(i, text)| verify_line(&format!("cold-{i}"), text))
        .collect();
    // Each set-up gets its own directory: a store (and its lock file) is
    // never shared between two set-ups.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setups = Setups::default();
    let mut cold = PathBuf::new();
    for rep in 1..=reps {
        cold = args
            .work_dir
            .join(format!("setup{rep}"))
            .join("store.jsonl");
        setups.time(|| set_up(&cold, &corpus, &cold_lines))?;
    }
    // The timed phases serve copies of the store as the cold pass left
    // it, so their misses do not depend on how long a phase runs.
    let pristine = args.work_dir.join("cold.jsonl");
    std::fs::copy(&cold, &pristine).map_err(|e| format!("copy store: {e}"))?;
    for rep in 1..=reps {
        let _ = std::fs::remove_dir_all(args.work_dir.join(format!("setup{rep}")));
    }

    let cycle = |tracer: &Tracer| -> Vec<Request> {
        (0..CYCLE_ROUNDS)
            .flat_map(|index| mix.round(index, tracer))
            .collect()
    };
    let untraced_store = Live {
        pristine: pristine.clone(),
        dir: args.work_dir.join("live"),
        tracer: Tracer::disabled(),
    };
    let untraced = cycles(
        &untraced_store,
        &cycle(&Tracer::disabled()),
        &corpus,
        Some(args.run),
        &mut report,
    )?;
    if !args.trace {
        let _ = std::fs::remove_file(&pristine);
        report.set("setup_s", setups.median());
        untraced.calls.report(WORKLOAD, &mut report);
        return Ok(report);
    }

    // Traced: one cycle, so every counter is a fixed function of the
    // build and the seed.
    let recorder = Recorder::new();
    let traced_store = Live {
        pristine: pristine.clone(),
        dir: args.work_dir.join("traced"),
        tracer: recorder.tracer.clone(),
    };
    let (attempted, failed) = (report.attempted, report.failed);
    let traced = cycles(
        &traced_store,
        &cycle(&recorder.tracer),
        &corpus,
        None,
        &mut report,
    )?;
    let bytes = std::fs::metadata(&pristine).map_or(0, |m| m.len());
    let _ = std::fs::remove_file(&pristine);
    layers::print_phase(
        WORKLOAD,
        (report.attempted - attempted) as usize,
        report.failed - failed,
        traced.digest.0,
    );
    // Request decoding and response rendering lie outside the program's
    // `serve.request` span, so its spans cover about 95% of a call: the
    // figure is reported, not gated. See README.md.
    layers::report(&recorder, &mut report, WORKLOAD, false)?;
    layers::set_overhead(
        &mut report,
        untraced.calls.mean_per_second(),
        traced.calls.mean_per_second(),
    );
    let ms = |us: u64| us as f64 / 1000.0;
    report.set(
        "store.open_ms",
        traced.open_time.as_secs_f64() * 1000.0 / f64::from(traced.opens),
    );
    report.set("store.bytes", bytes as f64);
    report.set("ir.canon_ms", ms(traced.canon_us));
    report.set("store.lookup_ms", ms(traced.lookup_us));
    report.set("serve.verify_ms", ms(traced.verify_us));
    report.set("serve.decode_ms", ms(traced.decode_us));
    report.set("store.append_ms", ms(traced.append_us));
    report.set("store.appends", traced.appends as f64);
    report.set("serve.hits", traced.hits as f64);
    report.set("serve.misses", traced.misses as f64);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alive::verifier::verify_single;

    #[test]
    fn renamed_corpus_entries_parse_to_the_same_canonical_form() {
        let mut rng = StdRng::seed_from_u64(1);
        for entry in alive::suite::full_corpus() {
            let text = entry.transform.to_string();
            let renamed = rename_registers(&text, &mut rng);
            let t = alive::parse_transform(&renamed)
                .unwrap_or_else(|e| panic!("{}: {e}\n{renamed}", entry.name));
            assert_eq!(
                alive::ir::canonical_hash(&t),
                alive::ir::canonical_hash(&entry.transform),
                "{}:\n{renamed}",
                entry.name
            );
        }
    }

    /// A reordered request that the canonicalizer does not map onto the
    /// stored form misses the store and is verified again. Its outcome
    /// must match the stored one, or the failed share would depend on
    /// which operands a seed swaps.
    #[test]
    fn reordered_corpus_entries_that_miss_verify_alike() {
        let corpus = alive::suite::full_corpus();
        let mix = Mix::new(1, &corpus);
        let driver = config(PathBuf::new(), Tracer::disabled()).driver;
        let mut rng = StdRng::seed_from_u64(1);
        for (i, t) in mix.transforms.iter().enumerate() {
            if !mix.reorderable[i] {
                continue;
            }
            for _ in 0..4 {
                let reordered = reorder_operands(t, &mut rng);
                let parsed = alive::parse_transform(&reordered)
                    .unwrap_or_else(|e| panic!("{e}\n{reordered}"));
                if alive::ir::canonical_hash(&parsed) != alive::ir::canonical_hash(t) {
                    let name = &corpus[i].name;
                    assert_eq!(
                        verify_single(name, &parsed, &driver).kind,
                        verify_single(name, t, &driver).kind,
                        "\n{reordered}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_round_sends_the_same_corpus_multiset_in_thirds() {
        let corpus = alive::suite::full_corpus();
        let counts = |seed, index| {
            let mut counts = vec![0usize; corpus.len()];
            let mut variants = [0usize; 3];
            for request in Mix::new(seed, &corpus).round(index, &Tracer::disabled()) {
                if let Source::Corpus { entry, variant } = request.source {
                    counts[entry] += 1;
                    variants[variant as usize] += 1;
                }
            }
            (counts, variants)
        };
        assert_eq!(counts(1, 3), counts(2, 3));
        assert_eq!(counts(1, 3).0, counts(1, 4).0);
        assert_eq!(counts(1, 3).0.iter().sum::<usize>(), 504);
        assert_eq!(counts(1, 3).1, [168, 168, 168]);
        assert_eq!(counts(2, 4).1, [168, 168, 168]);
    }
}
