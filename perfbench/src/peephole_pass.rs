//! `peephole-pass`: the paper's §6.4 compile-time and code-quality
//! proxy. A pass built from the corpus templates the matcher supports
//! runs on every function of a seeded module; each rewritten function
//! must refine the original on seeded inputs. A run optimizes fresh
//! copies of the same module in whole rounds; each function reports its
//! best round.

use crate::layers::{self, Recorder, CALL_SPAN, PARSE_SPAN};
use crate::measure::{BestOf, Digest, Setups};
use crate::{Args, Report};
use alive::ir::ast::BinOp;
use alive::opt::{generate_workload, Function, PassStats, Peephole, WorkloadConfig};
use alive::opt::{run as interpret, Exec, MInst, Outcome};
use alive::smt::BvVal;
use alive::trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

const WORKLOAD: &str = "peephole-pass";
/// Functions per module: about 11,000 instructions at the generator's
/// defaults.
const FUNCTIONS: usize = 300;
/// Interpreter inputs per function for the refinement check.
const INPUTS_PER_FUNCTION: usize = 8;
/// Pass builds timed between two rounds for `setup_s`.
const SETUPS_PER_ROUND: usize = 5;

/// Set-up: parse the corpus and build the pass from the templates the
/// matcher supports.
fn build_pass(tracer: &Tracer) -> (Vec<(String, alive::Transform)>, Peephole) {
    let templates = {
        let _span = tracer.span(PARSE_SPAN);
        bench::pass_templates()
    };
    let pass = Peephole::new(templates.clone());
    (templates, pass)
}

/// A seeded parameter vector, biased toward the edge values where
/// rewrites tend to go wrong.
fn random_args(f: &Function, rng: &mut StdRng) -> Vec<BvVal> {
    f.params
        .iter()
        .map(|&w| match rng.gen_range(0..6u32) {
            0 => BvVal::zero(w),
            1 => BvVal::ones(w),
            2 => BvVal::int_min(w),
            3 => BvVal::new(w, rng.gen_range(0..16u64) as u128),
            _ => BvVal::new(w, u128::from(rng.gen::<u64>())),
        })
        .collect()
}

/// Does `f` divide by a poison value on `args`? The interpreter folds such
/// a division to poison, but the verifier's semantics (and LLVM's) make it
/// undefined behaviour: a rewrite that drops a `nuw` may turn the poison
/// divisor into zero, and the interpreter would call that a miscompile.
fn divides_by_poison(f: &Function, args: &[BvVal]) -> bool {
    f.insts.iter().any(|inst| match inst {
        MInst::Bin {
            op: BinOp::UDiv | BinOp::SDiv | BinOp::URem | BinOp::SRem,
            b,
            ..
        } => {
            let mut divisor = f.clone();
            divisor.ret = *b;
            interpret(&divisor, args) == Outcome::Return(Exec::Poison)
        }
        _ => false,
    })
}

/// The module, its inputs, and the original functions' outcomes on them
/// (`Ub` where the original divides by poison, so that any result
/// refines it).
struct Inputs {
    module: Vec<Function>,
    args: Vec<Vec<Vec<BvVal>>>,
    expected: Vec<Vec<Outcome>>,
}

fn inputs(seed: u64, templates: &[(String, alive::Transform)]) -> Inputs {
    let config = WorkloadConfig {
        seed,
        functions: FUNCTIONS,
        ..WorkloadConfig::default()
    };
    let module = generate_workload(&config, templates);
    let mut rng = StdRng::seed_from_u64(alive::fuzz::case_seed(seed, 1));
    let args: Vec<Vec<Vec<BvVal>>> = module
        .iter()
        .map(|f| {
            (0..INPUTS_PER_FUNCTION)
                .map(|_| random_args(f, &mut rng))
                .collect()
        })
        .collect();
    let expected = module
        .iter()
        .zip(&args)
        .map(|(f, args)| {
            args.iter()
                .map(|a| {
                    if divides_by_poison(f, a) {
                        Outcome::Ub
                    } else {
                        interpret(f, a)
                    }
                })
                .collect()
        })
        .collect();
    Inputs {
        module,
        args,
        expected,
    }
}

/// One timed phase: its calls and the pass statistics of its last round.
struct Phase {
    calls: BestOf,
    stats: PassStats,
    cost: u64,
    digest: Digest,
}

/// Runs the pass on fresh copies of the module in whole rounds until the
/// calls add up to `run`, calling `between` after each round; `None`
/// makes exactly one round.
fn rounds(
    pass: &Peephole,
    inputs: &Inputs,
    tracer: &Tracer,
    run: Option<Duration>,
    between: &mut dyn FnMut(),
    report: &mut Report,
) -> Result<Phase, String> {
    let mut phase = Phase {
        calls: BestOf::new(inputs.module.len()),
        stats: PassStats::default(),
        cost: 0,
        digest: Digest::default(),
    };
    loop {
        phase.stats = PassStats::default();
        phase.cost = 0;
        for (i, original) in inputs.module.iter().enumerate() {
            let mut f = original.clone();
            let stats = phase.calls.time(|| {
                let _span = tracer.span(CALL_SPAN);
                pass.run(&mut f)
            });
            for (args, before) in inputs.args[i].iter().zip(&inputs.expected[i]) {
                let after = interpret(&f, args);
                if !after.refines(before) {
                    return Err(format!(
                        "the pass rewrote {} so that on {args:?} it gives {after:?}, \
                         which does not refine {before:?}",
                        f.name
                    ));
                }
                phase.digest.add(format!("{after:?}").as_bytes());
            }
            report.tally(true);
            phase.cost += f.static_cost();
            phase.stats.merge(&stats);
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
    let (templates, pass) = setups.time(|| build_pass(&Tracer::disabled()));
    let inputs = inputs(args.seed, &templates);
    let disabled = Tracer::disabled();
    let untraced = rounds(
        &pass,
        &inputs,
        &disabled,
        Some(args.run),
        &mut || {
            for _ in 0..SETUPS_PER_ROUND {
                setups.time(|| build_pass(&Tracer::disabled()));
            }
        },
        &mut report,
    )?;
    if !args.trace {
        report.set("setup_s", setups.median());
        untraced.calls.report(WORKLOAD, &mut report);
        return Ok(report);
    }

    // Traced: one round, so the counters are fixed by the seed.
    let recorder = Recorder::new();
    let (_, pass) = build_pass(&recorder.tracer);
    let failed = report.failed;
    let traced = rounds(
        &pass,
        &inputs,
        &recorder.tracer,
        None,
        &mut || {},
        &mut report,
    )?;
    layers::print_phase(
        WORKLOAD,
        inputs.module.len(),
        report.failed - failed,
        traced.digest.0,
    );
    // alive-opt emits no spans: the coverage reads 0 and is not gated.
    layers::report(&recorder, &mut report, WORKLOAD, false)?;
    layers::set_overhead(
        &mut report,
        untraced.calls.mean_per_second(),
        traced.calls.mean_per_second(),
    );
    let rewrites = traced.stats.total_fires();
    report.set("opt.pass_ms", traced.calls.total().as_secs_f64() * 1000.0);
    report.set("opt.visited", traced.stats.visited as f64);
    report.set("opt.sweeps", traced.stats.sweeps as f64);
    report.set("opt.rewrites", rewrites as f64);
    report.set(
        "opt.fire_share",
        rewrites as f64 / (traced.stats.visited * pass.len() as u64).max(1) as f64 * 100.0,
    );
    report.set("opt.cost", traced.cost as f64);
    Ok(report)
}
