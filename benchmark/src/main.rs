//! The SMACS benchmark: five workloads over the pipeline token request →
//! rule check → (one-time index through the wire quorum and WAL fsync) →
//! sign → v2 wire → token-bearing transaction → shield `ecrecover` and
//! bitmap → receipt. See `README.md` beside this crate for every metric.
//!
//! ```text
//! smacs-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! smacs-benchmark [--workload all] [--smoke]
//! smacs-benchmark --selfcheck [k]
//! ```

mod driver;
mod host;
mod probes;
mod rng;
mod selfcheck;
mod spec;
mod stats;
mod trace;
mod workloads;
mod world;

use driver::{Driver, Rounds, Stop};
use probes::Metric;
use spec::{END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::Workload;
use world::Env;

/// The seed of a run that names none.
const DEFAULT_SEED: u64 = 20_200_629;
/// Set-ups per run: `setup_s` is their median, and each world serves a
/// third of the rounds.
const SETUPS: usize = 3;
/// Length of each closed and each open window.
const WINDOW: Duration = Duration::from_millis(500);

/// How one workload is run.
pub struct Plan {
    pub seed: u64,
    pub rounds: u64,
    pub setups: usize,
    pub trace: bool,
}

/// What one workload run reports.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The result line the acceptance pipeline reads.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// The `--trace 1` pass over a world whose rounds are done: the traced
/// single-lane pass, the layer probes, the span file. Returns the per-layer
/// metrics, in the order of [`PER_LAYER`].
fn trace_pass<W: Workload>(
    driver: &mut Driver<'_, W::Lane>,
    rounds: &Rounds,
    plan: &Plan,
    env: &Env,
    problems: &mut Vec<String>,
) -> Vec<Metric> {
    // One lane, count-bounded, traced; then the same again untraced: the
    // ratio is what tracing costs.
    let mut tracer = Tracer::on();
    let stop = Stop::Ops(W::TRACE_OPS);
    let traced = driver.closed_on(1, stop, &mut tracer);
    let untraced = driver.closed_on(1, stop, &mut Tracer::off());
    let failed = traced.failed() + untraced.failed();
    if failed > 0 {
        problems.push(format!("{failed} ops of the traced pass failed"));
    }
    let closed_p50_us = rounds.closed(&rounds.closed_p50_us);
    let spans = tracer.self_time_medians_us();
    println!("  blocking path of one op, single lane (median self time per span):");
    for (name, us) in &spans {
        println!("    {name:<28} {us:>12.2} us");
    }
    let explained: f64 = spans.values().sum();
    println!(
        "    explained {explained:.2} us = {:.0} % of closed_p50_us {closed_p50_us:.2} us",
        100.0 * explained / closed_p50_us
    );
    let overhead =
        stats::median(&mut traced.latency_us()) / stats::median(&mut untraced.latency_us());

    let mut metrics = match probes::run(&mut tracer, plan.seed, env) {
        Ok(layers) => layers,
        Err(problem) => {
            problems.push(problem);
            Vec::new()
        }
    };
    metrics.extend([
        ("driver.closed_p90_us", rounds.closed(&rounds.closed_p90_us), "us"),
        ("driver.closed_p99_us", rounds.closed(&rounds.closed_p99_us), "us"),
        ("driver.open_p90_us", rounds.open(&rounds.open_p90_us), "us"),
        ("driver.open_p99_us", rounds.open(&rounds.open_p99_us), "us"),
        ("driver.open_lateness_p50_us", rounds.open(&rounds.lateness_p50_us), "us"),
        ("driver.open_lateness_p99_us", rounds.open(&rounds.lateness_p99_us), "us"),
        ("driver.rounds_disturbed", rounds.disturbed() as f64, "count"),
        ("driver.unattributed_us", closed_p50_us - explained, "us"),
        ("host.calib_us", stats::median(&mut rounds.calib_us.clone()), "us"),
        ("host.calib_max_us", rounds.calib_us.iter().copied().fold(0.0, f64::max), "us"),
        ("process.peak_rss_mb", host::peak_rss_kb() as f64 / 1024.0, "MB"),
        ("process.threads", host::threads() as f64, "count"),
        ("process.ctx_switches_per_op", rounds.closed(&rounds.ctx_switches_per_op), "count"),
        ("trace.overhead_share", overhead, "share"),
    ]);
    let path = env.out_dir.join(format!("trace-{}.json", W::NAME));
    match tracer.write_json(&path, W::NAME, plan.seed) {
        Ok(()) => println!("  {} spans written to {}", tracer.spans().len(), path.display()),
        Err(e) => problems.push(format!("cannot write {}: {e}", path.display())),
    }
    // The pass must produce exactly the per-layer set it promises.
    metrics.sort_by_key(|(name, ..)| PER_LAYER.iter().position(|(n, _)| n == name));
    let produced: Vec<&str> = metrics.iter().map(|(name, ..)| *name).collect();
    let promised: Vec<&str> = PER_LAYER.iter().map(|(name, _)| *name).collect();
    if produced != promised {
        problems.push("the trace pass did not produce the per-layer set of spec.rs".into());
    }
    metrics
}

fn run<W: Workload>(plan: &Plan, env: &Env) -> Report {
    println!(
        "== {} — seed {}, {} rounds of {:?} closed + {:?} open at {}/s over {} set-up(s), nproc {} ==",
        W::NAME,
        plan.seed,
        plan.rounds,
        WINDOW,
        WINDOW,
        W::OPEN_RATE,
        plan.setups,
        host::nproc()
    );
    let mut problems: Vec<String> = Vec::new();
    let mut metrics = Vec::new();
    let mut setup_s = Vec::new();
    let mut rounds = Rounds::new(WINDOW);

    // The world is set up several times over — keys and rule books,
    // pre-signing, server bring-up, warm-up — and each world serves its
    // share of the rounds: `setup_s` is the median set-up, and no number
    // hangs on where one server's threads and buffers happened to land.
    let setups = plan.setups as u64;
    for k in 0..setups {
        let started = Instant::now();
        let mut world = W::setup(plan.seed, env);
        let lanes = world.lanes().len() as u64;
        let mut driver = Driver::new(world.lanes(), plan.seed);
        let warm = driver.closed(Stop::Ops(W::WARMUP_OPS / lanes));
        setup_s.push(started.elapsed().as_secs_f64());
        if warm.failed() > 0 {
            problems.push(format!("{} warm-up ops failed", warm.failed()));
        }
        let share = plan.rounds * k / setups..plan.rounds * (k + 1) / setups;
        driver.rounds(&mut rounds, share, W::OPEN_RATE);
        if plan.trace && k + 1 == setups {
            metrics = trace_pass::<W>(&mut driver, &rounds, plan, env, &mut problems);
        }
        match world.audit(plan.seed, world::AUDIT_SAMPLE.div_ceil(plan.setups)) {
            Ok(checked) => println!("  checked: {checked}"),
            Err(problem) => problems.push(problem),
        }
        world.shutdown();
    }
    if rounds.failed > 0 {
        problems.push(format!("{} of {} ops failed", rounds.failed, rounds.attempted));
    }
    let setup_s = stats::median(&mut setup_s);
    let closed_p50_us = rounds.closed(&rounds.closed_p50_us);

    if plan.trace {
        println!("  (setup_s {setup_s:.4} s, closed_p50_us {closed_p50_us:.2} us in this traced run)");
    } else {
        let values = [
            setup_s,
            rounds.closed(&rounds.goodput_per_s),
            closed_p50_us,
            rounds.open(&rounds.open_p50_us),
            rounds.closed(&rounds.cpu_us_per_op),
        ];
        metrics.extend(
            END_TO_END
                .iter()
                .zip(values)
                .map(|(metric, value)| (metric.name, value, metric.unit)),
        );
    }
    for (name, value, unit) in &metrics {
        println!("  {name:<34} {value:>14.4} {unit}");
    }
    println!(
        "  tails, not gated: closed p90 {:.1} / p99 {:.1} us, open p90 {:.1} / p99 {:.1} us; generator lateness p50 {:.1} us; {} of {} rounds disturbed; peak RSS {:.1} MB",
        rounds.closed(&rounds.closed_p90_us),
        rounds.closed(&rounds.closed_p99_us),
        rounds.open(&rounds.open_p90_us),
        rounds.open(&rounds.open_p99_us),
        rounds.open(&rounds.lateness_p50_us),
        rounds.disturbed(),
        plan.rounds,
        host::peak_rss_kb() as f64 / 1024.0
    );
    let per_round = |values: &[f64]| -> String {
        values.iter().map(|v| format!(" {v:.1}")).collect()
    };
    println!("  per round, goodput_per_s:{}", per_round(&rounds.goodput_per_s));
    println!("  per round, closed_p50_us:{}", per_round(&rounds.closed_p50_us));
    println!("  per round, open_p50_us:  {}", per_round(&rounds.open_p50_us));
    println!("  per round, cpu_us_per_op:{}", per_round(&rounds.cpu_us_per_op));
    println!("  per round, closed_steal: {}", per_round(&rounds.closed_steal));
    println!("  per round, open_steal:   {}", per_round(&rounds.open_steal));
    println!(
        "  ops_attempted {}  ops_ok {}  ops_failed {}  failed_share {}",
        rounds.attempted,
        rounds.attempted - rounds.failed,
        rounds.failed,
        rounds.failed as f64 / rounds.attempted.max(1) as f64
    );
    for problem in &problems {
        println!("  INCORRECT: {problem}");
    }
    Report {
        correct: problems.is_empty(),
        attempted: rounds.attempted,
        failed: rounds.failed,
        metrics,
    }
}

/// Run the workload called `name`.
fn run_named(name: &str, plan: &Plan, env: &Env) -> Option<Report> {
    use workloads::*;
    Some(match name {
        "method_token_http" => run::<method_token_http::MethodTokenHttp>(plan, env),
        "onetime_quorum" => run::<onetime_quorum::OnetimeQuorum>(plan, env),
        "chain_call" => run::<chain_call::ChainCall>(plan, env),
        "block_replay" => run::<block_replay::BlockReplay>(plan, env),
        "batch_rules_churn" => run::<batch_rules_churn::BatchRulesChurn>(plan, env),
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    selfcheck: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: 24,
        trace: false,
        smoke: false,
        selfcheck: None,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut number = |what: &str| -> Result<u64, String> {
            argv.next()
                .and_then(|v| v.parse().ok())
                .ok_or(format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--seed" => args.seed = number("a number")?,
            "--seconds" => args.seconds = number("a number of seconds")?,
            "--trace" => args.trace = number("0 or 1")? != 0,
            "--smoke" => args.smoke = true,
            "--selfcheck" => {
                let k = argv.peek().and_then(|v| v.parse().ok());
                if k.is_some() {
                    argv.next();
                }
                args.selfcheck = Some(k.unwrap_or(3));
            }
            "--workload" => args.workload = argv.next().ok_or("--workload needs a name")?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(problem) => {
            eprintln!("{problem}\nusage: smacs-benchmark [--workload <name>|all] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke] [--selfcheck [k]]");
            return ExitCode::from(2);
        }
    };
    if let Some(k) = args.selfcheck {
        return selfcheck::run(k, args.seed, args.seconds);
    }
    // Scratch space inside the checkout, on its (real) filesystem: WALs
    // fsync here and the trace files land here.
    let env = Env {
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        lanes: host::lanes(),
    };
    if let Err(e) = std::fs::create_dir_all(&env.out_dir) {
        eprintln!("cannot create {}: {e}", env.out_dir.display());
        return ExitCode::FAILURE;
    }
    // The process-wide pool behind batch signing is built on first use;
    // build it now, where the program's threads belong.
    {
        let _cpus = host::Affinity::program();
        smacs_primitives::WorkerPool::shared();
    }
    let plan = Plan {
        seed: args.seed,
        trace: args.trace,
        // One round is one closed and one open window: a second.
        rounds: if args.smoke {
            2
        } else if args.trace {
            // The layer probes take the larger part of a traced run.
            (args.seconds * 2 / 5).max(2)
        } else {
            args.seconds.max(1)
        },
        setups: if args.smoke || args.trace { 1 } else { SETUPS },
    };
    let names: Vec<&str> = if args.workload == "all" {
        workloads::NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all_correct = true;
    for name in names {
        let Some(report) = run_named(name, &plan, &env) else {
            eprintln!("unknown workload {name}; one of {:?} or all", workloads::NAMES);
            return ExitCode::from(2);
        };
        all_correct &= report.correct;
        // The last line of a single-workload run is its result object.
        println!("{}", report.json());
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
