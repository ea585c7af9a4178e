//! End-to-end and per-layer benchmark of the QuantumNAT workload.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload infer-emulator --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.

mod checks;
mod model;
mod ops;
mod reference;
mod stats;
mod trace;
mod verify;

use checks::Tally;
use ops::{Served, TrainNat};
use qnat_core::metrics::accuracy;
use stats::{median, quantile, Metric};
use std::time::{Duration, Instant};
use trace::{Ctx, Kind};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Ops of each other kind a traced run replays for the layers its own
/// workload does not reach.
const PROBE_OPS: usize = 3;
/// Where the traced run writes its span file and per-layer table.
const OUT_DIR: &str = ".bench_out";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--regen-params") {
        return Ok(None);
    }
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = value("--workload")?;
    let kind = Kind::ALL
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
    };
    Ok(Some(Args {
        kind,
        seed,
        seconds,
        trace,
    }))
}

fn main() {
    let outcome = match parse_args() {
        Ok(None) => regen_params(),
        Ok(Some(args)) => run(&args),
        Err(e) => Err(e),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// A workload's state after set-up.
enum Loaded {
    Train(TrainNat),
    Infer(Served),
    Zne(Served),
}

impl Loaded {
    fn setup(kind: Kind, seed: u64) -> Result<Loaded, String> {
        Ok(match kind {
            Kind::Train => Loaded::Train(TrainNat::setup(seed)?),
            Kind::Infer => Loaded::Infer(Served::setup(seed)?),
            Kind::Zne => Loaded::Zne(Served::setup(seed)?),
        })
    }

    /// Warms caches and the keep-alive connection: one training step, or
    /// one served job.
    fn warm_up(&mut self) -> Result<(), String> {
        match self {
            Loaded::Train(w) => w.op(),
            Loaded::Infer(s) | Loaded::Zne(s) => {
                let (rows, _) = s.request_rows(0);
                s.serve_jobs(&s.block_jobs(0, &rows[..1])).map(drop)
            }
        }
    }

    /// Op number `i` of the workload, untraced.
    fn op(&mut self, i: usize) -> Result<(), String> {
        match self {
            Loaded::Train(w) => w.op(),
            Loaded::Infer(s) => s.infer_op(i).map(drop),
            Loaded::Zne(s) => s.zne_op(i).map(drop),
        }
    }

    fn close(self) {
        match self {
            Loaded::Train(_) => {}
            Loaded::Infer(s) | Loaded::Zne(s) => s.shutdown(),
        }
    }
}

/// Set-up until the first timed op (warm-up included), done
/// [`SETUPS`] times; returns the last state and every set-up time.
fn set_up(kind: Kind, seed: u64) -> Result<(Loaded, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last: Option<Loaded> = None;
    for _ in 0..SETUPS {
        if let Some(prev) = last.take() {
            prev.close();
        }
        let t = Instant::now();
        let mut w = Loaded::setup(kind, seed)?;
        w.warm_up()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(w);
    }
    Ok((last.expect("at least one set-up"), times))
}

/// Runs ops until `seconds` pass; returns per-op latencies in µs and the
/// failure count.
fn timed_loop(
    seconds: f64,
    mut op: impl FnMut(usize) -> Result<(), String>,
) -> (Vec<f64>, u64, Duration) {
    let mut lat = Vec::new();
    let mut failed = 0;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut i = 0;
    while start.elapsed() < budget {
        let t = Instant::now();
        match op(i) {
            Ok(()) => lat.push(t.elapsed().as_secs_f64() * 1e6),
            Err(e) => {
                eprintln!("op {i} failed: {e}");
                failed += 1;
            }
        }
        i += 1;
    }
    (lat, failed, start.elapsed())
}

fn run(args: &Args) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = stats::pin_to_one_cpu()?;
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} (nproc {}, every thread on CPU {cpu})",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc
    );
    if args.trace {
        return run_traced(args);
    }
    let (mut w, setups) = set_up(args.kind, args.seed)?;
    let cpu0 = stats::process_cpu_ms();
    let (lat, failed, elapsed) = timed_loop(args.seconds, |i| w.op(i));
    let cpu_ms = stats::process_cpu_ms() - cpu0;
    let ok_ops = lat.len() as f64;
    let attempted = lat.len() as u64 + failed;

    let mut tally = Tally::default();
    let accuracy = match &mut w {
        Loaded::Train(t) => verify::train(t, args.seed, &mut tally).map(Some),
        Loaded::Infer(s) => verify::infer(s, &mut tally).map(Some),
        Loaded::Zne(s) => verify::zne(s, &mut tally).map(|()| None),
    };
    w.close();
    let accuracy = accuracy.unwrap_or_else(|e| {
        tally.failures.push(format!("verification: {e}"));
        None
    });
    for f in &tally.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    let metrics = vec![
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("latency_p90_ms", quantile(&lat, 0.9) * 1e-3, "ms"),
        Metric::new("peak_rss_mb", stats::peak_rss_mb(), "MiB"),
    ];
    // Printed, not gated: they follow the host's fast/slow mix from run
    // to run (see README.md, "Steadiness").
    println!(
        "ops {attempted} ({failed} failed) in {:.2} s: {:.3} op/s, latency p50 {:.3} ms, p99 {:.3} ms, cpu {:.3} ms/op",
        elapsed.as_secs_f64(),
        ok_ops / elapsed.as_secs_f64(),
        quantile(&lat, 0.5) * 1e-3,
        quantile(&lat, 0.99) * 1e-3,
        cpu_ms / ok_ops
    );
    println!(
        "set-ups {:?} s; checks passed {}, failed {}{}",
        setups,
        tally.passed,
        tally.failures.len(),
        accuracy.map_or(String::new(), |a| format!("; emulator accuracy {a:.4}"))
    );
    finish(tally.ok(), attempted, failed, &metrics);
    Ok(())
}

/// Prints the result line; a metric that is not a finite number makes
/// the run incorrect.
fn finish(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        eprintln!("a metric is not a finite number");
    }
    for m in metrics {
        println!("  {:<26} {:>14.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        stats::result_line(
            correct && finite && attempted > 0,
            attempted,
            failed,
            metrics
        )
    );
}

/// The traced run: an untraced stretch for the overhead baseline, the
/// workload's own ops traced, then a few probe ops of the other kinds.
fn run_traced(args: &Args) -> Result<(), String> {
    let mut train = TrainNat::setup(args.seed)?;
    let served = Served::setup(args.seed)?;
    let mut ctx = Ctx::new(&served);
    ctx.route_plans(args.kind, 5)?;
    let op = |ctx: &mut Ctx, train: &mut TrainNat, kind: Kind, i: usize| -> Result<f64, String> {
        match kind {
            Kind::Train => ctx.train_op(train),
            Kind::Infer => ctx.infer_op(i),
            Kind::Zne => ctx.zne_op(i),
        }
    };
    // Warm-up, then the untraced baseline over a quarter of the run.
    op(&mut ctx, &mut train, args.kind, 0)?;
    let untraced = {
        let kind = args.kind;
        let (lat, _, _) = timed_loop(args.seconds / 4.0, |i| match kind {
            Kind::Train => train.op(),
            Kind::Infer => served.infer_op(i).map(drop),
            Kind::Zne => served.zne_op(i).map(drop),
        });
        lat
    };
    let mut traced_failed = 0;
    let mut traced = 0u64;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds * 0.75);
    while start.elapsed() < budget || traced < 5 {
        if let Err(e) = op(&mut ctx, &mut train, args.kind, traced as usize) {
            eprintln!("traced op {traced} failed: {e}");
            traced_failed += 1;
        }
        traced += 1;
    }
    for kind in Kind::ALL {
        if kind != args.kind {
            for i in 0..PROBE_OPS {
                op(&mut ctx, &mut train, kind, i)?;
            }
        }
    }
    ctx.count_bytes()?;
    let report = ctx.finish(args.kind, median(&untraced));

    let mut tally = Tally::default();
    let checked = match args.kind {
        Kind::Train => verify::train(&mut train, args.seed, &mut tally).map(drop),
        Kind::Infer => verify::infer(&served, &mut tally).map(drop),
        Kind::Zne => verify::zne(&served, &mut tally),
    };
    served.shutdown();
    if let Err(e) = checked {
        tally.failures.push(format!("verification: {e}"));
    }
    for f in &tally.failures {
        eprintln!("CHECK FAILED: {f}");
    }

    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let stem = format!("{OUT_DIR}/{}-seed{}", args.kind.name(), args.seed);
    std::fs::write(format!("{stem}.spans.jsonl"), &report.spans_jsonl)
        .map_err(|e| format!("span file: {e}"))?;
    std::fs::write(format!("{stem}.layers.txt"), &report.table)
        .map_err(|e| format!("layer table: {e}"))?;
    print!("{}", report.table);
    println!("spans and table written to {stem}.*");
    finish(tally.ok(), traced, traced_failed, &report.metrics);
    Ok(())
}

/// Trains the served workloads' model through `train-nat`'s code path and
/// prints it as JSON (see README.md for the command): [`model::RESTARTS`]
/// random initialisations, the best on held-out rows kept.
fn regen_params() -> Result<(), String> {
    let mut best: Option<(f64, u64, Vec<f64>)> = None;
    for k in 0..model::RESTARTS {
        let init_seed = model::PARAMS_SEED + k;
        let mut w = TrainNat::from_scratch(model::PARAMS_SEED, init_seed)?;
        w.finish_schedule()?;
        let qnn = w.snapshot_model()?;
        let features: Vec<Vec<f64>> = w.test.iter().map(|s| s.features.clone()).collect();
        let labels: Vec<usize> = w.test.iter().map(|s| s.label).collect();
        let acc = accuracy(&ops::emulator_logits(&qnn, &features)?, &labels);
        eprintln!("initialisation {init_seed}: emulator accuracy {acc:.4}");
        if best.as_ref().is_none_or(|b| acc > b.0) {
            best = Some((acc, init_seed, qnn.parameters().to_vec()));
        }
    }
    let (acc, init_seed, params) = best.ok_or("no restart ran")?;
    let params: Vec<String> = params.iter().map(|p| format!("{p:?}")).collect();
    println!(
        "{{\"model\": \"standard(16 features, 4 classes, 2 blocks, 2 layers), santiago, level {}\", \"data_seed\": {}, \"init_seed\": {init_seed}, \"steps\": {}, \"emulator_accuracy\": {acc}, \"params\": [{}]}}",
        model::OPT_LEVEL,
        model::PARAMS_SEED,
        model::FROM_SCRATCH.steps,
        params.join(", ")
    );
    Ok(())
}
