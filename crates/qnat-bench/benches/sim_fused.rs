//! Fused-vs-unfused simulator throughput (ISSUE 7 acceptance bench).
//!
//! The QuantumNAT workload is repeated inference over the same §4.2 QNN
//! blocks — the ideal fuse-once-run-many case. This bench takes the
//! standard 4-qubit block transpiled for Santiago at level 2, binds one
//! row of encoder angles plus the trained parameters, and compares
//! gate-by-gate execution against running the [`FusedCircuit`] the
//! compiler's fusion pass produces. It also microbenches the raw
//! branch-free `apply_mat2`/`apply_mat4` kernels through single-gate
//! circuits on larger registers, writes `results/BENCH_sim.json`
//! (throughput plus per-run latency percentiles), and fails loudly unless
//! fused execution sustains ≥ 2× the unfused runs/sec.
//!
//! The same file carries the emulator line: the block under the Santiago
//! density-matrix emulator at ZNE per-gate fold scales 1, 3 and 5, timed
//! as a gate-by-gate Kraus reference (built inline from the public
//! `DensityMatrix` calls) against `HardwareEmulator::expect_all_z` (the
//! compiled superoperator path). It fails unless the compiled path is
//! ≥ 8× the reference at scale 1.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use qnat_bench::stats::latency_percentiles_ms;
use qnat_compiler::folding::{fold_circuit, FoldStrategy};
use qnat_compiler::fusion::fuse;
use qnat_core::model::{Qnn, QnnConfig};
use qnat_json::Json;
use qnat_noise::{presets, DeviceModel, HardwareEmulator};
use qnat_sim::channel::Channel1;
use qnat_sim::circuit::Circuit;
use qnat_sim::density::DensityMatrix;
use qnat_sim::fused::FusedCircuit;
use qnat_sim::gate::Gate;
use qnat_sim::statevector::StateVector;
use std::time::{Duration, Instant};

/// Per-run iterations of the acceptance gate (each run = full block
/// execution + ⟨Z⟩ readout, exactly the serving layer's per-job work).
const ITERS: usize = 2000;

/// The §4.2 QNN block as the simulator actually sees it: the standard
/// 16-feature / 4-qubit model's first block, routed for Santiago at
/// transpile level 2, with one encoder row and the trained parameters
/// bound into the symbolic circuit.
fn block_circuit() -> Circuit {
    let qnn = Qnn::new(QnnConfig::standard(16, 4, 1, 2), 7);
    let plans = qnn
        .route_plan(&presets::santiago(), 2)
        .expect("santiago fits the standard model");
    let block = &qnn.blocks()[0];
    let row: Vec<f64> = (0..16).map(|j| (j as f64 * 0.013).sin()).collect();
    let mut params = block.encoder.angles(&row);
    params.extend_from_slice(qnn.block_params(0));
    plans[0].lowered.bind(&params)
}

fn run_unfused(circuit: &Circuit) -> Vec<f64> {
    let mut psi = StateVector::zero_state(circuit.n_qubits());
    psi.run(circuit);
    psi.expect_all_z()
}

fn run_fused(fused: &FusedCircuit) -> Vec<f64> {
    let mut psi = StateVector::zero_state(fused.n_qubits());
    psi.run_fused(fused);
    psi.expect_all_z()
}

/// Per-pass iterations of the emulator line (a scale-5 Kraus run takes
/// several ms, so far fewer than `ITERS`).
const EMU_ITERS: usize = 60;

/// The compiled emulator must beat the Kraus reference by this factor on
/// the unfolded block.
const EMU_MIN_RATIO: f64 = 8.0;

/// The gate-by-gate Kraus reference the emulator used to run: after each
/// gate, each touched qubit's Pauli channel, then its amplitude and phase
/// damping over the gate's duration, every channel built on the spot and
/// applied through `DensityMatrix::apply_channel1`; then readout
/// confusion and ⟨Z⟩, as `HardwareEmulator::expect_all_z` does.
fn kraus_expect_all_z(model: &DeviceModel, circuit: &Circuit) -> Vec<f64> {
    let mut rho = DensityMatrix::zero_state(circuit.n_qubits());
    for g in circuit.gates() {
        rho.apply_gate(g);
        for (q, spec) in model.gate_errors(g) {
            if spec.total() > 0.0 {
                let ch = Channel1::pauli(spec.p_x, spec.p_y, spec.p_z).expect("valid pauli");
                rho.apply_channel1(q, &ch);
            }
        }
        let dur = if g.arity() == 2 {
            model.tq_duration_factor()
        } else {
            1.0
        };
        for &q in &g.qubits[..g.arity()] {
            let ad = (model.amp_damping(q) * dur).min(1.0);
            let pd = (model.phase_damping(q) * dur).min(1.0);
            if ad > 0.0 {
                let ch = Channel1::amplitude_damping(ad).expect("valid damping");
                rho.apply_channel1(q, &ch);
            }
            if pd > 0.0 {
                let ch = Channel1::phase_damping(pd).expect("valid damping");
                rho.apply_channel1(q, &ch);
            }
        }
    }
    let n = circuit.n_qubits();
    let mut probs = rho.probabilities();
    for q in 0..n {
        model.readout_error(q).apply_to_distribution(&mut probs, q);
    }
    (0..n)
        .map(|q| {
            let p1: f64 = probs
                .iter()
                .enumerate()
                .filter(|(i, _)| i & (1 << q) != 0)
                .map(|(_, w)| w)
                .sum();
            1.0 - 2.0 * p1
        })
        .collect()
}

/// Times `iters` runs, one latency sample each.
fn samples<R>(iters: usize, mut run: impl FnMut() -> R) -> Vec<Duration> {
    (0..iters)
        .map(|_| {
            let t = Instant::now();
            black_box(run());
            t.elapsed()
        })
        .collect()
}

fn percentiles_json((p50, p90, p99): (f64, f64, f64)) -> Json {
    Json::obj([
        ("p50", Json::Num(p50)),
        ("p90", Json::Num(p90)),
        ("p99", Json::Num(p99)),
    ])
}

/// The emulator line: Kraus reference vs compiled emulator on the block
/// at fold scales 1/3/5, arms interleaved pass by pass so drift hits both
/// alike. Returns the JSON rows and the scale-1 p50 ratio.
fn emulator_line() -> (Json, f64) {
    let block = block_circuit();
    let model = presets::santiago();
    let emulator = HardwareEmulator::new(model.clone());
    let mut rows = Vec::new();
    let mut ratio_s1 = 0.0;
    for scale in [1usize, 3, 5] {
        let circuit = fold_circuit(&block, scale, FoldStrategy::PerGate).expect("odd scale");
        let want = kraus_expect_all_z(&model, &circuit);
        let got = emulator
            .expect_all_z(&circuit)
            .expect("block fits santiago");
        for (a, b) in want.iter().zip(&got) {
            assert!(
                (a - b).abs() <= 1e-12,
                "compiled emulator must reproduce the Kraus reference at scale {scale}"
            );
        }
        let (mut kraus, mut compiled) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            kraus.extend(samples(EMU_ITERS, || kraus_expect_all_z(&model, &circuit)));
            compiled.extend(samples(EMU_ITERS, || emulator.expect_all_z(&circuit)));
        }
        let k = latency_percentiles_ms(&mut kraus);
        let c = latency_percentiles_ms(&mut compiled);
        let ratio = k.0 / c.0;
        if scale == 1 {
            ratio_s1 = ratio;
        }
        println!(
            "sim_fused: santiago emulator, scale {scale} ({} gates): Kraus p50 {:.3} ms vs \
             compiled p50 {:.3} ms → {ratio:.1}x",
            circuit.len(),
            k.0,
            c.0
        );
        rows.push(Json::obj([
            ("scale", Json::Num(scale as f64)),
            ("gates", Json::Num(circuit.len() as f64)),
            ("kraus_latency_ms", percentiles_json(k)),
            ("compiled_latency_ms", percentiles_json(c)),
            ("ratio_p50", Json::Num(ratio)),
        ]));
    }
    let doc = Json::obj([
        ("device", Json::Str("santiago".into())),
        ("fold", Json::Str("per-gate".into())),
        ("iters_per_arm", Json::Num((3 * EMU_ITERS) as f64)),
        ("scales", Json::Arr(rows)),
    ]);
    (doc, ratio_s1)
}

/// Times `ITERS` runs individually: total wall-clock plus the per-run
/// latency samples the percentile summary pools.
fn timed_pass<R>(mut run: impl FnMut() -> R) -> (Duration, Vec<Duration>) {
    let mut samples = Vec::with_capacity(ITERS);
    let start = Instant::now();
    for _ in 0..ITERS {
        let t = Instant::now();
        black_box(run());
        samples.push(t.elapsed());
    }
    (start.elapsed(), samples)
}

fn bench_block(c: &mut Criterion) {
    let circuit = block_circuit();
    // Fuse ONCE, outside every timed loop — the compiled-circuit cache
    // makes this the steady-state serving shape.
    let fused = fuse(&circuit);
    let mut group = c.benchmark_group("sim_fused_block");
    group.bench_function("unfused", |b| b.iter(|| run_unfused(&circuit)));
    group.bench_function("fused", |b| b.iter(|| run_fused(&fused)));
    group.finish();
}

/// Raw kernel microbench: one U3 (Mat2 path) and one CU3 (Mat4 path)
/// swept across register sizes, isolating the branch-free strided
/// kernels from circuit overhead.
fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_fused_kernels");
    for &n in &[8usize, 12, 16] {
        let mut one_q = Circuit::new(n);
        one_q.push(Gate::u3(n / 2, 0.3, -0.2, 0.7));
        let mut two_q = Circuit::new(n);
        two_q.push(Gate::cu3(0, n - 1, 0.3, -0.2, 0.7));
        group.bench_with_input(BenchmarkId::new("mat2", n), &n, |b, &n| {
            let mut psi = StateVector::zero_state(n);
            b.iter(|| psi.run(&one_q))
        });
        group.bench_with_input(BenchmarkId::new("mat4", n), &n, |b, &n| {
            let mut psi = StateVector::zero_state(n);
            b.iter(|| psi.run(&two_q))
        });
    }
    group.finish();

    acceptance_gate();
}

/// Acceptance gate + `results/BENCH_sim.json`: fused execution must
/// sustain ≥ 2× unfused runs/sec on the §4.2 block, and the compiled
/// emulator ≥ 8× the Kraus reference on it. Median of 3 passes to shrug
/// off scheduler hiccups; equivalence is asserted here too, so a kernel
/// regression cannot hide behind a fast wrong answer.
fn acceptance_gate() {
    let circuit = block_circuit();
    let fused = fuse(&circuit);
    let baseline = run_unfused(&circuit);
    let fused_out = run_fused(&fused);
    for (a, b) in baseline.iter().zip(&fused_out) {
        assert!((a - b).abs() < 1e-12, "fused must reproduce unfused");
    }

    let median_of_3 = |mut runs: Vec<Duration>| {
        runs.sort();
        runs[1]
    };
    let unfused_passes: Vec<(Duration, Vec<Duration>)> =
        (0..3).map(|_| timed_pass(|| run_unfused(&circuit))).collect();
    let fused_passes: Vec<(Duration, Vec<Duration>)> =
        (0..3).map(|_| timed_pass(|| run_fused(&fused))).collect();
    let unfused_t = median_of_3(unfused_passes.iter().map(|p| p.0).collect());
    let fused_t = median_of_3(fused_passes.iter().map(|p| p.0).collect());
    let unfused_rate = ITERS as f64 / unfused_t.as_secs_f64();
    let fused_rate = ITERS as f64 / fused_t.as_secs_f64();
    let speedup = fused_rate / unfused_rate;

    let mut unfused_lat: Vec<Duration> =
        unfused_passes.iter().flat_map(|p| p.1.clone()).collect();
    let mut fused_lat: Vec<Duration> = fused_passes.iter().flat_map(|p| p.1.clone()).collect();
    let (u50, u90, u99) = latency_percentiles_ms(&mut unfused_lat);
    let (f50, f90, f99) = latency_percentiles_ms(&mut fused_lat);
    let (emulator, emulator_ratio) = emulator_line();

    println!(
        "sim_fused: §4.2 block {} gates → {} fused ops; unfused {unfused_rate:.0} runs/s vs \
         fused {fused_rate:.0} runs/s → {speedup:.2}x",
        circuit.len(),
        fused.len()
    );

    let doc = Json::obj([
        ("bench", Json::Str("sim_fused".into())),
        ("block", Json::Str("standard(16,4,1,2) block 0, santiago, level 2".into())),
        ("gates_unfused", Json::Num(circuit.len() as f64)),
        ("ops_fused", Json::Num(fused.len() as f64)),
        ("iters_per_pass", Json::Num(ITERS as f64)),
        ("unfused_runs_per_sec", Json::Num(unfused_rate)),
        ("fused_runs_per_sec", Json::Num(fused_rate)),
        ("speedup", Json::Num(speedup)),
        ("unfused_latency_ms", percentiles_json((u50, u90, u99))),
        ("fused_latency_ms", percentiles_json((f50, f90, f99))),
        ("emulator", emulator),
    ]);
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&results).expect("create results dir");
    std::fs::write(results.join("BENCH_sim.json"), doc.to_json_pretty())
        .expect("write results/BENCH_sim.json");

    assert!(
        speedup >= 2.0,
        "fused execution must sustain ≥ 2x unfused runs/sec on the §4.2 block: got {speedup:.2}x"
    );
    assert!(
        emulator_ratio >= EMU_MIN_RATIO,
        "the compiled emulator must run the §4.2 block ≥ {EMU_MIN_RATIO}x faster than the \
         Kraus reference: got {emulator_ratio:.1}x"
    );
}

criterion_group!(benches, bench_block, bench_kernels);
criterion_main!(benches);
