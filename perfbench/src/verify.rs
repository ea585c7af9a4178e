//! Per-workload output checks, each paired with the perturbed results
//! the check must reject. Runs after the timed window, untimed.

use crate::checks::{self, flip_sign, Tally};
use crate::model::{self, N_TRAIN};
use crate::ops::{self, Served, TrainNat};
use crate::reference::{self, Noise};
use qnat_compiler::folding::fold_circuit;
use qnat_core::forward::{train_forward, PipelineOptions};
use qnat_core::metrics::accuracy;
use qnat_core::model::NoiseSource;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mitigation sweeps checked per run.
const ZNE_SAMPLE: usize = 8;
/// Parameters whose gradient is checked by finite differences.
const FD_PARAMS: usize = 4;

fn rotated(labels: &[usize], n_classes: usize) -> Vec<usize> {
    labels.iter().map(|&y| (y + 1) % n_classes).collect()
}

fn check_accuracy(tally: &mut Tally, logits: &[Vec<f64>], labels: &[usize]) -> f64 {
    let n_classes = model::config().n_classes;
    let acc = accuracy(logits, labels);
    tally.expect_ok("accuracy", checks::accuracy(acc, n_classes));
    let wrong = accuracy(logits, &rotated(labels, n_classes));
    tally.expect_reject(
        "accuracy on rotated labels",
        checks::accuracy(wrong, n_classes),
    );
    acc
}

/// `train-nat`: emulator accuracy of the schedule's snapshot, and
/// finite-difference gradients of the deterministic pipeline.
pub fn train(w: &mut TrainNat, seed: u64, tally: &mut Tally) -> Result<f64, String> {
    w.finish_schedule()?;
    let qnn = w.snapshot_model()?;
    let features: Vec<Vec<f64>> = w.test.iter().map(|s| s.features.clone()).collect();
    let labels: Vec<usize> = w.test.iter().map(|s| s.label).collect();
    let logits = ops::emulator_logits(&qnn, &features)?;
    let acc = check_accuracy(tally, &logits, &labels);

    // Quantization and injection off: the straight-through gradient and
    // sampled error gates have no finite-difference counterpart.
    let opts = PipelineOptions {
        noise: NoiseSource::None,
        readout: Some(&w.device),
        quantize: None,
        quant_penalty: 0.0,
        ..PipelineOptions::default()
    };
    let batch: Vec<usize> = (0..8).map(|i| (i * 31) % N_TRAIN).collect();
    let f: Vec<Vec<f64>> = batch.iter().map(|&i| w.train[i].features.clone()).collect();
    let l: Vec<usize> = batch.iter().map(|&i| w.train[i].label).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let grads = train_forward(&qnn, &f, &l, &opts, &mut rng).grads;
    // Two parameters drawn from the seed, two with the steepest gradient.
    let mut picks: Vec<usize> = (0..FD_PARAMS / 2)
        .map(|_| rng.gen_range(0..grads.len()))
        .collect();
    let mut by_size: Vec<usize> = (0..grads.len()).collect();
    by_size.sort_by(|&a, &b| grads[b].abs().total_cmp(&grads[a].abs()));
    picks.extend(by_size.into_iter().take(FD_PARAMS / 2));
    let eps = 1e-5;
    let loss_at = |k: usize, delta: f64| {
        let mut q = qnn.clone();
        let mut p = qnn.parameters().to_vec();
        p[k] += delta;
        q.set_parameters(&p);
        train_forward(&q, &f, &l, &opts, &mut StdRng::seed_from_u64(0)).loss
    };
    let fd: Vec<f64> = picks
        .iter()
        .map(|&k| (loss_at(k, eps) - loss_at(k, -eps)) / (2.0 * eps))
        .collect();
    // Largest-magnitude entries last, so the flip lands on a steep one.
    let analytic: Vec<f64> = picks.iter().map(|&k| grads[k]).collect();
    tally.expect_ok(
        "finite-difference gradients",
        checks::gradients(&analytic, &fd),
    );
    let mut flipped = analytic.clone();
    if let Some(last) = flipped.last_mut() {
        *last = -*last;
    }
    tally.expect_reject(
        "gradients with a flipped sign",
        checks::gradients(&flipped, &fd),
    );
    Ok(acc)
}

/// `infer-emulator`: every request once more, untimed, against the dense
/// reference and the in-process pipeline.
pub fn infer(s: &Served, tally: &mut Tally) -> Result<f64, String> {
    let mut all_logits = Vec::new();
    let mut all_labels = Vec::new();
    for r in 0..s.n_requests() {
        let out = s.infer_op(r)?;
        let (rows, labels) = s.request_rows(r);
        let in_process = ops::emulator_logits(&s.qnn, &rows)?;
        tally.expect_ok("served logits", checks::logits(&out.logits, &in_process));
        if r == 0 {
            let mut perturbed = out.logits.clone();
            perturbed[0] = flip_sign(&perturbed[0]);
            tally.expect_reject(
                "logits with a flipped sign",
                checks::logits(&perturbed, &in_process),
            );
            for (b, jobs) in out.jobs.iter().enumerate() {
                for (j, job) in jobs.iter().enumerate() {
                    let z = &out.window_z[b][j];
                    tally.expect_ok(
                        "served <Z>",
                        checks::served_z(&job.circuit, s.view(), z, Noise::Full),
                    );
                    if j == 0 {
                        tally.expect_reject(
                            "served <Z> with a flipped sign",
                            checks::served_z(&job.circuit, s.view(), &flip_sign(z), Noise::Full),
                        );
                        tally.expect_reject(
                            "served <Z> against a reference without damping",
                            checks::served_z(&job.circuit, s.view(), z, Noise::NoDamping),
                        );
                    }
                }
            }
            tally.expect_ok(
                "normalize+quantize",
                checks::norm_quant(&out.normalized, &out.quantized),
            );
            let mut shifted = out.normalized.clone();
            shifted[0][0] += 0.5;
            tally.expect_reject(
                "normalized outputs with a shifted value",
                checks::norm_quant(&shifted, &out.quantized),
            );
        }
        all_logits.extend(out.logits);
        all_labels.extend(labels);
    }
    let again = s.infer_op(0)?;
    tally.expect_ok(
        "repeated request",
        checks::replay(&all_logits[..again.logits.len()], &again.logits),
    );
    Ok(check_accuracy(tally, &all_logits, &all_labels))
}

/// `zne-emulator`: a sample of sweeps against reference per-scale values,
/// the benchmark's own readout inversion and extrapolation, and the
/// noise-free value.
pub fn zne(s: &Served, tally: &mut Tally) -> Result<(), String> {
    let view = s.view();
    let confusions = view.confusions();
    let (mut ideal, mut raws, mut mitigated) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..ZNE_SAMPLE.min(s.sweeps.len()) {
        let result = s.zne_op(i)?;
        let job = &s.sweeps[i];
        let circuit = &job.circuit;
        let raw = result.raw.clone().ok_or("sweep without a raw baseline")?;
        tally.expect_ok(
            "served <Z> at scale 1",
            checks::served_z(circuit, view, &raw, Noise::Full),
        );
        let mut per_scale = Vec::new();
        for &k in &job.scales {
            let folded = fold_circuit(circuit, k, job.strategy).map_err(|e| e.to_string())?;
            if k > 1 {
                tally.expect_ok(
                    "folded = unfolded noise-free",
                    checks::fold_identity(circuit, &folded),
                );
                if i == 0 {
                    let mut cut = folded.clone();
                    cut.gates_mut().pop();
                    tally.expect_reject(
                        "fold with its last gate dropped",
                        checks::fold_identity(circuit, &cut),
                    );
                }
            }
            per_scale.push(reference::noisy_z(&folded, view, Noise::Full));
        }
        let served = &result.mitigated.expectations;
        tally.expect_ok(
            "mitigated value",
            checks::mitigation(&job.scales, &per_scale, &confusions, served),
        );
        if i == 0 {
            tally.expect_reject(
                "served <Z> with a flipped sign",
                checks::served_z(circuit, view, &flip_sign(&raw), Noise::Full),
            );
            tally.expect_reject(
                "served <Z> against a reference without damping",
                checks::served_z(circuit, view, &raw, Noise::NoDamping),
            );
            let shifted: Vec<f64> = served.iter().map(|z| z + 1e-3).collect();
            tally.expect_reject(
                "a shifted extrapolation",
                checks::mitigation(&job.scales, &per_scale, &confusions, &shifted),
            );
        }
        ideal.push(reference::ideal_z(circuit));
        raws.push(raw);
        mitigated.push(served.clone());
    }
    tally.expect_ok(
        "mitigation beats raw",
        checks::mitigation_helps(&ideal, &raws, &mitigated),
    );
    tally.expect_reject(
        "raw and mitigated swapped",
        checks::mitigation_helps(&ideal, &mitigated, &raws),
    );
    Ok(())
}
