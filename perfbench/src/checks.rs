//! Output checks against computations made apart from the program, and a
//! self-test that feeds each check a perturbed result it must reject.
//!
//! Every check is a pure function returning `Err(reason)` on a mismatch,
//! so the self-test can drive the same code with broken inputs.

use crate::reference::{self, Noise};
use qnat_noise::device::DeviceModel;
use qnat_sim::circuit::Circuit;

pub type Check = Result<(), String>;

/// Served ⟨Z⟩ of a circuit equals the dense reference to 1e-9.
pub fn served_z(circuit: &Circuit, device: &DeviceModel, served: &[f64], noise: Noise) -> Check {
    let want = reference::noisy_z(circuit, device, noise);
    close("served <Z>", served, &want, 1e-9)
}

/// A folded circuit prepares the same state as the unfolded one.
pub fn fold_identity(unfolded: &Circuit, folded: &Circuit) -> Check {
    let a = reference::state(unfolded);
    let b = reference::state(folded);
    let ov = reference::overlap(&a, &b);
    if (ov - 1.0).abs() > 1e-9 {
        return Err(format!("folded state overlap {ov} != 1"));
    }
    close(
        "folded noise-free <Z>",
        &reference::ideal_z(folded),
        &reference::ideal_z(unfolded),
        1e-9,
    )
}

/// Readout inversion per scale, then the least-squares line's intercept,
/// clamped to `[-1, 1]`, reproduces the served mitigated value.
pub fn mitigation(
    scales: &[usize],
    per_scale: &[Vec<f64>],
    confusions: &[[[f64; 2]; 2]],
    served: &[f64],
) -> Check {
    let xs: Vec<f64> = scales.iter().map(|&s| s as f64).collect();
    let want: Vec<f64> = (0..served.len())
        .map(|q| {
            let ys: Vec<f64> = per_scale
                .iter()
                .map(|zs| reference::invert_readout(zs[q], &confusions[q]))
                .collect();
            reference::linear_intercept(&xs, &ys).clamp(-1.0, 1.0)
        })
        .collect();
    close("mitigated <Z>", served, &want, 1e-9)
}

/// Mean |mitigated − ideal| stays below mean |raw − ideal|.
pub fn mitigation_helps(ideal: &[Vec<f64>], raw: &[Vec<f64>], mitigated: &[Vec<f64>]) -> Check {
    let mean_dev = |xs: &[Vec<f64>]| {
        let (sum, n) = xs
            .iter()
            .zip(ideal)
            .flat_map(|(a, b)| a.iter().zip(b).map(|(x, y)| (x - y).abs()))
            .fold((0.0, 0usize), |(s, n), d| (s + d, n + 1));
        sum / n.max(1) as f64
    };
    let (r, m) = (mean_dev(raw), mean_dev(mitigated));
    if m < r {
        Ok(())
    } else {
        Err(format!("mitigated deviation {m:.5} not below raw {r:.5}"))
    }
}

/// After normalization every qubit's batch mean is 0 and its std 1; the
/// quantized values sit on the 5-level grid of `[-2, 2]` at the level
/// nearest each clipped normalized value.
pub fn norm_quant(normalized: &[Vec<f64>], quantized: &[Vec<f64>]) -> Check {
    let n = normalized.len() as f64;
    let n_q = normalized.first().map_or(0, Vec::len);
    for q in 0..n_q {
        let mean = normalized.iter().map(|r| r[q]).sum::<f64>() / n;
        let var = normalized
            .iter()
            .map(|r| (r[q] - mean).powi(2))
            .sum::<f64>()
            / n;
        if mean.abs() > 1e-9 {
            return Err(format!("qubit {q}: normalized mean {mean:e}"));
        }
        // The normalizer divides by sqrt(var + 1e-8), so std sits a hair
        // below 1.
        if (var.sqrt() - 1.0).abs() > 1e-4 {
            return Err(format!("qubit {q}: normalized std {}", var.sqrt()));
        }
    }
    let grid = [-2.0, -1.0, 0.0, 1.0, 2.0];
    for (row_n, row_q) in normalized.iter().zip(quantized) {
        for (&x, &y) in row_n.iter().zip(row_q) {
            let clipped = x.clamp(-2.0, 2.0);
            let best = grid.iter().map(|&g| (g, (g - clipped).abs())).fold(
                (f64::NAN, f64::INFINITY),
                |a, b| if b.1 < a.1 { b } else { a },
            );
            let on_grid = grid.contains(&y);
            // A value exactly between two levels may round either way.
            if !on_grid || ((y - clipped).abs() - best.1).abs() > 1e-12 {
                return Err(format!("{x} quantized to {y}, nearest level {}", best.0));
            }
        }
    }
    Ok(())
}

/// Served logits equal the in-process pipeline's.
pub fn logits(served: &[Vec<f64>], in_process: &[Vec<f64>]) -> Check {
    if served.len() != in_process.len() {
        return Err(format!(
            "{} served rows vs {}",
            served.len(),
            in_process.len()
        ));
    }
    for (i, (a, b)) in served.iter().zip(in_process).enumerate() {
        close(&format!("logits row {i}"), a, b, 1e-9)?;
    }
    Ok(())
}

/// Analytic gradient entries equal central finite differences:
/// `fd[k] = (loss(θ + ε e_k) − loss(θ − ε e_k)) / 2ε`.
pub fn gradients(analytic: &[f64], fd: &[f64]) -> Check {
    for (k, (a, f)) in analytic.iter().zip(fd).enumerate() {
        if (a - f).abs() > 1e-6 + 1e-4 * f.abs() {
            return Err(format!(
                "gradient sample {k}: autodiff {a} vs finite difference {f}"
            ));
        }
    }
    Ok(())
}

/// Accuracy at least twice chance.
pub fn accuracy(acc: f64, n_classes: usize) -> Check {
    let floor = 2.0 / n_classes as f64;
    if acc >= floor {
        Ok(())
    } else {
        Err(format!("accuracy {acc:.3} below twice chance ({floor:.3})"))
    }
}

/// Two runs of the same request answer bitwise the same.
pub fn replay(first: &[Vec<f64>], again: &[Vec<f64>]) -> Check {
    if first == again {
        Ok(())
    } else {
        Err("a repeated request answered differently".into())
    }
}

fn close(what: &str, got: &[f64], want: &[f64], tol: f64) -> Check {
    if got.len() != want.len() {
        return Err(format!("{what}: {} values vs {}", got.len(), want.len()));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let gap = (g - w).abs();
        if gap.is_nan() || gap > tol {
            return Err(format!("{what}[{i}]: {g} vs reference {w}"));
        }
    }
    Ok(())
}

/// Records check outcomes; any failure makes the run incorrect.
#[derive(Default)]
pub struct Tally {
    pub failures: Vec<String>,
    pub passed: usize,
}

impl Tally {
    pub fn expect_ok(&mut self, name: &str, result: Check) {
        match result {
            Ok(()) => self.passed += 1,
            Err(e) => self.failures.push(format!("{name}: {e}")),
        }
    }

    /// A perturbed input the check must reject.
    pub fn expect_reject(&mut self, name: &str, result: Check) {
        match result {
            Err(_) => self.passed += 1,
            Ok(()) => self.failures.push(format!(
                "self-test {name}: the check accepted a perturbed result"
            )),
        }
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Flips the sign of the first entry with magnitude above `1e-3`.
pub fn flip_sign(xs: &[f64]) -> Vec<f64> {
    let mut out = xs.to_vec();
    if let Some(x) = out.iter_mut().find(|x| x.abs() > 1e-3) {
        *x = -*x;
    }
    out
}
