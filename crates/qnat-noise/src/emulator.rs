//! Density-matrix hardware emulator — the "real quantum computer" stand-in.
//!
//! Runs a circuit exactly on the density-matrix simulator while applying,
//! after every physical gate, the device's Pauli error channel *and*
//! amplitude/phase damping (which the Pauli-twirled training model does not
//! capture — this is precisely the model/reality gap Table 11 measures).
//! Measurement applies the per-qubit readout confusion and optionally
//! finite-shot sampling.
//!
//! A run is a compile step followed by one walk over `vec(ρ)`. The
//! compiler folds each single-qubit gate and the channels that follow it
//! into one 4×4 Liouville matrix on the qubit's `vec(ρ)` bits
//! `(q + n, q)`, and multiplies consecutive ones on the same qubit into a
//! pending matrix. A two-qubit gate flushes the pending matrices on both
//! its qubits, emits its unitary on the row bits and its conjugate on the
//! column bits, and leaves its channels pending. The result is a
//! superoperator [`FusedCircuit`] that the existing `apply_mat4` kernel
//! runs once, applied in bounded segments as it is produced. The
//! channels' Liouville matrices come from a per-device table built once
//! per emulator.
//!
//! All entry points are fallible: an oversized circuit or an invalid
//! channel spec surfaces as a typed [`BackendError`] instead of a panic, so
//! the deployment pipeline can report and recover.

use crate::backend::BackendError;
use crate::device::DeviceModel;
use crate::noise_table::{NoiseForm, NoiseTable};
use qnat_sim::channel::Channel1;
use qnat_sim::circuit::Circuit;
use qnat_sim::density::DensityMatrix;
use qnat_sim::fused::{FusedCircuit, FusedOp};
use qnat_sim::gate::GateMatrix;
use qnat_sim::kernels::{conj2, conj4};
use qnat_sim::math::{kron2, mat4_mul, Mat2, Mat4, C64};
use qnat_sim::measure::sampled_expect_all_z;
use rand::Rng;

/// Most ops a compiled program holds before it is applied: long (folded)
/// circuits run in segments, so the program buffer stays at 64 ops
/// (≈ 18 KB) instead of growing with the circuit.
const SEGMENT_OPS: usize = 64;

/// A hardware emulator bound to a device model.
#[derive(Debug, Clone)]
pub struct HardwareEmulator {
    model: DeviceModel,
    /// The Liouville matrix of the noise that follows each gate, per qubit
    /// and per edge.
    noise: NoiseTable<Mat4>,
}

/// The Liouville matrix `M ⊗ M*` of the single-operator map `ρ → MρMᵈ`
/// (a gate, or one Kraus term) on a qubit's `vec(ρ)` bits `(q + n, q)`,
/// in the `apply_mat4` basis `index = 2·row + col`: entry
/// `[2r'+c'][2r+c] = M[r'][r]·conj(M[c'][c])`. Products compose right to
/// left, like the maps.
fn liouville(m: &Mat2) -> Mat4 {
    kron2(m, &conj2(m))
}

/// A channel's Liouville matrix `Σₖ Kᵏ ⊗ Kᵏ*`.
fn channel_liouville(channel: &Channel1) -> Mat4 {
    let mut s = [[C64::ZERO; 4]; 4];
    for k in channel.kraus() {
        for (row, term) in s.iter_mut().zip(&liouville(k)) {
            for (v, t) in row.iter_mut().zip(term) {
                *v += *t;
            }
        }
    }
    s
}

/// The Liouville form: each entry is the 4×4 superoperator of the noise
/// on the qubit's `vec(ρ)` bits `(q + n, q)`; a part without channels is
/// `None`, the identity.
impl NoiseForm for Mat4 {
    type Pauli = Option<Mat4>;
    type Damping = Option<Mat4>;

    fn pauli(channel: Option<Channel1>) -> Self::Pauli {
        channel.as_ref().map(channel_liouville)
    }

    fn damping(channels: Vec<Channel1>) -> Self::Damping {
        // Later channels multiply on the left.
        channels
            .iter()
            .map(channel_liouville)
            .reduce(|acc, s| mat4_mul(&s, &acc))
    }

    fn join(pauli: &Self::Pauli, damping: &Self::Damping) -> Self {
        match (pauli, damping) {
            (Some(p), Some(d)) => mat4_mul(d, p),
            (Some(m), None) | (None, Some(m)) => *m,
            (None, None) => {
                let mut id = [[C64::ZERO; 4]; 4];
                for (i, row) in id.iter_mut().enumerate() {
                    row[i] = C64::ONE;
                }
                id
            }
        }
    }
}

impl HardwareEmulator {
    /// Creates an emulator for `model`, building its noise table.
    pub fn new(model: DeviceModel) -> Self {
        HardwareEmulator {
            noise: NoiseTable::new(&model),
            model,
        }
    }

    /// The underlying device model.
    pub fn model(&self) -> &DeviceModel {
        &self.model
    }

    fn check_size(&self, circuit: &Circuit) -> Result<(), BackendError> {
        if circuit.n_qubits() > self.model.n_qubits() {
            return Err(BackendError::QubitCount {
                needed: circuit.n_qubits(),
                available: self.model.n_qubits(),
                backend: self.model.name().to_string(),
            });
        }
        Ok(())
    }

    /// Compiles `circuit` and its noise into a superoperator program over
    /// the `2n` bits of `vec(ρ)`, made only of 4×4 ops, and hands it to
    /// `apply` in order, in segments of at most [`SEGMENT_OPS`] ops.
    fn compile(
        &self,
        circuit: &Circuit,
        mut apply: impl FnMut(&FusedCircuit) -> Result<(), BackendError>,
    ) -> Result<(), BackendError> {
        let n = circuit.n_qubits();
        let mut segment = FusedCircuit::new(2 * n);
        let mut emit = |op: FusedOp| -> Result<(), BackendError> {
            segment.push(op);
            if segment.len() == SEGMENT_OPS {
                apply(&segment)?;
                segment = FusedCircuit::new(2 * n);
            }
            Ok(())
        };
        // Per qubit: the product of Liouville matrices not yet emitted.
        let mut pending: Vec<Option<Mat4>> = vec![None; n];
        let flush = |q: usize, m: Mat4| FusedOp::Two {
            qa: q + n,
            qb: q,
            m,
        };
        for g in circuit.gates() {
            match g.matrix() {
                GateMatrix::One(u) => {
                    let q = g.qubits[0];
                    let s = mat4_mul(self.noise.one(g.kind, q)?, &liouville(&u));
                    pending[q] = Some(match &pending[q] {
                        Some(p) => mat4_mul(&s, p),
                        None => s,
                    });
                }
                GateMatrix::Two(u) => {
                    let (a, b) = (g.qubits[0], g.qubits[1]);
                    let (on_a, on_b) = self.noise.two(a, b)?;
                    for q in [a, b] {
                        if let Some(m) = pending[q].take() {
                            emit(flush(q, m))?;
                        }
                    }
                    emit(FusedOp::Two {
                        qa: a + n,
                        qb: b + n,
                        m: u,
                    })?;
                    emit(FusedOp::Two {
                        qa: a,
                        qb: b,
                        m: conj4(&u),
                    })?;
                    pending[a] = Some(*on_a);
                    pending[b] = Some(*on_b);
                }
            }
        }
        for (q, m) in pending.into_iter().enumerate() {
            if let Some(m) = m {
                emit(flush(q, m))?;
            }
        }
        if segment.is_empty() {
            Ok(())
        } else {
            apply(&segment)
        }
    }

    /// Runs `circuit` with full noise (gate Pauli channels + damping) and
    /// returns the final mixed state. Readout error is *not* applied here —
    /// see [`HardwareEmulator::measure_probabilities`].
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::QubitCount`] if the circuit uses more qubits
    /// than the device has, or [`BackendError::InvalidChannel`] if the
    /// device model yields an invalid noise channel for one of its gates.
    pub fn run(&self, circuit: &Circuit) -> Result<DensityMatrix, BackendError> {
        self.check_size(circuit)?;
        let mut rho = DensityMatrix::zero_state(circuit.n_qubits());
        self.compile(circuit, |segment| {
            rho.apply_superop(segment)
                .map_err(|e| BackendError::InvalidConfig {
                    reason: e.to_string(),
                })
        })?;
        Ok(rho)
    }

    /// Final measurement distribution including readout confusion.
    ///
    /// # Errors
    ///
    /// Propagates [`HardwareEmulator::run`] errors.
    pub fn measure_probabilities(&self, circuit: &Circuit) -> Result<Vec<f64>, BackendError> {
        let rho = self.run(circuit)?;
        let mut probs = rho.probabilities();
        for q in 0..circuit.n_qubits() {
            self.model
                .readout_error(q)
                .apply_to_distribution(&mut probs, q);
        }
        Ok(probs)
    }

    /// Exact noisy Z expectations per qubit (infinite-shot limit), readout
    /// error included.
    ///
    /// # Errors
    ///
    /// Propagates [`HardwareEmulator::run`] errors.
    pub fn expect_all_z(&self, circuit: &Circuit) -> Result<Vec<f64>, BackendError> {
        let probs = self.measure_probabilities(circuit)?;
        let n = circuit.n_qubits();
        let mut p1 = vec![0.0f64; n];
        for (i, &w) in probs.iter().enumerate() {
            for (q, p) in p1.iter_mut().enumerate() {
                if i & (1 << q) != 0 {
                    *p += w;
                }
            }
        }
        Ok(p1.into_iter().map(|p| 1.0 - 2.0 * p).collect())
    }

    /// Shot-sampled noisy Z expectations per qubit (the paper uses
    /// `shots = 8192`).
    ///
    /// # Errors
    ///
    /// Propagates [`HardwareEmulator::run`] errors; returns
    /// [`BackendError::ShotBudget`] for `shots == 0`.
    pub fn sampled_expect_all_z<R: Rng>(
        &self,
        circuit: &Circuit,
        shots: usize,
        rng: &mut R,
    ) -> Result<Vec<f64>, BackendError> {
        if shots == 0 {
            return Err(BackendError::ShotBudget { requested: 0 });
        }
        let probs = self.measure_probabilities(circuit)?;
        Ok(sampled_expect_all_z(&probs, circuit.n_qubits(), shots, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use qnat_sim::gate::Gate;
    use qnat_sim::statevector::simulate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.push(Gate::ry(0, 0.8));
        c.push(Gate::sx(1));
        c.push(Gate::cx(0, 1));
        c.push(Gate::rz(1, 0.4));
        c
    }

    #[test]
    fn noise_free_emulator_matches_statevector() {
        let c = test_circuit();
        let emu = HardwareEmulator::new(presets::noise_free(2));
        let noisy = emu.expect_all_z(&c).unwrap();
        let psi = simulate(&c);
        for q in 0..2 {
            assert!((noisy[q] - psi.expect_z(q)).abs() < 1e-10);
        }
    }

    #[test]
    fn noisier_device_contracts_expectations_more() {
        // |⟨Z⟩| under noise shrinks toward 0 (γ < 1 in Theorem 3.1), and a
        // noisier device shrinks it more.
        let mut c = Circuit::new(1);
        c.push(Gate::x(0));
        for _ in 0..10 {
            c.push(Gate::sx(0));
            c.push(Gate::sx(0));
            c.push(Gate::sx(0));
            c.push(Gate::sx(0)); // four SX = identity, but noisy
        }
        let ideal = simulate(&c).expect_z(0);
        let z_sant = HardwareEmulator::new(presets::santiago())
            .expect_all_z(&c)
            .unwrap()[0];
        let z_york = HardwareEmulator::new(presets::yorktown())
            .expect_all_z(&c)
            .unwrap()[0];
        assert!((ideal + 1.0).abs() < 1e-10);
        assert!(z_sant > ideal, "santiago contracts |Z|");
        assert!(z_york > z_sant, "yorktown noisier than santiago");
    }

    #[test]
    fn trace_preserved_under_full_noise() {
        let c = test_circuit();
        for model in [presets::yorktown(), presets::melbourne()] {
            let emu = HardwareEmulator::new(model);
            let rho = emu.run(&c).unwrap();
            assert!((rho.trace() - 1.0).abs() < 1e-9);
            assert!(rho.hermiticity_error() < 1e-9);
        }
    }

    #[test]
    fn measurement_distribution_normalized() {
        let c = test_circuit();
        let emu = HardwareEmulator::new(presets::belem());
        let probs = emu.measure_probabilities(&c).unwrap();
        let total: f64 = probs.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(probs.iter().all(|&p| p >= -1e-12));
    }

    #[test]
    fn sampled_expectations_converge_to_exact() {
        let c = test_circuit();
        let emu = HardwareEmulator::new(presets::santiago());
        let exact = emu.expect_all_z(&c).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let sampled = emu.sampled_expect_all_z(&c, 50_000, &mut rng).unwrap();
        for q in 0..2 {
            assert!(
                (sampled[q] - exact[q]).abs() < 0.03,
                "q{q}: {} vs {}",
                sampled[q],
                exact[q]
            );
        }
    }

    #[test]
    fn oversized_circuit_is_typed_error() {
        let c = Circuit::new(6);
        let err = HardwareEmulator::new(presets::santiago())
            .run(&c)
            .unwrap_err();
        assert!(matches!(
            err,
            BackendError::QubitCount {
                needed: 6,
                available: 5,
                ..
            }
        ));
        assert!(!err.is_retryable());
    }

    #[test]
    fn zero_shots_is_typed_error() {
        let c = test_circuit();
        let emu = HardwareEmulator::new(presets::santiago());
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            emu.sampled_expect_all_z(&c, 0, &mut rng).unwrap_err(),
            BackendError::ShotBudget { requested: 0 }
        );
    }
}
