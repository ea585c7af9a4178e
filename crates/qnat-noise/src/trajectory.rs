//! Monte-Carlo trajectory hardware emulator.
//!
//! Exact density-matrix emulation scales as 4ⁿ and is impractical beyond
//! ~7 qubits; the 10-qubit Melbourne experiments instead use quantum
//! trajectories: each run samples one Kraus outcome per channel on a
//! statevector (2ⁿ), and averaging over trajectories converges to the
//! density-matrix result. The noise placement is identical to
//! [`crate::emulator::HardwareEmulator`]: Pauli gate-error channels plus
//! amplitude/phase damping after every physical gate, readout confusion at
//! measurement. Both read their channels, in Kraus form here, from the
//! same per-device noise table, built once per emulator. Like the
//! density-matrix emulator, every entry point returns typed
//! [`BackendError`]s instead of panicking.

use crate::backend::BackendError;
use crate::device::DeviceModel;
use crate::noise_table::{NoiseTable, QubitNoise};
use qnat_sim::circuit::Circuit;
use qnat_sim::statevector::StateVector;
use rand::Rng;

/// A trajectory-sampling emulator bound to a device model.
#[derive(Debug, Clone)]
pub struct TrajectoryEmulator {
    model: DeviceModel,
    noise: NoiseTable<QubitNoise>,
    /// Trajectories averaged per evaluation.
    pub n_trajectories: usize,
}

/// Samples the channels that follow one gate: every touched qubit's Pauli
/// channel first, then each qubit's damping, one random draw per channel.
fn apply_sampled<R: Rng>(psi: &mut StateVector, sites: &[(usize, &QubitNoise)], rng: &mut R) {
    for (q, noise) in sites {
        if let Some(ch) = &noise.pauli {
            psi.apply_channel1_sampled(*q, ch, rng);
        }
    }
    for (q, noise) in sites {
        for ch in &noise.damping {
            psi.apply_channel1_sampled(*q, ch, rng);
        }
    }
}

impl TrajectoryEmulator {
    /// Creates an emulator averaging `n_trajectories` runs.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::InvalidConfig`] if `n_trajectories == 0`.
    pub fn new(model: DeviceModel, n_trajectories: usize) -> Result<Self, BackendError> {
        if n_trajectories == 0 {
            return Err(BackendError::InvalidConfig {
                reason: "need at least one trajectory".into(),
            });
        }
        Ok(TrajectoryEmulator {
            noise: NoiseTable::new(&model),
            model,
            n_trajectories,
        })
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

    /// Runs one noisy trajectory and returns the final pure state.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::QubitCount`] or
    /// [`BackendError::InvalidChannel`].
    pub fn run_one<R: Rng>(
        &self,
        circuit: &Circuit,
        rng: &mut R,
    ) -> Result<StateVector, BackendError> {
        self.check_size(circuit)?;
        let mut psi = StateVector::zero_state(circuit.n_qubits());
        for g in circuit.gates() {
            psi.apply(g);
            if g.arity() == 2 {
                let (a, b) = (g.qubits[0], g.qubits[1]);
                let (on_a, on_b) = self.noise.two(a, b)?;
                apply_sampled(&mut psi, &[(a, on_a), (b, on_b)], rng);
            } else {
                let q = g.qubits[0];
                apply_sampled(&mut psi, &[(q, self.noise.one(g.kind, q)?)], rng);
            }
        }
        Ok(psi)
    }

    /// Noisy Z expectations averaged over trajectories, readout error
    /// included.
    ///
    /// # Errors
    ///
    /// Propagates [`TrajectoryEmulator::run_one`] errors.
    pub fn expect_all_z<R: Rng>(
        &self,
        circuit: &Circuit,
        rng: &mut R,
    ) -> Result<Vec<f64>, BackendError> {
        let n = circuit.n_qubits();
        let mut acc = vec![0.0f64; n];
        for _ in 0..self.n_trajectories {
            let psi = self.run_one(circuit, rng)?;
            for (q, a) in acc.iter_mut().enumerate() {
                let z = psi.expect_z(q);
                *a += self.model.readout_error(q).apply_to_expectation(z);
            }
        }
        Ok(acc
            .into_iter()
            .map(|a| a / self.n_trajectories as f64)
            .collect())
    }

    /// Shot-sampled noisy Z expectations: shots are distributed over the
    /// trajectories.
    ///
    /// # Errors
    ///
    /// Propagates [`TrajectoryEmulator::run_one`] errors; returns
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
        let n = circuit.n_qubits();
        let per_traj = (shots / self.n_trajectories).max(1);
        let mut acc = vec![0.0f64; n];
        let mut total = 0usize;
        for _ in 0..self.n_trajectories {
            let psi = self.run_one(circuit, rng)?;
            let mut probs = psi.probabilities();
            for q in 0..n {
                self.model
                    .readout_error(q)
                    .apply_to_distribution(&mut probs, q);
            }
            let z = qnat_sim::measure::sampled_expect_all_z(&probs, n, per_traj, rng);
            for (a, v) in acc.iter_mut().zip(&z) {
                *a += v * per_traj as f64;
            }
            total += per_traj;
        }
        Ok(acc.into_iter().map(|a| a / total as f64).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emulator::HardwareEmulator;
    use crate::presets;
    use qnat_sim::gate::Gate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.push(Gate::ry(0, 0.8));
        c.push(Gate::sx(1));
        c.push(Gate::cx(0, 1));
        c.push(Gate::x(0));
        c
    }

    #[test]
    fn trajectories_converge_to_density_matrix() {
        let c = test_circuit();
        let model = presets::yorktown().scaled(10.0); // exaggerate noise
        let exact = HardwareEmulator::new(model.clone())
            .expect_all_z(&c)
            .unwrap();
        let traj = TrajectoryEmulator::new(model, 4000).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let approx = traj.expect_all_z(&c, &mut rng).unwrap();
        for q in 0..2 {
            assert!(
                (approx[q] - exact[q]).abs() < 0.05,
                "q{q}: trajectory {} vs exact {}",
                approx[q],
                exact[q]
            );
        }
    }

    #[test]
    fn noise_free_trajectory_is_deterministic() {
        let c = test_circuit();
        let traj = TrajectoryEmulator::new(presets::noise_free(2), 3).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let z = traj.expect_all_z(&c, &mut rng).unwrap();
        let psi = qnat_sim::statevector::simulate(&c);
        for q in 0..2 {
            assert!((z[q] - psi.expect_z(q)).abs() < 1e-10);
        }
    }

    #[test]
    fn shot_sampling_close_to_exact() {
        let c = test_circuit();
        let model = presets::santiago();
        let traj = TrajectoryEmulator::new(model, 64).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let exact = traj.expect_all_z(&c, &mut rng).unwrap();
        let sampled = traj.sampled_expect_all_z(&c, 64 * 2048, &mut rng).unwrap();
        for q in 0..2 {
            // Both estimators carry trajectory variance (σ ≈ 0.01); allow
            // a generous 6σ band to keep the test deterministic-in-practice.
            assert!(
                (exact[q] - sampled[q]).abs() < 0.08,
                "q{q}: {} vs {}",
                exact[q],
                sampled[q]
            );
        }
    }

    /// Reading channels from the noise table leaves every random draw and
    /// every amplitude where per-gate channel construction put them: the
    /// bits below were recorded from the per-gate implementation. The
    /// circuit covers virtual gates, coupled pairs in both orders and an
    /// uncoupled pair (2, 0), on a noise-amplified Santiago.
    #[test]
    fn fixed_seed_outputs_are_bitwise_pinned() {
        let mut c = Circuit::new(3);
        c.push(Gate::sx(0));
        c.push(Gate::rz(1, 0.3));
        c.push(Gate::cx(0, 1));
        c.push(Gate::u3(2, 0.7, -0.2, 0.4));
        c.push(Gate::cx(1, 2));
        c.push(Gate::cx(2, 0));
        c.push(Gate::x(1));
        c.push(Gate::p(2, 0.9));
        let traj = TrajectoryEmulator::new(presets::santiago().scaled(6.0), 24).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let z = traj.expect_all_z(&c, &mut rng).unwrap();
        let sampled = traj.sampled_expect_all_z(&c, 4096, &mut rng).unwrap();
        let psi = traj.run_one(&c, &mut rng).unwrap();
        let z_bits: Vec<u64> = z.iter().chain(&sampled).map(|v| v.to_bits()).collect();
        assert_eq!(
            z_bits,
            [
                0x3fc8_9932_5eb3_1a87,
                0x3fb7_8dac_35c2_a3bd,
                0x3fa8_66c5_09d1_0b70,
                0x3fd3_5353_5353_5353,
                0x3fa2_1212_1212_1210,
                0x3f91_9191_9191_9193,
            ]
        );
        let amp_bits: Vec<(u64, u64)> = psi
            .amplitudes()
            .iter()
            .map(|a| (a.re.to_bits(), a.im.to_bits()))
            .collect();
        assert_eq!(
            amp_bits,
            [
                (0, 0),
                (0x3fc2_9ae2_c260_dc50, 0xbfd3_ff80_50b3_8ccd),
                (0, 0),
                (0, 0),
                (0xbfee_055a_61cf_c275, 0x3fa1_0293_bc11_fcd0),
                (0, 0),
                (0, 0),
                (0, 0),
            ]
        );
    }

    #[test]
    fn zero_trajectories_is_typed_error() {
        let err = TrajectoryEmulator::new(presets::santiago(), 0).unwrap_err();
        assert!(matches!(err, BackendError::InvalidConfig { .. }));
    }

    #[test]
    fn oversized_circuit_is_typed_error() {
        let traj = TrajectoryEmulator::new(presets::santiago(), 2).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let err = traj.expect_all_z(&Circuit::new(9), &mut rng).unwrap_err();
        assert!(matches!(err, BackendError::QubitCount { needed: 9, .. }));
    }
}
