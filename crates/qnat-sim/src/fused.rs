//! Fused-circuit IR: the executable form produced by the compiler's gate
//! fusion pass (`qnat_compiler::fusion`) and by the hardware emulator's
//! noisy-circuit compiler (`qnat_noise::emulator`).
//!
//! A [`FusedCircuit`] is an ordered list of dense 2×2 / 4×4 matrices on
//! named bits, with no gate names or parameters left. Two kinds of
//! program share it:
//!
//! - **Unitary programs** over `n` qubits — one 2×2 per surviving
//!   single-qubit run, one 4×4 per CX-sandwiched two-qubit run — run on a
//!   statevector, or on a density matrix as `ρ → UρU†` through
//!   [`DensityMatrix::try_run_fused`].
//! - **Superoperator programs** over the `2n` bits of `vec(ρ)` (bits
//!   `n..2n` the row, `0..n` the column): each op is a linear map on
//!   `vec(ρ)` itself — a Liouville matrix of a gate plus its noise
//!   channels on bits `(q + n, q)`, or one side of a two-qubit gate — and
//!   runs once through [`DensityMatrix::apply_superop`].
//!
//! Executing either walks the amplitudes once per op through the
//! branch-free kernels in [`crate::kernels`], which is where the
//! fuse-once-run-many speedup for repeated inference comes from.
//!
//! Semantics contract: running a fused circuit must reproduce the unfused
//! circuit's outputs within 1e-12 on both the statevector and the
//! density-matrix (`vec(ρ)` bra/ket) paths — pinned by the equivalence
//! proptests in `qnat-compiler` (unitary fusion) and `qnat-noise`
//! (noisy superoperator compilation).

use crate::circuit::Circuit;
use crate::density::DensityMatrix;
use crate::kernels::{apply_mat2, apply_mat4, conj2, conj4};
use crate::math::{C64, Mat2, Mat4};
use crate::statevector::{RegisterMismatchError, StateVector};

/// One fused op: a dense matrix plus the bits it acts on. In a unitary
/// program the matrix is a unitary on qubits; in a superoperator program
/// the "qubits" are `vec(ρ)` bits and the matrix may be any linear map on
/// them, e.g. a non-unitary Liouville matrix of a noise channel.
#[derive(Debug, Clone, PartialEq)]
pub enum FusedOp {
    /// A 2×2 matrix on one bit (a collapsed run of single-qubit gates).
    One {
        /// Target qubit.
        q: usize,
        /// The accumulated matrix.
        m: Mat2,
    },
    /// A 4×4 matrix on an ordered bit pair, in the basis
    /// `index = 2·bit(qa) + bit(qb)`.
    Two {
        /// First qubit (the `2·bit` axis of the matrix basis).
        qa: usize,
        /// Second qubit (the `1·bit` axis).
        qb: usize,
        /// The accumulated matrix.
        m: Mat4,
    },
}

impl FusedOp {
    /// `true` if the op touches qubit `q`.
    pub fn touches(&self, q: usize) -> bool {
        match *self {
            FusedOp::One { q: t, .. } => t == q,
            FusedOp::Two { qa, qb, .. } => qa == q || qb == q,
        }
    }
}

/// A compiled, fused circuit: dense ops in execution order — unitaries
/// on `n` qubits, or Liouville superoperators on the `2n` bits of
/// `vec(ρ)` (see the module docs for the two kinds).
#[derive(Debug, Clone, PartialEq)]
pub struct FusedCircuit {
    n_qubits: usize,
    ops: Vec<FusedOp>,
}

impl FusedCircuit {
    /// An empty fused circuit over `n_qubits` qubits (the identity). A
    /// superoperator program for an `n`-qubit density matrix is built with
    /// `n_qubits = 2n`.
    pub fn new(n_qubits: usize) -> Self {
        FusedCircuit {
            n_qubits,
            ops: Vec::new(),
        }
    }

    /// Register size (in `vec(ρ)` bits for a superoperator program).
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The fused ops in execution order.
    pub fn ops(&self) -> &[FusedOp] {
        &self.ops
    }

    /// Number of fused ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the circuit is the identity (no ops).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Appends a fused op.
    ///
    /// # Panics
    ///
    /// Panics if the op addresses a qubit outside the register or a
    /// two-qubit op addresses the same qubit twice.
    pub fn push(&mut self, op: FusedOp) {
        match op {
            FusedOp::One { q, .. } => {
                assert!(q < self.n_qubits, "fused op qubit {q} out of range");
            }
            FusedOp::Two { qa, qb, .. } => {
                assert!(
                    qa < self.n_qubits && qb < self.n_qubits && qa != qb,
                    "fused op qubits ({qa},{qb}) invalid for {}-qubit register",
                    self.n_qubits
                );
            }
        }
        self.ops.push(op);
    }

    /// Applies every fused op to a raw amplitude slice (statevector
    /// layout: qubit `q` = bit `q`).
    ///
    /// # Panics
    ///
    /// Panics if the slice is shorter than `2^n_qubits` (the kernels'
    /// dispatch checks fire on the first op).
    pub fn apply_to_amps(&self, amps: &mut [C64]) {
        for op in &self.ops {
            match op {
                FusedOp::One { q, m } => apply_mat2(amps, *q, m),
                FusedOp::Two { qa, qb, m } => apply_mat4(amps, *qa, *qb, m),
            }
        }
    }
}

impl StateVector {
    /// Runs a fused circuit, or reports a register mismatch.
    ///
    /// # Errors
    ///
    /// Returns [`RegisterMismatchError`] if the fused register is larger
    /// than the state register; the state is left untouched.
    pub fn try_run_fused(&mut self, fused: &FusedCircuit) -> Result<(), RegisterMismatchError> {
        if fused.n_qubits() > self.n_qubits() {
            return Err(RegisterMismatchError {
                circuit_qubits: fused.n_qubits(),
                state_qubits: self.n_qubits(),
            });
        }
        fused.apply_to_amps(self.amps_mut());
        Ok(())
    }

    /// Runs a fused circuit.
    ///
    /// # Panics
    ///
    /// Panics if the fused register is larger than the state register; use
    /// [`try_run_fused`](Self::try_run_fused) to handle that as an error.
    pub fn run_fused(&mut self, fused: &FusedCircuit) {
        self.try_run_fused(fused)
            .expect("fused circuit register larger than state register");
    }
}

impl DensityMatrix {
    /// Runs a fused circuit as ρ → UρU† through the `vec(ρ)` kernels
    /// (ket-side op on bit `q + n`, conjugated bra-side op on bit `q`).
    ///
    /// # Errors
    ///
    /// Returns [`RegisterMismatchError`] if the fused register is larger
    /// than the state register; the state is left untouched.
    pub fn try_run_fused(&mut self, fused: &FusedCircuit) -> Result<(), RegisterMismatchError> {
        let n = self.n_qubits();
        if fused.n_qubits() > n {
            return Err(RegisterMismatchError {
                circuit_qubits: fused.n_qubits(),
                state_qubits: n,
            });
        }
        for op in fused.ops() {
            match op {
                FusedOp::One { q, m } => {
                    apply_mat2(self.data_mut(), q + n, m);
                    apply_mat2(self.data_mut(), *q, &conj2(m));
                }
                FusedOp::Two { qa, qb, m } => {
                    apply_mat4(self.data_mut(), qa + n, qb + n, m);
                    apply_mat4(self.data_mut(), *qa, *qb, &conj4(m));
                }
            }
        }
        Ok(())
    }

    /// Runs a fused circuit as ρ → UρU†.
    ///
    /// # Panics
    ///
    /// Panics if the fused register is larger than the state register; use
    /// [`try_run_fused`](Self::try_run_fused) to handle that as an error.
    pub fn run_fused(&mut self, fused: &FusedCircuit) {
        self.try_run_fused(fused)
            .expect("fused circuit register larger than state register");
    }
}

/// Convenience: runs `fused` from `|0…0⟩` and returns the final state.
pub fn simulate_fused(fused: &FusedCircuit) -> StateVector {
    let mut psi = StateVector::zero_state(fused.n_qubits());
    psi.run_fused(fused);
    psi
}

/// Degenerate "fusion": one fused op per gate, no merging. Useful as a
/// baseline and for tests that need a `FusedCircuit` without pulling in
/// the compiler pass.
pub fn fuse_trivial(circuit: &Circuit) -> FusedCircuit {
    use crate::gate::GateMatrix;
    let mut out = FusedCircuit::new(circuit.n_qubits());
    for g in circuit.gates() {
        match g.matrix() {
            GateMatrix::One(m) => out.push(FusedOp::One {
                q: g.qubits[0],
                m,
            }),
            GateMatrix::Two(m) => out.push(FusedOp::Two {
                qa: g.qubits[0],
                qb: g.qubits[1],
                m,
            }),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use crate::statevector::simulate;

    fn sample_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.push(Gate::h(0));
        c.push(Gate::u3(1, 0.7, -0.2, 0.5));
        c.push(Gate::cx(0, 2));
        c.push(Gate::rzz(1, 2, 0.33));
        c.push(Gate::cu3(2, 0, 0.4, 0.1, -0.6));
        c
    }

    #[test]
    fn trivial_fusion_matches_unfused_statevector() {
        let c = sample_circuit();
        let fused = fuse_trivial(&c);
        assert_eq!(fused.len(), c.len());
        let psi = simulate(&c);
        let phi = simulate_fused(&fused);
        for (a, b) in psi.amplitudes().iter().zip(phi.amplitudes()) {
            assert!(a.approx_eq(*b, 1e-13));
        }
    }

    #[test]
    fn trivial_fusion_matches_unfused_density() {
        let c = sample_circuit();
        let fused = fuse_trivial(&c);
        let mut rho_a = DensityMatrix::zero_state(3);
        rho_a.run(&c);
        let mut rho_b = DensityMatrix::zero_state(3);
        rho_b.run_fused(&fused);
        for r in 0..8 {
            for col in 0..8 {
                assert!(rho_a.element(r, col).approx_eq(rho_b.element(r, col), 1e-13));
            }
        }
    }

    #[test]
    fn try_run_fused_rejects_oversized_register() {
        let fused = fuse_trivial(&sample_circuit());
        let mut psi = StateVector::zero_state(2);
        assert!(psi.try_run_fused(&fused).is_err());
        let mut rho = DensityMatrix::zero_state(2);
        assert!(rho.try_run_fused(&fused).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_validates_qubits() {
        let mut f = FusedCircuit::new(2);
        f.push(FusedOp::One {
            q: 2,
            m: Gate::h(0).matrix1(),
        });
    }
}
