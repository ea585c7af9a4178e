//! A plain dense reference simulator, written apart from `qnat-sim`'s
//! kernels: a `2^n × 2^n` density matrix and a `2^n` statevector updated
//! by explicit index loops. It takes only the gates' matrices and the
//! device's calibration accessors from the program under test.

use qnat_noise::device::DeviceModel;
use qnat_sim::circuit::Circuit;
use qnat_sim::gate::{Gate, GateKind};
use qnat_sim::math::C64;

#[derive(Debug, Clone, Copy, PartialEq)]
struct Cx {
    re: f64,
    im: f64,
}

const ZERO: Cx = Cx { re: 0.0, im: 0.0 };
const ONE: Cx = Cx { re: 1.0, im: 0.0 };

impl Cx {
    fn real(re: f64) -> Cx {
        Cx { re, im: 0.0 }
    }
    fn mul(self, o: Cx) -> Cx {
        Cx {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }
    fn add(self, o: Cx) -> Cx {
        Cx {
            re: self.re + o.re,
            im: self.im + o.im,
        }
    }
    fn conj(self) -> Cx {
        Cx {
            re: self.re,
            im: -self.im,
        }
    }
}

impl From<C64> for Cx {
    fn from(c: C64) -> Cx {
        Cx { re: c.re, im: c.im }
    }
}

/// A `k`-qubit operator: `dim × dim` row-major, basis index with
/// `qubits[0]` as the most significant bit (the gate-matrix convention).
struct Op {
    qubits: Vec<usize>,
    m: Vec<Cx>,
}

impl Op {
    fn dim(&self) -> usize {
        1 << self.qubits.len()
    }

    fn of_gate(g: &Gate) -> Op {
        if g.arity() == 1 {
            let m = g.matrix1();
            Op {
                qubits: vec![g.qubits[0]],
                m: m.iter().flatten().map(|&c| c.into()).collect(),
            }
        } else {
            let m = g.matrix2();
            Op {
                qubits: vec![g.qubits[0], g.qubits[1]],
                m: m.iter().flatten().map(|&c| c.into()).collect(),
            }
        }
    }

    fn one(q: usize, m: [[f64; 2]; 2]) -> Op {
        Op {
            qubits: vec![q],
            m: m.iter().flatten().map(|&v| Cx::real(v)).collect(),
        }
    }

    fn one_complex(q: usize, m: [[Cx; 2]; 2]) -> Op {
        Op {
            qubits: vec![q],
            m: m.iter().flatten().copied().collect(),
        }
    }

    /// Register indices of the operator's sub-basis around `base`.
    fn indices(&self, base: usize) -> Vec<usize> {
        let k = self.qubits.len();
        (0..self.dim())
            .map(|s| {
                let mut idx = base;
                for (j, &q) in self.qubits.iter().enumerate() {
                    if (s >> (k - 1 - j)) & 1 == 1 {
                        idx |= 1 << q;
                    }
                }
                idx
            })
            .collect()
    }

    fn mask(&self) -> usize {
        self.qubits.iter().map(|&q| 1usize << q).sum()
    }
}

/// `v ← A v` for a register vector of length `d`.
fn apply_vec(v: &mut [Cx], op: &Op) {
    let dim = op.dim();
    let mask = op.mask();
    for base in 0..v.len() {
        if base & mask != 0 {
            continue;
        }
        let idx = op.indices(base);
        let old: Vec<Cx> = idx.iter().map(|&i| v[i]).collect();
        for r in 0..dim {
            let mut acc = ZERO;
            for c in 0..dim {
                acc = acc.add(op.m[r * dim + c].mul(old[c]));
            }
            v[idx[r]] = acc;
        }
    }
}

/// A dense density matrix, `rho[r * d + c]`.
pub struct Dense {
    d: usize,
    rho: Vec<Cx>,
}

impl Dense {
    fn zero_state(n: usize) -> Dense {
        let d = 1 << n;
        let mut rho = vec![ZERO; d * d];
        rho[0] = ONE;
        Dense { d, rho }
    }

    /// `A ρ A†`.
    fn conjugate(&self, op: &Op) -> Vec<Cx> {
        let d = self.d;
        let mut out = self.rho.clone();
        // Left: every column is a register vector.
        let mut col = vec![ZERO; d];
        for c in 0..d {
            for r in 0..d {
                col[r] = out[r * d + c];
            }
            apply_vec(&mut col, op);
            for r in 0..d {
                out[r * d + c] = col[r];
            }
        }
        // Right by A†: (ρ A†)[r] = conj(A conj(ρ[r]ᵀ)).
        let mut row = vec![ZERO; d];
        for r in 0..d {
            for c in 0..d {
                row[c] = out[r * d + c].conj();
            }
            apply_vec(&mut row, op);
            for c in 0..d {
                out[r * d + c] = row[c].conj();
            }
        }
        out
    }

    fn unitary(&mut self, op: &Op) {
        self.rho = self.conjugate(op);
    }

    /// `Σ_k K_k ρ K_k†`.
    fn channel(&mut self, kraus: &[Op]) {
        let mut sum = vec![ZERO; self.d * self.d];
        for k in kraus {
            for (s, t) in sum.iter_mut().zip(self.conjugate(k)) {
                *s = s.add(t);
            }
        }
        self.rho = sum;
    }

    fn prob_one(&self, q: usize) -> f64 {
        (0..self.d)
            .filter(|i| i & (1 << q) != 0)
            .map(|i| self.rho[i * self.d + i].re)
            .sum()
    }
}

fn pauli_kraus(q: usize, px: f64, py: f64, pz: f64) -> Vec<Op> {
    let s = |p: f64| p.max(0.0).sqrt();
    let p0 = 1.0 - px - py - pz;
    let y = |v: f64| Cx { re: 0.0, im: v };
    vec![
        Op::one(q, [[s(p0), 0.0], [0.0, s(p0)]]),
        Op::one(q, [[0.0, s(px)], [s(px), 0.0]]),
        Op::one_complex(q, [[ZERO, y(-s(py))], [y(s(py)), ZERO]]),
        Op::one(q, [[s(pz), 0.0], [0.0, -s(pz)]]),
    ]
}

fn amplitude_damping(q: usize, g: f64) -> Vec<Op> {
    vec![
        Op::one(q, [[1.0, 0.0], [0.0, (1.0 - g).sqrt()]]),
        Op::one(q, [[0.0, g.sqrt()], [0.0, 0.0]]),
    ]
}

fn phase_damping(q: usize, l: f64) -> Vec<Op> {
    vec![
        Op::one(q, [[1.0, 0.0], [0.0, (1.0 - l).sqrt()]]),
        Op::one(q, [[0.0, 0.0], [0.0, l.sqrt()]]),
    ]
}

/// Frame changes carry no gate error on hardware.
fn is_virtual(kind: GateKind) -> bool {
    matches!(kind, GateKind::Rz | GateKind::P | GateKind::Id)
}

/// How much of the device's noise the reference applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Noise {
    /// Pauli gate errors, amplitude and phase damping, readout confusion.
    Full,
    /// The same without the damping channels (a perturbed reference).
    NoDamping,
}

/// Noisy ⟨Z⟩ of every qubit of `circuit` on `device`: each gate, then its
/// Pauli error on every qubit it touches, then damping over the gate's
/// duration, and the readout confusion at measurement.
pub fn noisy_z(circuit: &Circuit, device: &DeviceModel, noise: Noise) -> Vec<f64> {
    let n = circuit.n_qubits();
    let mut dm = Dense::zero_state(n);
    for g in circuit.gates() {
        dm.unitary(&Op::of_gate(g));
        let specs: Vec<(usize, _)> = if g.arity() == 2 {
            let spec = device.two_qubit_error(g.qubits[0], g.qubits[1]);
            vec![(g.qubits[0], spec), (g.qubits[1], spec)]
        } else if is_virtual(g.kind) {
            Vec::new()
        } else {
            vec![(g.qubits[0], device.single_qubit_error(g.qubits[0]))]
        };
        for (q, spec) in specs {
            if spec.total() > 0.0 {
                dm.channel(&pauli_kraus(q, spec.p_x, spec.p_y, spec.p_z));
            }
        }
        if noise == Noise::Full {
            let duration = if g.arity() == 2 {
                device.tq_duration_factor()
            } else {
                1.0
            };
            for &q in &g.qubits[..g.arity()] {
                let ad = (device.amp_damping(q) * duration).min(1.0);
                let pd = (device.phase_damping(q) * duration).min(1.0);
                if ad > 0.0 {
                    dm.channel(&amplitude_damping(q, ad));
                }
                if pd > 0.0 {
                    dm.channel(&phase_damping(q, pd));
                }
            }
        }
    }
    (0..n)
        .map(|q| {
            let p1 = dm.prob_one(q);
            let m = device.readout_error(q);
            let m = m.matrix();
            let observed_one = (1.0 - p1) * m[0][1] + p1 * m[1][1];
            1.0 - 2.0 * observed_one
        })
        .collect()
}

/// Noise-free final state of `circuit`.
pub fn state(circuit: &Circuit) -> Vec<(f64, f64)> {
    let mut v = vec![ZERO; 1 << circuit.n_qubits()];
    v[0] = ONE;
    for g in circuit.gates() {
        apply_vec(&mut v, &Op::of_gate(g));
    }
    v.into_iter().map(|c| (c.re, c.im)).collect()
}

/// Noise-free ⟨Z⟩ of every qubit.
pub fn ideal_z(circuit: &Circuit) -> Vec<f64> {
    let v = state(circuit);
    (0..circuit.n_qubits())
        .map(|q| {
            v.iter()
                .enumerate()
                .map(|(i, (re, im))| {
                    let p = re * re + im * im;
                    if i & (1 << q) != 0 {
                        -p
                    } else {
                        p
                    }
                })
                .sum()
        })
        .collect()
}

/// `|⟨a|b⟩|` of two states.
pub fn overlap(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 {
    let (mut re, mut im) = (0.0, 0.0);
    for (&(ar, ai), &(br, bi)) in a.iter().zip(b) {
        re += ar * br + ai * bi;
        im += ar * bi - ai * br;
    }
    (re * re + im * im).sqrt()
}

/// The true ⟨Z⟩ behind an observed one, by inverting the 2×2 confusion
/// `m[true][observed]`.
pub fn invert_readout(z_observed: f64, m: &[[f64; 2]; 2]) -> f64 {
    // p_obs(1) = (1 − p1)·m01 + p1·m11  ⇒  p1 = (p_obs − m01)/(m11 − m01).
    let p_obs = (1.0 - z_observed) / 2.0;
    let p1 = (p_obs - m[0][1]) / (m[1][1] - m[0][1]);
    1.0 - 2.0 * p1
}

/// Intercept at `x = 0` of the least-squares line through `(xs, ys)`.
pub fn linear_intercept(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    my - (sxy / sxx) * mx
}
