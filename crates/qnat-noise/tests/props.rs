//! Property-based tests for noise models: probability sanity, scaling
//! laws, injection structure, emulator physicality, and the equivalence
//! pin of the emulator's compiled superoperator path against a
//! gate-by-gate Kraus reference.

use proptest::prelude::*;
use qnat_noise::device::DeviceModel;
use qnat_noise::emulator::HardwareEmulator;
use qnat_noise::error_spec::PauliErrorSpec;
use qnat_noise::inject::{expected_overhead, insert_error_gates};
use qnat_noise::presets;
use qnat_noise::readout::ReadoutError;
use qnat_sim::channel::Channel1;
use qnat_sim::circuit::{try_invert_gate, Circuit};
use qnat_sim::density::DensityMatrix;
use qnat_sim::gate::{Gate, GateKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_spec() -> impl Strategy<Value = PauliErrorSpec> {
    (0.0f64..0.3, 0.0f64..0.3, 0.0f64..0.3)
        .prop_map(|(x, y, z)| PauliErrorSpec::new(x, y, z).unwrap())
}

fn arb_circuit() -> impl Strategy<Value = Circuit> {
    prop::collection::vec(
        prop_oneof![
            (0usize..4).prop_map(Gate::sx),
            (0usize..4).prop_map(Gate::x),
            (0usize..4, -3.0f64..3.0).prop_map(|(q, a)| Gate::rz(q, a)),
            (0usize..4, 1usize..4).prop_map(|(a, d)| Gate::cx(a, (a + d) % 4)),
        ],
        1..25,
    )
    .prop_map(|gates| {
        let mut c = Circuit::new(4);
        c.extend(gates);
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn spec_scaling_is_linear_below_cap(spec in arb_spec(), t in 0.0f64..2.0) {
        let scaled = spec.scaled(t);
        let expect = (spec.total() * t).min(1.0);
        prop_assert!(
            (scaled.total() - expect).abs() < 1e-9,
            "total {} expected {}", scaled.total(), expect
        );
        prop_assert!(scaled.validate().is_ok());
    }

    #[test]
    fn readout_rows_are_stochastic(p01 in 0.0f64..0.5, p10 in 0.0f64..0.5, t in 0.0f64..2.0) {
        let r = ReadoutError::asymmetric(p01, p10).unwrap().scaled(t);
        for row in r.matrix() {
            prop_assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn readout_expectation_map_is_contraction(
        p01 in 0.0f64..0.4,
        p10 in 0.0f64..0.4,
        z in -1.0f64..1.0,
    ) {
        let r = ReadoutError::asymmetric(p01, p10).unwrap();
        let out = r.apply_to_expectation(z);
        prop_assert!((-1.0..=1.0).contains(&out));
    }

    #[test]
    fn injection_keeps_original_gates_in_order(circuit in arb_circuit(), seed in 0u64..100) {
        let model = presets::yorktown();
        let mut rng = StdRng::seed_from_u64(seed);
        let (noisy, stats) = insert_error_gates(&circuit, &model, 1.5, &mut rng);
        prop_assert_eq!(noisy.len(), circuit.len() + stats.inserted_gates);
        // Removing inserted Pauli gates recovers the original sequence.
        let mut orig = circuit.gates().iter();
        let mut matched = 0usize;
        for g in noisy.gates() {
            if let Some(o) = orig.clone().next() {
                if g == o {
                    orig.next();
                    matched += 1;
                    continue;
                }
            }
            // Inserted gates are always bare Paulis.
            prop_assert!(matches!(g.kind, GateKind::X | GateKind::Y | GateKind::Z));
        }
        prop_assert_eq!(matched, circuit.len());
    }

    #[test]
    fn expected_overhead_scales_with_t(circuit in arb_circuit(), t in 0.1f64..1.5) {
        let model = presets::belem();
        let base = expected_overhead(&circuit, &model, 1.0);
        let scaled = expected_overhead(&circuit, &model, t);
        prop_assert!((scaled - base * t).abs() < 1e-9);
    }

    #[test]
    fn emulator_output_is_physical(circuit in arb_circuit()) {
        let emu = HardwareEmulator::new(presets::yorktown());
        let probs = emu.measure_probabilities(&circuit).unwrap();
        prop_assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-8);
        prop_assert!(probs.iter().all(|&p| p >= -1e-9));
        for z in emu.expect_all_z(&circuit).unwrap() {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&z));
        }
    }

    #[test]
    fn device_json_round_trip(scale in 0.1f64..2.0) {
        for d in presets::all_devices() {
            let scaled = d.scaled(scale);
            let back = DeviceModel::from_json(&scaled.to_json()).unwrap();
            prop_assert_eq!(scaled, back);
        }
    }

    #[test]
    fn subdevice_is_consistent(keep in prop::collection::vec(0usize..5, 2..4)) {
        let mut keep = keep;
        keep.sort_unstable();
        keep.dedup();
        prop_assume!(keep.len() >= 2);
        let d = presets::santiago();
        let sub = d.subdevice(&keep).unwrap();
        prop_assert_eq!(sub.n_qubits(), keep.len());
        for (i, &p) in keep.iter().enumerate() {
            prop_assert_eq!(sub.single_qubit_error(i), d.single_qubit_error(p));
            prop_assert_eq!(sub.readout_error(i), d.readout_error(p));
        }
    }
}

// ---------------------------------------------------------------------
// Compiled emulator ≡ gate-by-gate Kraus reference
// ---------------------------------------------------------------------

const PIN_QUBITS: usize = 4;
const PIN_TOL: f64 = 1e-12;

/// A random gate of any kind in `GateKind::ALL`, on random in-range
/// qubits (distinct for two-qubit kinds, coupled or not), with random
/// angles in every parameter slot.
fn arb_any_gate() -> impl Strategy<Value = Gate> {
    (
        0..GateKind::ALL.len(),
        0..PIN_QUBITS,
        1..PIN_QUBITS,
        (-3.0f64..3.0, -3.0f64..3.0, -3.0f64..3.0),
    )
        .prop_map(|(k, qa, d, (p0, p1, p2))| Gate {
            kind: GateKind::ALL[k],
            qubits: [qa, (qa + d) % PIN_QUBITS],
            params: [p0, p1, p2],
        })
}

fn arb_any_circuit(max_gates: usize) -> impl Strategy<Value = Circuit> {
    prop::collection::vec(arb_any_gate(), 0..max_gates).prop_map(|gates| {
        let mut c = Circuit::new(PIN_QUBITS);
        c.extend(gates);
        c
    })
}

/// The emulator's noise placement, replayed gate by gate through the
/// public Kraus calls: the gate, each touched qubit's Pauli channel, then
/// each touched qubit's amplitude and phase damping over the gate's
/// duration.
fn kraus_reference(model: &DeviceModel, circuit: &Circuit) -> DensityMatrix {
    let mut rho = DensityMatrix::zero_state(circuit.n_qubits());
    for g in circuit.gates() {
        rho.apply_gate(g);
        for (q, spec) in model.gate_errors(g) {
            if spec.total() > 0.0 {
                let ch = Channel1::pauli(spec.p_x, spec.p_y, spec.p_z).unwrap();
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
                rho.apply_channel1(q, &Channel1::amplitude_damping(ad).unwrap());
            }
            if pd > 0.0 {
                rho.apply_channel1(q, &Channel1::phase_damping(pd).unwrap());
            }
        }
    }
    rho
}

/// Readout-corrupted ⟨Z⟩ per qubit from a reference state.
fn reference_expect_all_z(model: &DeviceModel, rho: &DensityMatrix) -> Vec<f64> {
    let n = rho.n_qubits();
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

/// Per-gate ZNE folding `G → G·(G†·G)^k`, with the square-root gates'
/// two-gate inverse `G† = base·G`.
fn fold_per_gate(circuit: &Circuit, scale: usize) -> Circuit {
    let mut out = Circuit::new(circuit.n_qubits());
    for g in circuit.gates() {
        out.push(*g);
        for _ in 0..(scale - 1) / 2 {
            match try_invert_gate(g) {
                Some(inv) => out.push(inv),
                None if g.kind == GateKind::SqrtH => {
                    out.push(Gate::h(g.qubits[0]));
                    out.push(*g);
                }
                None => {
                    out.push(Gate::swap(g.qubits[0], g.qubits[1]));
                    out.push(*g);
                }
            }
            out.push(*g);
        }
    }
    out
}

/// Asserts the compiled emulator reproduces the Kraus reference on both
/// the density matrix and the readout-corrupted ⟨Z⟩.
fn assert_matches_reference(model: &DeviceModel, circuit: &Circuit) {
    let emu = HardwareEmulator::new(model.clone());
    let got = emu.run(circuit).unwrap();
    let want = kraus_reference(model, circuit);
    let dim = want.dim();
    for r in 0..dim {
        for c in 0..dim {
            let (a, b) = (got.element(r, c), want.element(r, c));
            prop_assert!(
                a.approx_eq(b, PIN_TOL),
                "{}: rho[{r}][{c}] compiled {a} vs Kraus {b} in\n{circuit}",
                model.name()
            );
        }
    }
    let z = emu.expect_all_z(circuit).unwrap();
    let z_ref = reference_expect_all_z(model, &want);
    for (q, (a, b)) in z.iter().zip(&z_ref).enumerate() {
        prop_assert!(
            (a - b).abs() <= PIN_TOL,
            "{}: <Z{q}> compiled {a} vs Kraus {b}",
            model.name()
        );
    }
}

/// Every model the pin covers: each preset, a drifted preset and the
/// noise-free device.
fn pinned_models() -> Vec<DeviceModel> {
    let mut models = presets::all_devices();
    models.push(presets::santiago().drifted(1.8, 1.3));
    models.push(presets::noise_free(PIN_QUBITS));
    models
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn compiled_emulator_matches_kraus_reference(circuit in arb_any_circuit(20)) {
        for model in pinned_models() {
            assert_matches_reference(&model, &circuit);
        }
    }

    #[test]
    fn compiled_emulator_matches_kraus_reference_on_zne_folds(
        circuit in arb_any_circuit(10),
        scale in prop_oneof![Just(3usize), Just(5usize)],
    ) {
        let folded = fold_per_gate(&circuit, scale);
        for model in [presets::santiago(), presets::yorktown().drifted(1.4, 1.0)] {
            assert_matches_reference(&model, &folded);
        }
    }

    #[test]
    fn virtual_gates_still_damp(
        angles in prop::collection::vec(-3.0f64..3.0, 1..12),
    ) {
        // Only frame changes after the X: no Pauli error, but every gate
        // still decays the excited state.
        let mut c = Circuit::new(1);
        c.push(Gate::x(0));
        for (i, &a) in angles.iter().enumerate() {
            c.push(match i % 3 {
                0 => Gate::rz(0, a),
                1 => Gate::p(0, a),
                _ => Gate::id(0),
            });
        }
        let model = presets::santiago();
        assert_matches_reference(&model, &c);
        let only_x = {
            let mut x = Circuit::new(1);
            x.push(Gate::x(0));
            x
        };
        let emu = HardwareEmulator::new(model);
        let decayed = emu.run(&c).unwrap().expect_z(0);
        let fresh = emu.run(&only_x).unwrap().expect_z(0);
        prop_assert!(decayed > fresh, "virtual gates must damp: {decayed} vs {fresh}");
    }

    #[test]
    fn two_qubit_duration_factor_is_applied(
        circuit in arb_any_circuit(12),
        factor in 0.0f64..24.0,
        amp in 0.0f64..0.02,
        phase in 0.0f64..0.02,
    ) {
        let spec = PauliErrorSpec::new(0.004, 0.002, 0.006).unwrap();
        let mut builder = DeviceModel::builder("duration-pin", PIN_QUBITS)
            .edge(0, 1, spec)
            .edge(1, 2, spec.scaled(2.0))
            .edge(2, 3, spec.scaled(0.5))
            .tq_duration_factor(factor);
        for q in 0..PIN_QUBITS {
            builder = builder
                .single_qubit_error(q, spec.scaled(0.1))
                .damping(q, amp * (q + 1) as f64, phase);
        }
        let model = builder.build().unwrap();
        assert_matches_reference(&model, &circuit);
    }

    #[test]
    fn compiled_emulator_is_bitwise_deterministic(circuit in arb_any_circuit(20)) {
        let emu = HardwareEmulator::new(presets::santiago());
        let bits = |rho: &DensityMatrix| -> Vec<(u64, u64)> {
            let dim = rho.dim();
            (0..dim * dim)
                .map(|i| rho.element(i / dim, i % dim))
                .map(|v| (v.re.to_bits(), v.im.to_bits()))
                .collect()
        };
        let a = emu.run(&circuit).unwrap();
        let b = emu.run(&circuit).unwrap();
        prop_assert_eq!(bits(&a), bits(&b));
    }
}

/// The duration factor reaches the damping: the same CX on a slower
/// two-qubit gate leaves the excited control more decayed.
#[test]
fn longer_two_qubit_gates_decay_more() {
    let z_after = |factor: f64| {
        let model = DeviceModel::builder("duration", 2)
            .edge(0, 1, PauliErrorSpec::zero())
            .damping(0, 0.01, 0.0)
            .tq_duration_factor(factor)
            .build()
            .unwrap();
        let mut c = Circuit::new(2);
        c.push(Gate::x(0));
        c.push(Gate::cx(0, 1));
        HardwareEmulator::new(model).run(&c).unwrap().expect_z(0)
    };
    assert!(z_after(16.0) > z_after(2.0));
}
