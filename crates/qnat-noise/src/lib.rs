//! # qnat-noise — realistic device noise models for QuantumNAT
//!
//! This crate plays the role of the IBMQ calibration data the paper
//! consumes: Pauli-twirled per-gate error distributions
//! ([`error_spec::PauliErrorSpec`]), per-qubit readout confusion matrices
//! ([`readout::ReadoutError`]), full device models with topology and
//! decoherence ([`device::DeviceModel`]), preset machines matching the
//! paper's pool ([`presets`]), the error-gate insertion sampler used for
//! noise-injected training ([`inject`]) and a density-matrix hardware
//! emulator used as the "real QC" for deployment evaluation
//! ([`emulator::HardwareEmulator`]).
//!
//! ## Example
//!
//! ```
//! use qnat_noise::{presets, emulator::HardwareEmulator};
//! use qnat_sim::{circuit::Circuit, gate::Gate};
//!
//! let mut c = Circuit::new(2);
//! c.push(Gate::h(0));
//! c.push(Gate::cx(0, 1));
//! let emu = HardwareEmulator::new(presets::santiago());
//! let z = emu.expect_all_z(&c).unwrap();
//! assert!(z[0].abs() < 0.1); // Bell state measures near zero
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod backend;
pub mod device;
pub mod emulator;
pub mod error_spec;
pub mod fault;
pub mod inject;
mod noise_table;
pub mod presets;
pub mod readout;
pub mod trajectory;

pub use backend::{
    BackendError, EmulatorBackend, Measurements, NoiseModelBackend, QuantumBackend,
    SimulatorBackend,
};
pub use device::DeviceModel;
pub use emulator::HardwareEmulator;
pub use error_spec::PauliErrorSpec;
pub use fault::{DriftCursor, DriftModel, FaultSpec, FaultyBackend};
pub use readout::ReadoutError;
pub use trajectory::TrajectoryEmulator;
