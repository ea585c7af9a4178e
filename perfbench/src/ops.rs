//! The three workloads: their set-up and one operation each.
//!
//! * `train-nat` — one QuantumNAT training step (`train_forward` plus
//!   `Adam::step`) on a batch of 32 synthetic MNIST-4 rows.
//! * `infer-emulator` — one 16-row inference request through
//!   `TransportClient` → `TransportServer` → `ServeEngine` →
//!   `EmulatorBackend`: one job per row per block, with batch-stat
//!   normalization and quantization applied by the client between blocks.
//! * `zne-emulator` — one `POST /v1/mitigate` sweep of a bound block-0
//!   circuit: scales 1/3/5, per-gate folding, readout inversion, linear
//!   extrapolation.
//!
//! Served workloads run one client thread on one keep-alive connection,
//! one HTTP worker and one engine worker, with no injected faults, so no
//! retry ever sleeps. One job is in flight at a time (submit, then wait),
//! so an op's stages run one after another and add up to its time.

use crate::model::{self, Schedule, BATCH, N_TRAIN, OPT_LEVEL, ROWS_PER_REQUEST};
use qnat_autodiff::tape::quantize_value;
use qnat_core::batch::BatchJob;
use qnat_core::executor::{splitmix64, ResilientExecutor, RetryPolicy};
use qnat_core::forward::train_forward;
use qnat_core::head::apply_head;
use qnat_core::infer::{infer, BlockPlan, InferenceBackend, InferenceOptions, NormMode};
use qnat_core::model::Qnn;
use qnat_core::normalize::NormStats;
use qnat_core::train::Adam;
use qnat_data::dataset::{batch_indices, Sample};
use qnat_noise::backend::{BackendError, EmulatorBackend};
use qnat_noise::device::DeviceModel;
use qnat_serve::{JobOutcome, Lane, MitigatedJob, ServeConfig, ServeEngine};
use qnat_sim::circuit::Circuit;
use qnat_transport::wire::MitigatedResult;
use qnat_transport::{TransportClient, TransportConfig, TransportServer};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seed of every serving engine (job seeds derive from it and the
/// ticket; exact expectations make results independent of it).
pub const ENGINE_SEED: u64 = 7;
/// Replay seed of every mitigation sweep.
pub const SWEEP_SEED: u64 = 0xA11CE;

fn features_labels(rows: &[Sample]) -> (Vec<Vec<f64>>, Vec<usize>) {
    (
        rows.iter().map(|s| s.features.clone()).collect(),
        rows.iter().map(|s| s.label).collect(),
    )
}

/// Inference options of the paper's pipeline: batch-stat normalization
/// and 5-level quantization between blocks, last block raw.
pub fn inference_options() -> InferenceOptions {
    InferenceOptions {
        normalize: NormMode::BatchStats,
        quantize: Some(model::quantize()),
        process_last: false,
    }
}

/// In-process inference of `rows` on the Santiago density-matrix
/// emulator (`InferenceBackend::Hardware`).
pub fn emulator_logits(qnn: &Qnn, rows: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, String> {
    let dep = qnn
        .deploy(&model::device(), OPT_LEVEL)
        .map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(0);
    let result = infer(
        qnn,
        rows,
        &InferenceBackend::Hardware(&dep),
        &inference_options(),
        &mut rng,
    )
    .map_err(|e| e.to_string())?;
    Ok(result.logits)
}

/// A batch of per-row values.
pub type Rows = Vec<Vec<f64>>;

/// Client-side processing between blocks: batch-stat normalization, then
/// quantization onto the 5-level grid. Returns (normalized, quantized).
pub fn norm_quant(raw: &[Vec<f64>]) -> Result<(Rows, Rows), String> {
    let stats = NormStats::try_from_batch(raw).map_err(|e| e.to_string())?;
    let mut normalized = raw.to_vec();
    stats.apply(&mut normalized);
    let spec = model::quantize();
    let quantized = normalized
        .iter()
        .map(|row| {
            row.iter()
                .map(|&v| quantize_value(v, spec.levels, spec.p_min, spec.p_max))
                .collect()
        })
        .collect();
    Ok((normalized, quantized))
}

/// `train-nat`: QuantumNAT training on synthetic MNIST-4.
pub struct TrainNat {
    pub device: DeviceModel,
    pub qnn: Qnn,
    pub adam: Adam,
    pub train: Vec<Sample>,
    pub test: Vec<Sample>,
    pub rng: StdRng,
    order: Vec<Vec<usize>>,
    schedule: Schedule,
    pub steps: usize,
    /// Parameters after exactly `schedule.steps` steps.
    pub snapshot: Option<Vec<f64>>,
}

impl TrainNat {
    /// The `train-nat` workload: [`model::FINE_TUNE`] from the committed
    /// parameters, on data and noise drawn from `seed`.
    pub fn setup(seed: u64) -> Result<TrainNat, String> {
        Self::new(model::load_trained()?, model::FINE_TUNE, seed)
    }

    /// [`model::FROM_SCRATCH`] from a random initialisation drawn from
    /// `init_seed`, on `seed`'s data — how the committed parameters are
    /// made.
    pub fn from_scratch(seed: u64, init_seed: u64) -> Result<TrainNat, String> {
        let qnn = Qnn::for_device(model::config(), &model::device(), init_seed)
            .map_err(|e| e.to_string())?;
        Self::new(qnn, model::FROM_SCRATCH, seed)
    }

    fn new(qnn: Qnn, schedule: Schedule, seed: u64) -> Result<TrainNat, String> {
        let (train, test) = model::dataset(seed, N_TRAIN);
        Ok(TrainNat {
            device: model::device(),
            adam: Adam::new(schedule.adam(), qnn.n_params()),
            qnn,
            train,
            test,
            rng: StdRng::seed_from_u64(splitmix64(seed ^ 0x7a11)),
            order: Vec::new(),
            schedule,
            steps: 0,
            snapshot: None,
        })
    }

    /// The next mini-batch of the shuffled epoch.
    pub fn next_batch(&mut self) -> (Vec<Vec<f64>>, Vec<usize>) {
        if self.order.is_empty() {
            self.order = batch_indices(self.train.len(), BATCH, &mut self.rng);
            self.order.reverse();
        }
        let idx = self.order.pop().expect("an epoch has at least one batch");
        let rows: Vec<Sample> = idx.iter().map(|&i| self.train[i].clone()).collect();
        features_labels(&rows)
    }

    /// Learning rate of the current step.
    pub fn lr(&self) -> f64 {
        let epoch = self.steps / (N_TRAIN / BATCH);
        self.schedule.adam().lr_at(epoch % self.schedule.epochs())
    }

    /// One training step.
    pub fn op(&mut self) -> Result<(), String> {
        let (features, labels) = self.next_batch();
        let pipeline = model::nat_pipeline(&self.device);
        let step = train_forward(&self.qnn, &features, &labels, &pipeline, &mut self.rng);
        self.apply(&step.grads)
    }

    /// `Adam::step` with the scheduled learning rate.
    pub fn apply(&mut self, grads: &[f64]) -> Result<(), String> {
        let lr = self.lr();
        let mut params = self.qnn.parameters().to_vec();
        if !self.adam.step(&mut params, grads, lr) {
            return Err(format!("step {}: non-finite gradient", self.steps));
        }
        self.qnn.set_parameters(&params);
        self.steps += 1;
        if self.steps == self.schedule.steps {
            self.snapshot = Some(params);
        }
        Ok(())
    }

    /// Trains on until the schedule's snapshot exists.
    pub fn finish_schedule(&mut self) -> Result<(), String> {
        while self.snapshot.is_none() {
            self.op()?;
        }
        Ok(())
    }

    /// The snapshot model (parameters at the end of the schedule).
    pub fn snapshot_model(&self) -> Result<Qnn, String> {
        let params = self.snapshot.as_ref().ok_or("schedule not finished")?;
        let mut qnn = self.qnn.clone();
        qnn.set_parameters(params);
        Ok(qnn)
    }
}

/// The per-job executor: emulator primary, default retry policy, no
/// fallback and no faults.
pub fn make_executor(view: &DeviceModel, seed: u64) -> Result<ResilientExecutor, BackendError> {
    Ok(ResilientExecutor::new(
        Box::new(EmulatorBackend::new(view, seed)?),
        RetryPolicy::default(),
    ))
}

/// A one-worker serving engine over the routed window.
pub fn emulator_engine(view: &DeviceModel) -> ServeEngine {
    let view = view.clone();
    ServeEngine::new(
        ServeConfig {
            workers: 1,
            seed: ENGINE_SEED,
            ..ServeConfig::default()
        },
        move |_job, seed| make_executor(&view, seed),
    )
}

/// The front door: one HTTP worker, defaults otherwise.
pub fn transport_config() -> TransportConfig {
    TransportConfig {
        http_workers: 1,
        ..TransportConfig::default()
    }
}

/// What one served inference request produced.
pub struct InferOut {
    pub logits: Vec<Vec<f64>>,
    /// `window_z[block][row]`: every window qubit's served ⟨Z⟩.
    pub window_z: Vec<Vec<Vec<f64>>>,
    /// Block-0 outputs after normalization and after quantization.
    pub normalized: Vec<Vec<f64>>,
    pub quantized: Vec<Vec<f64>>,
    /// Jobs per block, in submission order.
    pub jobs: Vec<Vec<BatchJob>>,
}

/// The served workloads' shared state: the committed model, its routed
/// plans, the seed's test rows and a front door over one engine.
pub struct Served {
    pub qnn: Qnn,
    pub plans: Vec<BlockPlan>,
    pub test: Vec<Sample>,
    pub server: TransportServer,
    pub client: TransportClient,
    /// One mitigation sweep per test row (bound block-0 circuit).
    pub sweeps: Vec<MitigatedJob>,
}

impl Served {
    pub fn setup(seed: u64) -> Result<Served, String> {
        let qnn = model::load_trained()?;
        let (_, test) = model::dataset(seed, 0);
        let plans = qnn
            .route_plan(&model::device(), OPT_LEVEL)
            .map_err(|e| e.to_string())?;
        // One engine serves every block, so every block must sit on the
        // same device window.
        let view = plans[0].view.clone();
        if plans
            .iter()
            .any(|p| p.view.fingerprint() != view.fingerprint())
        {
            return Err("blocks routed onto different device windows".into());
        }
        let server =
            TransportServer::bind("127.0.0.1:0", transport_config(), emulator_engine(&view))
                .map_err(|e| format!("bind: {e}"))?;
        let client = TransportClient::new(server.local_addr());
        let mut served = Served {
            qnn,
            plans,
            test,
            server,
            client,
            sweeps: Vec::new(),
        };
        served.sweeps = (0..served.test.len())
            .map(|r| {
                let circuit = served.bind_block(0, &served.test[r].features);
                MitigatedJob::zne(circuit, None).with_readout(view.confusions())
            })
            .collect();
        Ok(served)
    }

    pub fn view(&self) -> &DeviceModel {
        &self.plans[0].view
    }

    /// Block `block` bound to one row of inputs.
    pub fn bind_block(&self, block: usize, inputs: &[f64]) -> Circuit {
        let mut params = self.qnn.blocks()[block].encoder.angles(inputs);
        params.extend_from_slice(self.qnn.block_params(block));
        self.plans[block].lowered.bind(&params)
    }

    /// Requests cycle over the seed's test rows, 16 rows each.
    pub fn request_rows(&self, request: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        let n_requests = self.test.len() / ROWS_PER_REQUEST;
        let start = (request % n_requests) * ROWS_PER_REQUEST;
        features_labels(&self.test[start..start + ROWS_PER_REQUEST])
    }

    pub fn n_requests(&self) -> usize {
        self.test.len() / ROWS_PER_REQUEST
    }

    /// The block's jobs for a batch of activations.
    pub fn block_jobs(&self, block: usize, acts: &[Vec<f64>]) -> Vec<BatchJob> {
        acts.iter()
            .map(|row| BatchJob {
                circuit: self.bind_block(block, row),
                shots: None,
            })
            .collect()
    }

    /// Runs the jobs one at a time over the front door: submit, then wait.
    pub fn serve_jobs(&self, jobs: &[BatchJob]) -> Result<Vec<JobOutcome>, String> {
        jobs.iter()
            .map(|job| {
                let t = self
                    .client
                    .submit(job, Lane::Interactive)
                    .map_err(|e| format!("submit: {e}"))?;
                let outcome = self
                    .client
                    .wait(t)
                    .map_err(|e| format!("wait {t}: {e}"))?
                    .ok_or_else(|| format!("ticket {t} unknown"))?;
                match &outcome.result {
                    Ok(_) => Ok(outcome),
                    Err(e) => Err(format!("job {t}: {e}")),
                }
            })
            .collect()
    }

    /// Observable ⟨Z⟩ of each served row, logical qubit order.
    pub fn observables(&self, block: usize, outcomes: &[JobOutcome]) -> Vec<Vec<f64>> {
        outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().ok())
            .map(|m| {
                self.plans[block]
                    .obs
                    .iter()
                    .map(|&w| m.expectations[w])
                    .collect()
            })
            .collect()
    }

    /// One `infer-emulator` op: a 16-row request through both blocks.
    pub fn infer_op(&self, request: usize) -> Result<InferOut, String> {
        let (mut acts, _) = self.request_rows(request);
        let n_blocks = self.plans.len();
        let mut out = InferOut {
            logits: Vec::new(),
            window_z: Vec::new(),
            normalized: Vec::new(),
            quantized: Vec::new(),
            jobs: Vec::new(),
        };
        for b in 0..n_blocks {
            let jobs = self.block_jobs(b, &acts);
            let outcomes = self.serve_jobs(&jobs)?;
            let raw = self.observables(b, &outcomes);
            out.window_z.push(
                outcomes
                    .into_iter()
                    .filter_map(|o| o.result.ok().map(|m| m.expectations))
                    .collect(),
            );
            out.jobs.push(jobs);
            acts = if b + 1 < n_blocks {
                let (normalized, quantized) = norm_quant(&raw)?;
                if b == 0 {
                    out.normalized = normalized;
                    out.quantized = quantized.clone();
                }
                quantized
            } else {
                raw
            };
        }
        out.logits = apply_head(&acts, self.qnn.config().n_classes);
        Ok(out)
    }

    /// One `zne-emulator` op: the sweep of test row `index`.
    pub fn zne_op(&self, index: usize) -> Result<MitigatedResult, String> {
        let job = &self.sweeps[index % self.sweeps.len()];
        self.client
            .mitigate(job, SWEEP_SEED)
            .map_err(|e| format!("mitigate: {e}"))
    }

    pub fn shutdown(self) {
        self.server.shutdown();
    }
}
