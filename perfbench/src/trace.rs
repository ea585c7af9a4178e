//! The traced run: each op replayed stage by stage through the crates'
//! public calls, every stage a span timed from outside the crate.
//!
//! An op's real path (what the untraced run times) is recorded as the
//! `op` span and its direct children. After the op, replays of the inner
//! layers on the op's own payloads are recorded as children of the stage
//! they explain, so a span's self time — its duration minus its
//! children's — is the layer's share, e.g. the HTTP round trip minus the
//! codec and the in-process engine path. Spans stay in memory until the
//! run ends.

use crate::model::{self, NOISE_FACTOR, OPT_LEVEL};
use crate::ops::{self, norm_quant, Served, TrainNat, SWEEP_SEED};
use crate::stats::{median, Metric};
use qnat_compiler::folding::fold_circuit;
use qnat_core::batch::BatchJob;
use qnat_core::executor::ExecutionReport;
use qnat_core::executor::{ResilientExecutor, RetryPolicy};
use qnat_core::forward::train_forward;
use qnat_core::head::apply_head;
use qnat_json::Json;
use qnat_noise::backend::{BackendError, EmulatorBackend, Measurements, QuantumBackend};
use qnat_noise::device::DeviceModel;
use qnat_noise::emulator::HardwareEmulator;
use qnat_noise::inject::insert_error_gates;
use qnat_serve::{aggregate_sweep, submit_mitigated, JobOutcome, Lane, ServeConfig, ServeEngine};
use qnat_sim::adjoint::adjoint_gradients;
use qnat_sim::circuit::Circuit;
use qnat_sim::statevector::StateVector;
use qnat_transport::http::{read_response, write_request};
use qnat_transport::wire;
use qnat_transport::TransportServer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, VecDeque};
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Train,
    Infer,
    Zne,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Train, Kind::Infer, Kind::Zne];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Train => "train-nat",
            Kind::Infer => "infer-emulator",
            Kind::Zne => "zne-emulator",
        }
    }
}

pub struct Span {
    pub id: usize,
    pub op: usize,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    fn dur(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// In-memory span recorder.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    /// Kind of every op id.
    ops: Vec<Kind>,
    /// Per-op counts: `(op, name, value)`.
    counts: Vec<(usize, &'static str, f64)>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            ops: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    fn new_op(&mut self, kind: Kind) -> usize {
        self.ops.push(kind);
        self.ops.len() - 1
    }

    fn begin(&mut self, op: usize, name: &'static str, parent: Option<usize>) -> usize {
        let start_us = self.now();
        self.spans.push(Span {
            id: self.spans.len(),
            op,
            name,
            parent,
            start_us,
            end_us: start_us,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        self.spans[id].end_us = self.now();
    }

    fn time<R>(
        &mut self,
        op: usize,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (usize, R) {
        let id = self.begin(op, name, parent);
        let r = f();
        self.end(id);
        (id, r)
    }

    fn count(&mut self, op: usize, name: &'static str, value: f64) {
        self.counts.push((op, name, value));
    }

    fn count_report(&mut self, op: usize, report: &ExecutionReport) {
        self.count(op, "serve.jobs", report.jobs as f64);
        self.count(op, "serve.retries", report.retries as f64);
        self.count(op, "serve.fallbacks", report.fallback_jobs as f64);
    }

    fn self_times(&self) -> Vec<f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur();
            }
        }
        self.spans.iter().map(|s| s.dur() - child[s.id]).collect()
    }
}

/// Results the canned backend answers with, in submission order.
type Queue = Arc<Mutex<VecDeque<Measurements>>>;

/// A backend that is the emulator in every respect but `execute`, which
/// answers with the next already-known result: replaying the engine and
/// executor paths through it isolates their own cost from emulation.
struct Canned {
    inner: EmulatorBackend,
    queue: Queue,
}

impl QuantumBackend for Canned {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn n_qubits(&self) -> usize {
        self.inner.n_qubits()
    }

    fn validate(&self, circuit: &Circuit) -> Result<(), BackendError> {
        self.inner.validate(circuit)
    }

    fn execute(&mut self, _: &Circuit, _: Option<usize>) -> Result<Measurements, BackendError> {
        let next = self.queue.lock().map(|mut q| q.pop_front());
        next.ok()
            .flatten()
            .ok_or_else(|| BackendError::InvalidConfig {
                reason: "canned result queue ran dry".into(),
            })
    }
}

/// The per-job executor of [`ops::make_executor`] over the canned backend.
fn canned_executor(
    view: &DeviceModel,
    seed: u64,
    queue: &Queue,
) -> Result<ResilientExecutor, BackendError> {
    Ok(ResilientExecutor::new(
        Box::new(Canned {
            inner: EmulatorBackend::new(view, seed)?,
            queue: Arc::clone(queue),
        }),
        RetryPolicy::default(),
    ))
}

/// Everything a traced run replays against.
pub struct Ctx<'a> {
    tr: Tracer,
    served: &'a Served,
    /// In-process engine over the canned backend, for the engine-path
    /// replays.
    engine: ServeEngine,
    queue: Queue,
    emulator: HardwareEmulator,
}

impl<'a> Ctx<'a> {
    pub fn new(served: &'a Served) -> Ctx<'a> {
        let queue: Queue = Arc::default();
        let view = served.view().clone();
        let factory_queue = Arc::clone(&queue);
        let engine = ServeEngine::new(
            ServeConfig {
                workers: 1,
                seed: ops::ENGINE_SEED,
                ..ServeConfig::default()
            },
            move |_job, seed| canned_executor(&view, seed, &factory_queue),
        );
        Ctx {
            tr: Tracer::new(),
            served,
            engine,
            queue,
            emulator: HardwareEmulator::new(served.view().clone()),
        }
    }

    fn can(&self, results: &[Measurements]) {
        if let Ok(mut q) = self.queue.lock() {
            q.extend(results.iter().cloned());
        }
    }

    /// Emulator replays, one span per circuit under `parent`.
    fn emulate(
        &mut self,
        op: usize,
        name: &'static str,
        parent: usize,
        circuits: &[&Circuit],
    ) -> Result<Vec<Measurements>, String> {
        let emulator = &self.emulator;
        circuits
            .iter()
            .map(|c| {
                let (_, z) = self
                    .tr
                    .time(op, name, Some(parent), || emulator.expect_all_z(c));
                z.map(|expectations| Measurements {
                    expectations,
                    shots_used: None,
                })
                .map_err(|e| e.to_string())
            })
            .collect()
    }

    /// Executor replays over the canned backend, one span per job.
    fn execute(
        &mut self,
        op: usize,
        parent: usize,
        circuits: &[&Circuit],
        results: &[Measurements],
    ) -> Result<(), String> {
        self.can(results);
        let view = self.served.view();
        for (j, c) in circuits.iter().enumerate() {
            let queue = &self.queue;
            let (_, r) = self.tr.time(op, "core.executor", Some(parent), || {
                canned_executor(view, j as u64, queue)?.execute(c, None)
            });
            r.map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// Times `Qnn::route_plan`, the set-up's compile step.
    pub fn route_plans(&mut self, kind: Kind, times: usize) -> Result<(), String> {
        let op = self.tr.new_op(kind);
        for _ in 0..times {
            let (_, r) = self.tr.time(op, "compiler.route_plan", None, || {
                self.served.qnn.route_plan(&model::device(), OPT_LEVEL)
            });
            r.map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// One traced training step: the real `train_forward` and
    /// `Adam::step`, then injection and adjoint replays on the same batch.
    pub fn train_op(&mut self, w: &mut TrainNat) -> Result<f64, String> {
        let tr = &mut self.tr;
        let op = tr.new_op(Kind::Train);
        let (features, labels) = w.next_batch();
        let root = tr.begin(op, "op", None);
        let pipeline = model::nat_pipeline(&w.device);
        let (tf, step) = tr.time(op, "core.train_forward", Some(root), || {
            train_forward(&w.qnn, &features, &labels, &pipeline, &mut w.rng)
        });
        let (_, applied) = tr.time(op, "core.adam", Some(root), || w.apply(&step.grads));
        tr.end(root);
        applied?;
        let total = tr.spans[root].dur();

        let mut rng = StdRng::seed_from_u64(op as u64);
        let mut acts = features;
        for (b, block) in w.qnn.blocks().iter().enumerate() {
            let bound: Vec<_> = acts
                .iter()
                .map(|row| {
                    let mut p = block.encoder.angles(row);
                    p.extend_from_slice(w.qnn.block_params(b));
                    block.lowered.bind(&p)
                })
                .collect();
            let (_, injected) = tr.time(op, "noise.inject", Some(tf), || {
                bound
                    .iter()
                    .map(|c| insert_error_gates(c, &w.device, NOISE_FACTOR, &mut rng).0)
                    .collect::<Vec<_>>()
            });
            let (_, grads) = tr.time(op, "sim.adjoint", Some(tf), || {
                injected
                    .iter()
                    .map(|c| adjoint_gradients(c, &block.obs))
                    .collect::<Vec<_>>()
            });
            if b == 0 {
                tr.time(op, "sim.statevector", None, || {
                    let mut psi = StateVector::zero_state(bound[0].n_qubits());
                    psi.run(&bound[0]);
                    psi.expect_all_z()
                });
            }
            let raw: Vec<Vec<f64>> = grads.into_iter().map(|g| g.expectations).collect();
            acts = norm_quant(&raw)?.1;
        }
        Ok(total)
    }

    /// One traced inference request: the real client path block by block,
    /// then codec, engine, executor and emulator replays per block.
    pub fn infer_op(&mut self, request: usize) -> Result<f64, String> {
        let s = self.served;
        let tr = &mut self.tr;
        let op = tr.new_op(Kind::Infer);
        let (mut acts, _) = s.request_rows(request);
        let n_blocks = s.plans.len();
        let root = tr.begin(op, "op", None);
        let mut blocks: Vec<(usize, Vec<BatchJob>, Vec<JobOutcome>)> = Vec::new();
        for b in 0..n_blocks {
            let (_, jobs) = tr.time(op, "client.bind", Some(root), || s.block_jobs(b, &acts));
            let (rt, outcomes) = tr.time(op, "transport.roundtrip", Some(root), || {
                s.serve_jobs(&jobs)
            });
            let outcomes = match outcomes {
                Ok(o) => o,
                Err(e) => {
                    tr.end(root);
                    return Err(e);
                }
            };
            let raw = s.observables(b, &outcomes);
            acts = if b + 1 < n_blocks {
                let (_, nq) = tr.time(op, "core.normquant", Some(root), || norm_quant(&raw));
                nq?.1
            } else {
                raw
            };
            blocks.push((rt, jobs, outcomes));
        }
        tr.time(op, "core.head", Some(root), || {
            apply_head(&acts, s.qnn.config().n_classes)
        });
        tr.end(root);
        let total = tr.spans[root].dur();

        let mut report = ExecutionReport::default();
        for (rt, jobs, outcomes) in &blocks {
            for o in outcomes {
                report.merge(&o.report);
            }
            self.replay_jobs(op, *rt, jobs, outcomes)?;
        }
        self.tr.count_report(op, &report);
        Ok(total)
    }

    /// Replays one block's jobs under its round-trip span.
    fn replay_jobs(
        &mut self,
        op: usize,
        rt: usize,
        jobs: &[BatchJob],
        outcomes: &[JobOutcome],
    ) -> Result<(), String> {
        let tr = &mut self.tr;
        // The request bodies and the server's response bodies.
        let (_, docs) = tr.time(op, "transport.encode", Some(rt), || {
            let requests: Vec<String> = jobs
                .iter()
                .map(|j| wire::submit_request_to_json(j, Lane::Interactive).to_json())
                .collect();
            let tickets: Vec<String> = (0..jobs.len())
                .map(|t| {
                    Json::obj([
                        ("ticket", Json::Num(t as f64)),
                        (
                            "lane",
                            Json::Str(wire::lane_to_str(Lane::Interactive).into()),
                        ),
                    ])
                    .to_json()
                })
                .collect();
            let replies: Vec<String> = outcomes
                .iter()
                .map(|o| {
                    Json::obj([
                        ("status", Json::Str("ready".into())),
                        ("outcome", wire::outcome_to_json(o)),
                    ])
                    .to_json()
                })
                .collect();
            (requests, tickets, replies)
        });
        let (requests, tickets, replies) = docs;
        let (_, decoded) = tr.time(op, "transport.decode", Some(rt), || {
            requests
                .iter()
                .map(|r| {
                    wire::parse_body(r.as_bytes()).and_then(|v| wire::submit_request_from_json(&v))
                })
                .collect::<Result<Vec<_>, _>>()
        });
        decoded.map_err(|e| e.reason)?;
        let (_, parsed) = tr.time(op, "transport.outcome", Some(rt), || {
            for t in &tickets {
                Json::parse(t).map_err(|e| e.to_string())?;
            }
            replies
                .iter()
                .map(|r| {
                    let v = Json::parse(r).map_err(|e| e.to_string())?;
                    let o = v.get("outcome").ok_or("reply without outcome")?;
                    wire::outcome_from_json(o).map_err(|e| e.reason)
                })
                .collect::<Result<Vec<_>, String>>()
        });
        parsed?;

        let circuits: Vec<&Circuit> = jobs.iter().map(|j| &j.circuit).collect();
        let results = self.emulate(op, "noise.emulator", rt, &circuits)?;
        self.can(&results);
        let owned: Vec<BatchJob> = jobs.to_vec();
        let engine = &self.engine;
        let (eng, waited) = self.tr.time(op, "serve.engine", Some(rt), || {
            owned
                .into_iter()
                .map(|j| {
                    let t = engine
                        .submit(j, Lane::Interactive)
                        .map_err(|e| e.to_string())?;
                    engine.wait(t).ok_or("in-process ticket lost".to_string())
                })
                .collect::<Result<Vec<_>, String>>()
        });
        waited?;
        self.execute(op, eng, &circuits, &results)
    }

    /// One traced sweep: the real `POST /v1/mitigate`, then the in-process
    /// fan-out with fold, sub-run and aggregation replays, then the codec.
    pub fn zne_op(&mut self, index: usize) -> Result<f64, String> {
        let s = self.served;
        let tr = &mut self.tr;
        let op = tr.new_op(Kind::Zne);
        let job = &s.sweeps[index % s.sweeps.len()];
        let root = tr.begin(op, "op", None);
        let (rt, result) = tr.time(op, "transport.roundtrip", Some(root), || {
            s.client.mitigate(job, SWEEP_SEED)
        });
        tr.end(root);
        let result = result.map_err(|e| format!("mitigate: {e}"))?;
        let total = tr.spans[root].dur();
        tr.count_report(op, &result.report);

        let (fold, folded) = tr.time(op, "compiler.fold", None, || {
            job.scales
                .iter()
                .filter(|&&k| k > 1)
                .map(|&k| fold_circuit(&job.circuit, k, job.strategy))
                .collect::<Result<Vec<_>, _>>()
        });
        let folded = folded.map_err(|e| e.to_string())?;
        let circuits: Vec<&Circuit> = std::iter::once(&job.circuit).chain(&folded).collect();
        let mut results = Vec::new();
        for (k, c) in circuits.iter().enumerate() {
            let name = ["noise.emulator", "noise.emulator_s3", "noise.emulator_s5"][k.min(2)];
            results.extend(self.emulate(op, name, rt, &[c])?);
        }
        self.can(&results);
        let engine = &self.engine;
        let (fan, outcome) = self.tr.time(op, "serve.fanout", Some(rt), || {
            submit_mitigated(engine, job, SWEEP_SEED)
                .map_err(|e| e.to_string())
                .and_then(|sweep| {
                    sweep
                        .wait(engine)
                        .ok_or("in-process sweep lost".to_string())
                })
        });
        let outcome = outcome?;
        self.tr.spans[fold].parent = Some(fan);
        self.execute(op, fan, &circuits, &results)?;
        let answers: Vec<Result<Measurements, BackendError>> =
            results.into_iter().map(Ok).collect();
        let tr = &mut self.tr;
        let (_, agg) = tr.time(op, "core.mitigate", Some(fan), || {
            aggregate_sweep(&job.scales, &answers, job.readout.as_deref(), job.method)
        });
        agg.map_err(|e| e.to_string())?;

        let (_, docs) = tr.time(op, "transport.encode", Some(rt), || {
            (
                wire::mitigate_request_to_json(job, SWEEP_SEED).to_json(),
                wire::mitigated_outcome_to_json(&outcome).to_json(),
            )
        });
        let (request, reply) = docs;
        let (_, decoded) = tr.time(op, "transport.decode", Some(rt), || {
            wire::parse_body(request.as_bytes()).and_then(|v| wire::mitigate_request_from_json(&v))
        });
        decoded.map_err(|e| e.reason)?;
        let (_, parsed) = tr.time(op, "transport.outcome", Some(rt), || {
            Json::parse(&reply)
                .map_err(|e| e.to_string())
                .and_then(|v| wire::mitigated_result_from_json(&v).map_err(|e| e.reason))
        });
        parsed?;
        Ok(total)
    }

    /// Exact request and response body bytes of every request of the
    /// cycle, replayed over raw HTTP so the server's own bodies are
    /// counted. The replay goes to a second front door of the same shape:
    /// the run's one HTTP worker stays bound to the client's keep-alive
    /// connection.
    pub fn count_bytes(&mut self) -> Result<(), String> {
        let s = self.served;
        let counter = TransportServer::bind(
            "127.0.0.1:0",
            ops::transport_config(),
            ops::emulator_engine(s.view()),
        )
        .map_err(|e| format!("bind: {e}"))?;
        let mut conn = RawConn::connect(counter.local_addr())?;
        for kind in [Kind::Infer, Kind::Zne] {
            for index in 0..s.n_requests() {
                let (mut sent, mut received) = (0usize, 0usize);
                if kind == Kind::Infer {
                    for job in s.infer_op(index)?.jobs.iter().flatten() {
                        let body = wire::submit_request_to_json(job, Lane::Interactive).to_json();
                        let (n, doc) = conn.call("POST", "/v1/jobs", body.as_bytes())?;
                        let ticket = doc
                            .get("ticket")
                            .and_then(Json::as_f64)
                            .ok_or("no ticket")?;
                        let (m, _) = conn.call("GET", &format!("/v1/jobs/{ticket}/wait"), b"")?;
                        sent += body.len();
                        received += n + m;
                    }
                } else {
                    let job = &s.sweeps[index % s.sweeps.len()];
                    let body = wire::mitigate_request_to_json(job, SWEEP_SEED).to_json();
                    let (n, _) = conn.call("POST", "/v1/mitigate", body.as_bytes())?;
                    sent += body.len();
                    received += n;
                }
                let op = self.tr.new_op(kind);
                self.tr.count(op, "transport.request_bytes", sent as f64);
                self.tr
                    .count(op, "transport.response_bytes", received as f64);
            }
        }
        drop(conn);
        counter.shutdown();
        Ok(())
    }
}

/// One keep-alive connection driven with the transport's own HTTP codec,
/// so the body bytes on the wire can be counted.
struct RawConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl RawConn {
    fn connect(addr: std::net::SocketAddr) -> Result<RawConn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        Ok(RawConn {
            writer: stream.try_clone().map_err(|e| e.to_string())?,
            reader: BufReader::new(stream),
        })
    }

    /// One request; returns the response body's length and its JSON.
    fn call(&mut self, method: &str, target: &str, body: &[u8]) -> Result<(usize, Json), String> {
        write_request(&mut self.writer, method, target, body).map_err(|e| e.reason)?;
        let resp = read_response(&mut self.reader).map_err(|e| e.reason)?;
        if resp.status != 200 {
            return Err(format!("{target}: status {}", resp.status));
        }
        let doc = Json::parse(resp.text().map_err(|e| e.reason)?).map_err(|e| e.to_string())?;
        Ok((resp.body.len(), doc))
    }
}

/// How a per-layer metric is read off the spans.
enum Read {
    /// Per op: summed span durations.
    OpTotal(&'static str),
    /// Per op: summed span self times.
    OpSelf(&'static str),
    /// Per span (one circuit or one call).
    Each(&'static str),
    /// Per op: a recorded count.
    Count(&'static str),
}

/// Every per-layer metric: name, unit, source and scale from µs.
const LAYERS: &[(&str, &str, Read, f64)] = &[
    (
        "compiler.route_plan_ms",
        "ms",
        Read::Each("compiler.route_plan"),
        1e-3,
    ),
    (
        "compiler.fold_ms",
        "ms",
        Read::OpTotal("compiler.fold"),
        1e-3,
    ),
    (
        "noise.emulator_ms",
        "ms",
        Read::Each("noise.emulator"),
        1e-3,
    ),
    (
        "noise.emulator_s3_ms",
        "ms",
        Read::Each("noise.emulator_s3"),
        1e-3,
    ),
    (
        "noise.emulator_s5_ms",
        "ms",
        Read::Each("noise.emulator_s5"),
        1e-3,
    ),
    ("noise.inject_ms", "ms", Read::OpTotal("noise.inject"), 1e-3),
    ("sim.adjoint_ms", "ms", Read::OpTotal("sim.adjoint"), 1e-3),
    (
        "sim.statevector_us",
        "us",
        Read::Each("sim.statevector"),
        1.0,
    ),
    (
        "core.train_forward_ms",
        "ms",
        Read::OpTotal("core.train_forward"),
        1e-3,
    ),
    (
        "core.tape_ms",
        "ms",
        Read::OpSelf("core.train_forward"),
        1e-3,
    ),
    ("core.adam_us", "us", Read::OpTotal("core.adam"), 1.0),
    ("core.executor_us", "us", Read::OpSelf("core.executor"), 1.0),
    (
        "core.normquant_us",
        "us",
        Read::OpTotal("core.normquant"),
        1.0,
    ),
    (
        "core.mitigate_us",
        "us",
        Read::OpTotal("core.mitigate"),
        1.0,
    ),
    ("serve.engine_us", "us", Read::OpSelf("serve.engine"), 1.0),
    ("serve.fanout_us", "us", Read::OpSelf("serve.fanout"), 1.0),
    ("serve.jobs", "count", Read::Count("serve.jobs"), 1.0),
    ("serve.retries", "count", Read::Count("serve.retries"), 1.0),
    (
        "serve.fallbacks",
        "count",
        Read::Count("serve.fallbacks"),
        1.0,
    ),
    (
        "transport.encode_us",
        "us",
        Read::OpTotal("transport.encode"),
        1.0,
    ),
    (
        "transport.decode_us",
        "us",
        Read::OpTotal("transport.decode"),
        1.0,
    ),
    (
        "transport.outcome_us",
        "us",
        Read::OpTotal("transport.outcome"),
        1.0,
    ),
    (
        "transport.http_us",
        "us",
        Read::OpSelf("transport.roundtrip"),
        1.0,
    ),
    (
        "transport.request_bytes",
        "B",
        Read::Count("transport.request_bytes"),
        1.0,
    ),
    (
        "transport.response_bytes",
        "B",
        Read::Count("transport.response_bytes"),
        1.0,
    ),
];

/// The finished trace of one run.
pub struct Report {
    pub metrics: Vec<Metric>,
    pub table: String,
    pub spans_jsonl: String,
}

impl Ctx<'_> {
    /// Per-op values of `read` over ops of `kind`.
    fn values(&self, kind: Kind, read: &Read, self_times: &[f64]) -> Vec<f64> {
        let tr = &self.tr;
        let of_kind = |op: usize| tr.ops[op] == kind;
        let per_op = |name: &str, by_self: bool| {
            let mut acc: BTreeMap<usize, f64> = BTreeMap::new();
            for s in tr.spans.iter().filter(|s| s.name == name && of_kind(s.op)) {
                *acc.entry(s.op).or_default() += if by_self { self_times[s.id] } else { s.dur() };
            }
            acc.into_values().collect::<Vec<_>>()
        };
        match read {
            Read::OpTotal(name) => per_op(name, false),
            Read::OpSelf(name) => per_op(name, true),
            Read::Each(name) => tr
                .spans
                .iter()
                .filter(|s| s.name == *name && of_kind(s.op))
                .map(Span::dur)
                .collect(),
            Read::Count(name) => tr
                .counts
                .iter()
                .filter(|(op, n, _)| n == name && of_kind(*op))
                .map(|&(_, _, v)| v)
                .collect(),
        }
    }

    /// Per-layer metrics for `own`: each read off the workload's own ops,
    /// or off the probe ops of the kind that exercises the layer when the
    /// workload does not.
    pub fn finish(self, own: Kind, untraced_p50_us: f64) -> Report {
        let self_times = self.tr.self_times();
        let kinds = [own, Kind::Train, Kind::Infer, Kind::Zne];
        let mut metrics = Vec::new();
        let mut table = format!(
            "per-layer table, workload {} (median per op unless per call; source = workload whose ops gave it)\n",
            own.name()
        );
        for (name, unit, read, scale) in LAYERS {
            let (source, vals) = kinds
                .iter()
                .map(|&k| (k, self.values(k, read, &self_times)))
                .find(|(_, v)| !v.is_empty())
                .unwrap_or((own, Vec::new()));
            let value = median(&vals) * scale;
            let tag = if source == own { "own" } else { "probe" };
            table.push_str(&format!(
                "  {name:<26} {value:>12.3} {unit:<5} n={:<5} {tag} ({})\n",
                vals.len(),
                source.name()
            ));
            metrics.push(Metric::new(name, value, unit));
        }
        // Transport reuse over every request the run's front door served.
        let snap = self.served.server.metrics();
        let reuse = snap.keepalive_reuses as f64 / snap.requests_served.max(1) as f64;
        metrics.push(Metric::new("transport.reuse_ratio", reuse, "ratio"));
        table.push_str(&format!(
            "  {:<26} {reuse:>12.4} ratio\n",
            "transport.reuse_ratio"
        ));

        // Ledger: an op's total minus its direct stages.
        let tr = &self.tr;
        let mut stage_sum = vec![0.0; tr.spans.len()];
        for s in &tr.spans {
            if let Some(p) = s.parent {
                if tr.spans[p].name == "op" {
                    stage_sum[p] += s.dur();
                }
            }
        }
        let roots: Vec<&Span> = tr
            .spans
            .iter()
            .filter(|s| s.name == "op" && tr.ops[s.op] == own)
            .collect();
        let residual: Vec<f64> = roots.iter().map(|s| s.dur() - stage_sum[s.id]).collect();
        let traced: Vec<f64> = roots.iter().map(|s| s.dur()).collect();
        let residual_us = median(&residual);
        let overhead_ms = (median(&traced) - untraced_p50_us) * 1e-3;
        metrics.push(Metric::new("ledger.residual_us", residual_us, "us"));
        metrics.push(Metric::new("trace.overhead_ms", overhead_ms, "ms"));
        table.push_str(&format!(
            "  {:<26} {residual_us:>12.3} us    (op total {:.3} ms over {} ops)\n  {:<26} {overhead_ms:>12.4} ms\n",
            "ledger.residual_us",
            median(&traced) * 1e-3,
            roots.len(),
            "trace.overhead_ms"
        ));

        let mut spans_jsonl = String::new();
        for s in &tr.spans {
            spans_jsonl.push_str(&format!(
                "{{\"op\": {}, \"kind\": \"{}\", \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}}}\n",
                s.op,
                tr.ops[s.op].name(),
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.start_us,
                s.end_us
            ));
        }
        Report {
            metrics,
            table,
            spans_jsonl,
        }
    }
}
