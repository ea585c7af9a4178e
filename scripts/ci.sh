#!/usr/bin/env sh
# Full CI gate, in the order a reviewer wants failures surfaced:
#   1. smoke:  fast deterministic breaker-trip smoke test (seconds; fails
#              first if the health state machine regresses)
#   2. tier-1: release build + the root package's test suite (`cargo
#              test -q` at the root runs only the root package: its
#              end-to-end tests and doctest; the crates' own suites run
#              in the stages below)
#   3. sim:    the simulator, noise-model and compiler suites — kernel and
#              fused-IR unit tests, the fusion and folding property tests,
#              and the compiled-emulator ≡ gate-by-gate Kraus equivalence
#              pin (qnat-noise/tests/props.rs)
#   4. health: the fleet-health suites — breaker unit tests, the
#              breaker-on-vs-off / deadline-budget e2e acceptance tests,
#              and the report-merge property tests
#   5. serve:  the serving-subsystem suites — engine unit tests, the
#              batch-replay property tests, the serving e2e acceptance
#              tests, and a deadlock-guarded smoke run of the serving
#              example against a fault-injecting backend (the example
#              itself asserts a nonzero completed-job count; the timeout
#              turns a queue deadlock into a loud failure)
#   6. transport: the HTTP front-door suites — wire-format and HTTP
#              parser unit tests, the replay-parity / status-contract
#              e2e tests, and a deadlock-guarded smoke run of the
#              http_serving example (ephemeral port, 50% fault
#              injection, submit/poll/wait over real TCP; the example
#              asserts a full graceful drain, the timeout turns an
#              accept-loop or drain deadlock into a loud failure)
#   7. fleet:  the multi-device routing suites — router unit tests, the
#              failover / quarantine-starvation / routing-accuracy e2e
#              acceptance tests, the bitwise-replay property tests, and
#              a deadlock-guarded smoke run of the fleet_routing example
#              (three devices, the preferred one goes terminally dark
#              mid-run; the example asserts failover keeps the
#              completed-job count at 100% with zero refusals)
#   8. calib:  the learned-calibration suites — tracker unit tests and
#              the calibration property pins (bitwise arrival-order
#              invariance of the tracker, decision replay, clamped
#              estimates under pathological report streams)
#   9. lint:   clippy -D warnings (scripts/lint.sh; the workspace sweep
#              includes qnat-serve's, qnat-transport's and qnat-fleet's
#              unwrap_used walls)
#  10. sim-bench: the simulator hot-path gate — the kernel bounds-check
#              regression tests re-run under --release (the checks must
#              survive optimized builds, not just debug_assert), then the
#              gate-kernel microbench plus the fused-vs-unfused
#              acceptance bench, which asserts fused execution of the
#              §4.2 QNN block sustains >= 2x unfused runs/sec and the
#              compiled density-matrix emulator runs it >= 8x faster than
#              the gate-by-gate Kraus reference (fold scales 1/3/5 timed),
#              writing latency percentiles to results/BENCH_sim.json
#  11. load:   the overload-robustness gate — the socket-level chaos
#              suite (resets, slow-loris, stalls, corruption against a
#              live server; no hung workers, no leaked connection
#              slots), then the open-loop load harness (Poisson +
#              bursty arrivals, mixed interactive/bulk/malformed
#              traffic, backend churn mid-run) which writes goodput and
#              p50/p90/p99/p999 to results/BENCH_load.json and asserts
#              the overload SLO: p99 stays flat under 429/503 shedding
#              and the pooled keep-alive client sustains >= 2x the
#              connection-per-call request rate
#  12. perf:   the batch-, serve-, transport- and fleet-throughput
#              acceptance benches, which assert the 4-worker pool /
#              serving engine / HTTP front door / routed fleet beats
#              single-threaded submission by >= 2x on a 64-job workload
#              with real wall-clock backoff (the transport and fleet
#              benches also write latency percentiles to
#              results/BENCH_transport.json and results/BENCH_fleet.json)
#  13. calib-bench: the calibration acceptance gate — drifting-fleet
#              scenarios (RandomWalk and StepRecalibration heavy drift)
#              asserting ScorePolicy::Predicted beats Static on
#              accuracy-per-attempt and the learned tracker beats a
#              frozen-preset baseline on attempt-weighted prequential
#              Brier score; writes results/BENCH_calib.json
#  14. mitigate: the error-mitigation gate — the de-panicked mitigation
#              math unit tests, the folding unitary-identity property
#              tests, the sweep bitwise-replay property tests, and the
#              ZNE acceptance bench, which asserts the served
#              gate-folding sweep beats the raw noisy expectation error
#              on the §4.2 block under Santiago emulator noise and
#              writes arm-by-arm errors plus sweep latency percentiles
#              to results/BENCH_zne.json
set -eu
cd "$(dirname "$0")/.."

echo "== smoke: deterministic breaker trip =="
cargo test -q -p qnat-core --test health_e2e breaker_trip_smoke

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== sim: simulator + noise + compiler suites (incl. emulator equivalence pin) =="
cargo test -q -p qnat-sim -p qnat-noise -p qnat-compiler

echo "== health: breaker unit + e2e + report-merge property suites =="
cargo test -q -p qnat-core --lib health::
cargo test -q -p qnat-core --test health_e2e
cargo test -q -p qnat-core --test report_props

echo "== serve: engine unit + replay property + e2e suites =="
cargo test -q -p qnat-serve

echo "== serve: example smoke gate (deadlock-guarded) =="
cargo build --release --example serving
timeout 120 cargo run --release --example serving

echo "== transport: wire/http unit + e2e suites =="
cargo test -q -p qnat-transport

echo "== transport: example smoke gate (deadlock-guarded) =="
cargo build --release --example http_serving
timeout 120 cargo run --release --example http_serving

echo "== fleet: router unit + e2e + replay property suites =="
cargo test -q -p qnat-fleet

echo "== fleet: example smoke gate (deadlock-guarded) =="
cargo build --release --example fleet_routing
timeout 120 cargo run --release --example fleet_routing

echo "== calib: tracker unit + property suites =="
cargo test -q -p qnat-calib

echo "== lint: scripts/lint.sh =="
./scripts/lint.sh

echo "== sim-bench: release-mode kernel bounds regression =="
cargo test -q --release -p qnat-sim --test kernel_bounds

echo "== sim-bench: fused-vs-unfused acceptance gate =="
cargo bench -p qnat-bench --bench sim_fused

echo "== load: socket-level chaos suite =="
cargo test -q --release -p qnat-transport --test transport_chaos

echo "== load: open-loop load harness SLO gate (deadlock-guarded) =="
cargo build --release -p qnat-bench --bin load_harness
timeout 180 cargo run --release -p qnat-bench --bin load_harness

echo "== bench: batch_throughput acceptance gate =="
cargo bench -p qnat-bench --bench batch_throughput

echo "== bench: serve_throughput acceptance gate =="
cargo bench -p qnat-bench --bench serve_throughput

echo "== bench: transport_throughput acceptance gate =="
cargo bench -p qnat-bench --bench transport_throughput

echo "== bench: fleet_routing acceptance gate =="
cargo bench -p qnat-bench --bench fleet_routing

echo "== bench: calib_tracking acceptance gate =="
cargo bench -p qnat-bench --bench calib_tracking

echo "== mitigate: de-panicked math + folding identity + sweep replay suites =="
cargo test -q -p qnat-core --lib mitigate::
cargo test -q -p qnat-compiler --test folding_props
cargo test -q -p qnat-serve --test mitigate_replay

echo "== mitigate: ZNE acceptance gate =="
cargo bench -p qnat-bench --bench zne_mitigation

echo "CI OK"
