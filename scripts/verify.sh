#!/usr/bin/env bash
# Repo verification: build, test, lint. Offline-friendly — every external
# dependency is vendored (see vendor/README.md), so no network fetches.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release --offline

echo "== cargo test -q =="
cargo test -q --offline --workspace

echo "== simulator test matrix across host thread counts =="
# The functional phase must be bit-identical whether the worker pool is
# disabled (1) or draining chunks in parallel (4).
for t in 1 4; do
  echo "-- FD_SIM_THREADS=$t --"
  FD_SIM_THREADS=$t cargo test -q --offline -p fd-gpu -p fd-detector
done

echo "== kernel fusion (asserts >= 1.2x end-to-end speedup, >= 1.15x batched, bit-identical detections, live limiting-factor counters) =="
# The bench's identity check compares 1 and 4 host threads via
# DetectorConfig (the FD_SIM_THREADS matrix above additionally runs the
# fusion_identity proptests at both thread counts), and it fails on
# degenerate occupancy accounting. Scratch results dir: the committed
# results/BENCH_fusion.json stays the reference run.
FD_RESULTS_DIR="$(mktemp -d)" \
  cargo run --release --offline -q -p fd-bench --bin fusion -- --assert-min-speedup-pct 120 --assert-min-batched-pct 115

echo "== fault matrix (every fault kind x pipeline stage) =="
cargo test -q --offline -p fd-detector --test fault_matrix

echo "== supervisor soak (breakers must recover; asserts zero stuck in Quarantined) =="
# Scratch results dir: the soak step validates invariants, it must not
# clobber the committed full-length results/BENCH_supervisor_soak.json.
FD_RESULTS_DIR="$(mktemp -d)" \
  cargo run --release --offline -q -p fd-bench --bin supervisor_soak -- --sessions 3 --frames 120

echo "== serve load (asserts batched p99 <= unbatched p99 and >= 1.5x throughput at saturation) =="
# Scratch results dir, same reasoning as the soak step: the committed
# results/BENCH_serve_load.json stays the full-length run.
FD_RESULTS_DIR="$(mktemp -d)" \
  cargo run --release --offline -q -p fd-bench --bin serve_load -- --requests 150

echo "== serve faults (asserts zero-fault byte-identity, goodput >= 0.9 and p99 <= 1.5x fault-free under chaos) =="
# Scratch results dir: the committed results/BENCH_serve_faults.json
# stays the full-length run.
FD_RESULTS_DIR="$(mktemp -d)" \
  cargo run --release --offline -q -p fd-bench --bin serve_faults -- --requests 150

echo "== serve fleet (asserts >= 3x throughput at 4 devices, kill-one goodput >= 0.70 with p99 <= 1.5x baseline, fleet-of-1 byte-identity) =="
# Scratch results dir: the committed results/BENCH_serve_fleet.json
# stays the full-length run.
FD_RESULTS_DIR="$(mktemp -d)" \
  cargo run --release --offline -q -p fd-bench --bin serve_fleet -- --requests 200

echo "== serve mixed (asserts haar-tier throughput >= 0.9x haar-only under CNN co-tenancy, cnn-tier p99 <= 10ms budget, fleet-of-1 byte-identity to the pre-trait server) =="
# Scratch results dir: the committed results/BENCH_serve_mixed.json
# stays the full-length run.
FD_RESULTS_DIR="$(mktemp -d)" \
  cargo run --release --offline -q -p fd-bench --bin serve_mixed -- --requests 120

echo "== cnn eval (asserts cnn pre-final rejection >= 0.90, cnn TPR >= 0.90, and a real accuracy/latency front vs haar) =="
# Scratch results dir: the committed results/BENCH_cnn_eval.json stays
# the full-length run.
FD_RESULTS_DIR="$(mktemp -d)" \
  cargo run --release --offline -q -p fd-bench --bin cnn_eval -- --faces 24 --backgrounds 96

echo "== cargo clippy --all-targets -- -D warnings =="
cargo clippy --all-targets --offline -- -D warnings

echo "verify: OK"
