#!/usr/bin/env bash
# Tier-1 verification gate: everything that must be green before a merge.
#
# Usage: scripts/verify.sh
# Runs, in order:
#   1. release build of the whole workspace
#   2. the full test suite (root package = tier-1 gate, plus all members)
#   3. clippy (workspace-wide, pedantic subset) with warnings promoted
#      to errors
#   4. rustfmt in check mode
#   5. the T2C_PROFILE observability smoke: profile_smoke must emit a
#      schema-valid report with the keys downstream tooling depends on
#   6. lint-models: t2c-check runs the static integer-pipeline verifier
#      over the e2e model zoo + exported packages; any error-level
#      finding fails the gate, and the JSON report must be schema-valid
#   6b. error-bound: t2c-check --error-bound certifies a sound static
#      float↔int divergence bound for every zoo model (all must be
#      finite), round-trips each certificate through the package
#      manifest (T2C605 cross-check) and emits a schema-valid
#      error_bound.json whose top-level verdict (parsed, not grepped:
#      every model entry carries its own "pass") is pass
#   7. serve_smoke: t2c-serve --smoke binds an ephemeral port and
#      round-trips one request per zoo model over TCP against direct
#      execution, then the loadgen sweep must demonstrate the batching
#      win (device-paced, cluster_loadgen-style: max_batch=16 ≥ 2×
#      max_batch=1 on the zoo MLP at 32-way concurrency with a fixed
#      per-batch device service time; the gate ran unpaced before
#      admission-compiled plans made the batch-1 host baseline ~3×
#      faster) and emit a schema-valid serve_loadgen.json
#   8. sparse_speedup: the skip-zero kernel must be bit-identical to the
#      dense path and at least 1.5× faster on the zoo MLP at both 80%
#      unstructured and 2:4 structured sparsity, with a schema-valid
#      sparse_speedup.json
#   9. gemm_pack: the compiled plan's packed-gemm kernel must be
#      bit-identical to the dense interpreter path (per-call transpose +
#      naive saturating matmul) at every swept shape and at least 1.5×
#      faster at 64×1024×1024 with 4 host threads, with a schema-valid
#      gemm_pack.json
#   9b. plan_speedup: the compiled execution plan (per-layer kernels with
#      fused epilogues + arena-backed intermediates) must be bit-identical
#      to the interpreter on every zoo model at batch 1 and 8, at least
#      as fast single-threaded end to end on every cell (at least 1.3×
#      on the zoo MLP, the floor kept from when the gate covered only
#      it), and perform zero
#      steady-state heap allocations (counting-allocator odometer) on
#      every model except ViT, with a schema-valid plan_speedup.json
#      whose cells and models are parsed and checked
#   10. cluster_smoke: t2c-cluster --smoke spins up a replicated tier on
#      an ephemeral port and exercises TCP round-trips for every zoo
#      model, a rolling model update, a replica kill with continued
#      service, and a structured rejection; then the cluster_loadgen
#      sweep must demonstrate the scale-out win (4 replicas ≥ 2.5× 1
#      replica on the zoo MLP at 32-way concurrency, device-paced) with
#      zero requests lost when a replica is killed mid-run, and emit a
#      schema-valid cluster_loadgen.json
set -euo pipefail
cd "$(dirname "$0")/.."

# json_gate REPORT EXPR MESSAGE: parses REPORT as JSON (bound to `r`) and
# fails the gate with MESSAGE unless the Python expression EXPR is true.
# Report keys are checked with it too, each at the level it belongs to
# (top level, or every entry of its list): a grep for `"key"` would match
# the key at any depth, or inside a string.
json_gate() {
    python3 - "$1" "$2" <<'PY' || { echo "$1: $3"; exit 1; }
import json, sys
r = json.load(open(sys.argv[1]))
sys.exit(0 if eval(sys.argv[2]) is True else 1)
PY
}

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test (tier-1 gate)"
cargo test -q

echo "==> cargo test --workspace"
cargo test -q --workspace

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> profile smoke (T2C_PROFILE=1)"
T2C_PROFILE=1 cargo run --release -q -p t2c-bench --bin profile_smoke
report=bench_results/profile_smoke.json
json_gate "$report" '{"version", "tag", "counters", "gauges", "histograms", "series", "layers", "dual_path"} <= r.keys() and len(r["layers"]) > 0 and all({"saturation_rate", "macs", "forward_ns"} <= l.keys() for l in r["layers"])' \
    "missing a top-level or per-layer key"

echo "==> lint-models (t2c-check)"
lint_report=bench_results/t2c_check.json
cargo run --release -q -p t2c-lint --bin t2c-check -- --json "$lint_report"
json_gate "$lint_report" '{"version", "tag", "summary", "findings", "nodes", "verdict"} <= r.keys()' \
    "missing a top-level key"

echo "==> error-bound certification (t2c-check --error-bound)"
eb_report=bench_results/error_bound.json
cargo run --release -q -p t2c-lint --bin t2c-check -- --error-bound "$eb_report"
json_gate "$eb_report" '{"version", "tolerance", "pass"} <= r.keys() and len(r["models"]) > 0 and all({"model", "per_layer", "end_to_end_steps"} <= m.keys() for m in r["models"])' \
    "missing a top-level or per-model key"
json_gate "$eb_report" 'r["pass"]' "top-level verdict is not pass"

echo "==> serve smoke (t2c-serve --smoke, ephemeral port)"
cargo run --release -q -p t2c-serve --bin t2c-serve -- --smoke

echo "==> serve loadgen (batching throughput gate)"
serve_report=bench_results/serve_loadgen.json
cargo run --release -q -p t2c-bench --bin loadgen
json_gate "$serve_report" '{"version", "bench", "created_unix", "gate_pace_batch_ns", "configs", "mlp_speedup_b16_vs_b1", "pass"} <= r.keys() and len(r["configs"]) > 0 and all({"model", "max_batch", "pace_batch_ns", "concurrency", "completed", "throughput_rps", "p50_ns", "p99_ns", "mean_batch_rows"} <= c.keys() for c in r["configs"])' \
    "missing a top-level or per-config key"
json_gate "$serve_report" 'r["pass"]' "did not pass"

echo "==> sparse speedup (skip-zero deployment gate)"
sparse_report=bench_results/sparse_speedup.json
cargo run --release -q -p t2c-bench --bin sparse_speedup
json_gate "$sparse_report" '{"version", "bench", "created_unix", "configs", "unstructured_speedup", "nm_speedup", "pass"} <= r.keys() and len(r["configs"]) > 0 and all({"model", "layout", "sparsity", "dense_ns", "sparse_ns", "speedup", "bit_identical"} <= c.keys() for c in r["configs"])' \
    "missing a top-level or per-config key"
json_gate "$sparse_report" 'r["pass"]' "did not pass"

echo "==> gemm pack (plan packed-gemm kernel gate, T2C_THREADS=4)"
pack_report=bench_results/gemm_pack.json
T2C_THREADS=4 cargo run --release -q -p t2c-bench --bin gemm_pack
json_gate "$pack_report" '{"version", "bench", "created_unix", "threads", "shapes", "gate_speedup", "pass"} <= r.keys() and len(r["shapes"]) > 0 and all({"dense_ns", "packed_ns", "speedup", "bit_identical"} <= s.keys() for s in r["shapes"])' \
    "missing a top-level or per-shape key"
json_gate "$pack_report" 'len(r["shapes"]) > 0 and all(s["bit_identical"] is True for s in r["shapes"])' \
    "a shape is not bit-identical"
json_gate "$pack_report" 'r["pass"]' "did not pass"

echo "==> plan speedup (compiled execution-plan gate, 1 thread)"
plan_report=bench_results/plan_speedup.json
cargo run --release -q -p t2c-bench --bin plan_speedup
json_gate "$plan_report" '{"version", "bench", "created_unix", "threads", "steady_iters", "cells", "models", "min_speedup", "bit_identical", "gate_speedup", "gate_speedup_mlp", "pass"} <= r.keys()' \
    "missing a top-level key"
json_gate "$plan_report" 'len(r["cells"]) > 0 and all({"model", "batch", "unplanned_ns", "planned_ns", "speedup", "floor", "bit_identical"} <= c.keys() for c in r["cells"])' \
    "missing a per-cell key"
json_gate "$plan_report" 'len(r["models"]) > 0 and all({"model", "steady_allocs", "allocs_gated", "arena_bytes", "scratch_bytes", "fused_nodes", "kernels"} <= m.keys() for m in r["models"])' \
    "missing a per-model key"
json_gate "$plan_report" 'len(r["cells"]) == 12 and all(c["bit_identical"] and c["speedup"] >= c["floor"] >= (1.3 if c["model"] == "tiny-mlp" else 1.0) for c in r["cells"])' \
    "a cell is not bit-identical or misses its speedup floor"
json_gate "$plan_report" 'all(m["steady_allocs"] == 0 for m in r["models"] if m["model"] != "vit-ptq")' \
    "reports steady-state allocations"
json_gate "$plan_report" 'r["pass"]' "did not pass"

echo "==> cluster smoke (t2c-cluster --smoke, ephemeral port)"
cargo run --release -q -p t2c-cluster --bin t2c-cluster -- --smoke

echo "==> cluster loadgen (scale-out throughput gate)"
cluster_report=bench_results/cluster_loadgen.json
cargo run --release -q -p t2c-bench --bin cluster_loadgen
json_gate "$cluster_report" '{"version", "bench", "created_unix", "device_paced", "pace_batch_ns", "configs", "scaleout_4v1", "kill_lost_requests", "pass"} <= r.keys() and len(r["configs"]) > 0 and all({"replicas", "concurrency", "requests", "completed", "errors", "retries", "hedges", "wall_ns", "throughput_rps", "p50_ns", "p99_ns", "killed_replica"} <= c.keys() for c in r["configs"])' \
    "missing a top-level or per-config key"
json_gate "$cluster_report" 'r["pass"]' "did not pass"

echo "verify: all green"
