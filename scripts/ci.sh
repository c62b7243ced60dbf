#!/usr/bin/env bash
# Offline CI gate for the xlac workspace.
#
# The workspace is hermetic (no external crates), so every step runs with
# --offline and must succeed on a machine with no network access:
#
#   1. release build of every crate and target (warnings are errors);
#   2. the full test suite, then the benchmark package's tests
#      (`benchmark/`, its own workspace, including a quick smoke of every
#      workload): the benchmark calls the sweep entry points,
#      `symbolic::twins` and `components` directly, so a change under
#      `crates/` that breaks one of those calls fails here instead of at
#      the next benchmark run;
#   3. clippy, when the component is installed (optional — toolchains
#      without it skip the step rather than fail);
#   4. xlac-lint: static error-bound validation + netlist lint over all
#      built-in configs and hdl/ (DESIGN.md §9) — any error-severity
#      diagnostic or unsound bound fails the gate;
#   5. xlac-lint --exact: the symbolic proof gate (DESIGN.md §11) — for
#      every shipped module the truth-table model, the hdl/ netlist and
#      the bit-sliced eval_x64 form are proven the same function (the
#      composite datapaths' BDDs are compiled from their hw netlists), and
#      every ≤8-bit static bound is checked sound against the exact
#      BDD metrics; any refuted proof or unsound bound fails the gate;
#      the JSON report is kept as target/LINT_exact.json and absint_gate
#      re-reads it to enforce the abstract-interpretation sweep
#      (DESIGN.md §16): every automatically derived bound sound, and
#      non-Wallace units within 8× of the exact worst case; then the
#      library gate (DESIGN.md §17) re-checks every shipped descriptor
#      in-process — lint + XL014 contract, registry equivalence proofs,
#      zero unsound bound audits — and times the combined distribution
#      sweep (exact PMF fronts under every shipped input distribution)
#      into BENCH_explore.json;
#   6. rustdoc with warnings as errors (broken intra-doc links etc.);
#   7. the bit-sliced differential suite on its own (DESIGN.md §10) —
#      it is part of step 2 already, but a dedicated invocation keeps
#      the sliced-vs-scalar lockstep visible as a named gate;
#   8. a smoke run of the micro-benchmarks (XLAC_BENCH_QUICK) so bench
#      bit-rot is caught without spending minutes measuring; the
#      bitslice bench's JSON lines are recorded into BENCH_bitslice.json
#      and the symbolic engine's into BENCH_symbolic.json so the
#      throughput and proof-cost trajectories are tracked in-tree; the
#      symbolic report also carries sifted-vs-unsifted node counts and
#      the compositional-calculus timings (DESIGN.md §14), gated by
#      symbolic_gate: the Wallace 8×8 miter must sift to < 200k nodes
#      with a ≥ 2× reduction, and the 16×16 Wallace calculus must
#      certify its metrics inside a wall-clock ceiling;
#   9. the JIT gates (DESIGN.md §13): the differential fuzz suite, the
#      symbolic golden proofs and the register-allocator fixtures as a
#      named step, then the jit bench recorded into BENCH_jit.json with
#      jit_gate enforcing the compiled-≥-interpreted floors (including
#      the 5× Wallace 8×8 evaluation claim);
#  10. the compute server (DESIGN.md §15): xlac-server unit tests in
#      both feature configurations, the server differential suite
#      (batched replies bit-identical to the scalar library models at
#      1/4/8 workers), the protocol-robustness suite (golden malformed-
#      frame fixtures + seeded fuzz), the capped soak/backpressure
#      suite and the pad-and-mask batch regression; then the loadgen
#      smoke profile recorded into BENCH_server.json with server_gate
#      enforcing the serving floors (mul_smoke ≥ 100k req/s, p99 ≤
#      50 ms, zero mismatches against the scalar path), and the
#      capacity model (xlac-loadgen --capacity) folding the BENCH_jit
#      per-evaluation cost into a predicted req/s at the protocol's
#      maximum batch size that the measured run must match within 2×;
#  11. the observability layer (DESIGN.md §12): xlac-obs unit tests in
#      both feature configurations, then the differential + lint +
#      exact gates re-run under the instrumented build (--features obs)
#      to prove instrumentation changes no result, and finally the
#      instrumented bitslice bench recorded into BENCH_obs.json with
#      xlac-obs-report gating the overhead against BENCH_bitslice.json:
#      any shared bench whose min_ns regresses more than 5% fails CI.
#
# Any failing step exits non-zero immediately (set -e).

set -euo pipefail
cd "$(dirname "$0")/.."

# Lint gate: promote warnings to errors for CI builds. The crates also
# carry #![forbid(unsafe_code)] / #![warn(missing_docs)] themselves; this
# flag makes the remaining rustc warnings fatal without baking -D into
# the crates (which would break builds on future compilers that add new
# default-on lints).
export RUSTFLAGS="${RUSTFLAGS:--D warnings}"

echo "==> cargo build (release, offline, all targets)"
cargo build --workspace --release --offline --all-targets

echo "==> cargo test (offline)"
cargo test -q --workspace --offline

echo "==> benchmark package tests (offline, own workspace)"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy (offline)"
    cargo clippy --workspace --offline --all-targets -- -D warnings
else
    echo "==> cargo clippy not installed; skipping lint step"
fi

echo "==> xlac-lint (static bounds + netlist lint)"
cargo run -q --release -p xlac-analysis --offline --bin xlac-lint -- --samples 100000

echo "==> xlac-lint --exact (equivalence proofs + bound soundness audit)"
cargo run -q --release -p xlac-analysis --offline --bin xlac-lint -- \
    --exact --lint-only --json > target/LINT_exact.json

echo "==> absint gate (derived bounds: zero unsound, non-Wallace within 8x of exact)"
cargo run -q --release -p xlac-bench --offline --bin absint_gate -- target/LINT_exact.json

echo "==> library gate (descriptor lint+XL014, registry proofs, sound audits) + distribution sweep (BENCH_explore.json)"
cargo run -q --release -p xlac-bench --offline --bin library_gate \
    | grep '^{' > BENCH_explore.json

echo "==> cargo doc (offline, warnings as errors)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps --offline

echo "==> bitslice differential suite (sliced engine vs scalar golden models)"
cargo test -q --offline --release --test bitslice_differential

echo "==> bench smoke run (XLAC_BENCH_QUICK=1)"
XLAC_BENCH_QUICK=1 cargo bench -q -p xlac-bench --offline >/dev/null

# The two bitslice reports feed the observability overhead gate below,
# so they need real minima: 7 measured samples (quick mode would force 3
# noisy ones) with a short calibration target.
echo "==> bitslice throughput report (BENCH_bitslice.json)"
XLAC_BENCH_SAMPLES=7 XLAC_BENCH_MIN_SAMPLE_MS=1 cargo bench -q -p xlac-bench \
    --bench bitslice --offline \
    | grep '^{' > BENCH_bitslice.json

echo "==> symbolic engine report (BENCH_symbolic.json)"
XLAC_BENCH_QUICK=1 cargo bench -q -p xlac-bench --bench symbolic --offline \
    | grep '^{' > BENCH_symbolic.json

echo "==> symbolic gate (sift < 200k nodes, >= 2x reduction; 16x16 calculus ceiling)"
cargo run -q --release -p xlac-bench --offline --bin symbolic_gate -- BENCH_symbolic.json

echo "==> jit differential suite (compiled vs interpreted vs scalar)"
cargo test -q --offline --release --test jit_differential --test jit_golden \
    --test jit_regalloc --test thread_scaling

echo "==> jit throughput report (BENCH_jit.json)"
XLAC_BENCH_SAMPLES=7 XLAC_BENCH_MIN_SAMPLE_MS=1 cargo bench -q -p xlac-bench \
    --bench jit --offline \
    | grep '^{' > BENCH_jit.json

echo "==> jit throughput gate (compiled >= interpreted; Wallace x8 >= 5x)"
cargo run -q --release -p xlac-bench --offline --bin jit_gate -- BENCH_jit.json

echo "==> compute-server unit tests (default, then --features obs)"
cargo test -q -p xlac-server --offline
cargo test -q -p xlac-server --offline --features obs

echo "==> server differential + protocol + soak + batch-padding suites"
cargo test -q --offline --release --test server_differential --test server_proto \
    --test server_soak --test batch_padding

echo "==> instrumented server suites (--features obs)"
cargo test -q --offline --release --test server_differential --test server_proto \
    --features obs

echo "==> serving throughput report (BENCH_server.json)"
cargo run -q --release -p xlac-server --offline --bin xlac-loadgen -- \
    --self-host --profile smoke | grep '^{' > BENCH_server.json

echo "==> serving gate (mul_smoke >= 100k req/s, p99 <= 50ms, bit-exact replies)"
cargo run -q --release -p xlac-bench --offline --bin server_gate -- BENCH_server.json

echo "==> server capacity model (BENCH_jit per-op cost folded in; within 2x)"
cargo run -q --release -p xlac-server --offline --bin xlac-loadgen -- \
    --self-host --capacity --bench-jit BENCH_jit.json | grep '^{' >> BENCH_server.json

echo "==> xlac-obs unit tests (no-op default build, then --features obs)"
cargo test -q -p xlac-obs --offline
cargo test -q -p xlac-obs --offline --features obs

echo "==> instrumented differential suite (--features obs)"
cargo test -q --offline --release --test bitslice_differential --features obs

echo "==> instrumented xlac-lint (--features obs)"
cargo run -q --release -p xlac-analysis --offline --features obs \
    --bin xlac-lint -- --samples 100000

echo "==> instrumented xlac-lint --exact (--features obs)"
cargo run -q --release -p xlac-analysis --offline --features obs \
    --bin xlac-lint -- --exact --lint-only

echo "==> instrumented bitslice report (BENCH_obs.json)"
XLAC_BENCH_SAMPLES=7 XLAC_BENCH_MIN_SAMPLE_MS=1 cargo bench -q -p xlac-bench \
    --bench bitslice --offline --features obs \
    | grep '^{' > BENCH_obs.json

echo "==> observability profile"
cargo run -q --release -p xlac-obs --offline --bin xlac-obs-report -- BENCH_obs.json

echo "==> observability overhead gate (<=5% vs BENCH_bitslice.json)"
cargo run -q --release -p xlac-obs --offline --bin xlac-obs-report -- \
    --gate BENCH_bitslice.json BENCH_obs.json

echo "CI OK"
