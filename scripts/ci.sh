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
#   3. clippy, then `cargo fmt --all --check` under the checked-in
#      rustfmt.toml, each when its component is installed (optional —
#      toolchains without it skip the step rather than fail);
#   4. xlac-lint --exact, one run that lints and proves: the netlist lint
#      over all built-in configs and hdl/ plus the JIT bytecode verifier
#      (DESIGN.md §9), then the symbolic proof gate (DESIGN.md §11) — for
#      every shipped module the truth-table or scalar model, the hdl/
#      netlist and any remaining hand bit-sliced form are proven the same
#      function (the ≤16-input agreement legs compare the scalar model,
#      and the hand bit-sliced model where one exists, with the
#      elaborated netlist on every assignment, 64 lanes per block; the
#      GeAr legs on seeded vectors) — and the bound audit, the one check
#      of the static bounds: every ≤8-bit bound against the exact metrics
#      from exhaustive compiled enumeration (the wider GeAr/SAD/FIR
#      bounds are sampled by tests/static_bounds.rs in step 2); any
#      error-severity diagnostic, refuted proof or unsound bound (the
#      `absint:` derived bounds of DESIGN.md §16 included) fails the
#      gate; the JSON report is kept as target/LINT_exact.json for the
#      report gate (step 12);
#   5. the library gate (DESIGN.md §17) re-checks every shipped
#      descriptor in-process — lint + XL014 contract, registry
#      equivalence proofs, zero unsound bound audits — and times the
#      combined distribution sweep (exact PMF fronts under every shipped
#      input distribution) into BENCH_explore.json;
#   6. rustdoc with warnings as errors (broken intra-doc links etc.);
#   7. the bit-sliced differential suite on its own (DESIGN.md §10) —
#      it is part of step 2 already, but a dedicated invocation keeps
#      the lockstep of every 64-lane form (hand *_x64 body or compiled
#      hw netlist) with the scalar models visible as a named gate;
#   8. a smoke run of the micro-benchmarks (XLAC_BENCH_QUICK) so bench
#      bit-rot is caught without spending minutes measuring; the
#      bitslice bench's JSON lines are recorded into BENCH_bitslice.json
#      and the symbolic engine's into BENCH_symbolic.json so the
#      throughput and proof-cost trajectories are tracked in-tree; the
#      symbolic report also carries the engine's node and memo counters,
#      the compositional-calculus timings (DESIGN.md §14) and the scalar
#      oracles' ns per call (DESIGN.md §11.5);
#   9. the JIT suites (DESIGN.md §13): the differential fuzz suite, the
#      symbolic golden proofs and the register-allocator fixtures as a
#      named step, then the jit bench recorded into BENCH_jit.json;
#  10. the compute server (DESIGN.md §15): xlac-server unit tests in
#      both feature configurations, the server differential suite
#      (batched replies bit-identical to the scalar library models at
#      1/4/8 shards, from one connection and from three at once), the
#      protocol-robustness suite (golden malformed-frame fixtures, seeded
#      fuzz, drainer liveness and shutdown), the capped soak/backpressure
#      suite and the pad-and-mask batch regression, then the first three
#      again under --features obs (requests are served on the reader
#      threads, inside the instrumented server spans); then the loadgen
#      smoke profile recorded into BENCH_server.json, followed by the
#      capacity model (xlac-loadgen --capacity) folding the BENCH_jit
#      per-evaluation cost into a predicted req/s at the protocol's
#      maximum batch size, with the measured/predicted ratio appended;
#  11. the observability layer (DESIGN.md §12): xlac-obs unit tests in
#      both feature configurations, then the differential suite and
#      xlac-lint --exact re-run under the instrumented build (--features obs)
#      to prove instrumentation changes no result, and finally the
#      instrumented bitslice bench recorded into BENCH_obs.json and
#      profiled;
#  12. the report gate: `xlac-obs-report --check scripts/gates.jsonl`
#      checks every floor and ceiling on the reports written above, one
#      rule per line of the spec (DESIGN.md §12): the JIT ratio floors
#      (compiled ≥ interpreted, Wallace 8×8 x8 ≥ 5×), batched error
#      accumulation (push_lanes) no slower than per-lane push, the
#      compiled exhaustive Wallace 8×8 ceiling, the 16×16 calculus ceiling,
#      the truncated 8×8 and GeAr(16,2,6) scalar-oracle ceilings, the
#      serving floors (every request answered, zero errors and
#      mismatches, mul_smoke ≥ 100k req/s and p99 ≤ 50 ms), the capacity
#      ratio in [0.5, 2] with zero mismatches, ≥ 20 absint audit entries
#      with non-Wallace bounds within 8× of exact, and every bench shared
#      by BENCH_obs.json and BENCH_bitslice.json within 5% on min_ns.
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

if cargo fmt --version >/dev/null 2>&1; then
    echo "==> cargo fmt --check"
    cargo fmt --all --check
else
    echo "==> rustfmt not installed; skipping format check"
fi

echo "==> xlac-lint --exact (netlist lint + equivalence proofs + bound soundness audit)"
cargo run -q --release -p xlac-analysis --offline --bin xlac-lint -- \
    --exact --json > target/LINT_exact.json

echo "==> library gate (descriptor lint+XL014, registry proofs, sound audits) + distribution sweep (BENCH_explore.json)"
cargo run -q --release -p xlac-bench --offline --bin library_gate \
    | grep '^{' > BENCH_explore.json

echo "==> cargo doc (offline, warnings as errors)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps --offline

echo "==> bitslice differential suite (sliced engine vs scalar golden models)"
cargo test -q --offline --release --test bitslice_differential

echo "==> bench smoke run (XLAC_BENCH_QUICK=1)"
XLAC_BENCH_QUICK=1 cargo bench -q -p xlac-bench --offline >/dev/null

# The two bitslice reports feed the obs.overhead rule of the report gate,
# so they need real minima: 7 measured samples (quick mode would force 3
# noisy ones) with a short calibration target.
echo "==> bitslice throughput report (BENCH_bitslice.json)"
XLAC_BENCH_SAMPLES=7 XLAC_BENCH_MIN_SAMPLE_MS=1 cargo bench -q -p xlac-bench \
    --bench bitslice --offline \
    | grep '^{' > BENCH_bitslice.json

echo "==> symbolic engine report (BENCH_symbolic.json)"
XLAC_BENCH_QUICK=1 cargo bench -q -p xlac-bench --bench symbolic --offline \
    | grep '^{' > BENCH_symbolic.json

echo "==> jit differential suite (compiled vs interpreted vs scalar)"
cargo test -q --offline --release --test jit_differential --test jit_golden \
    --test jit_regalloc --test thread_scaling

echo "==> jit throughput report (BENCH_jit.json)"
XLAC_BENCH_SAMPLES=7 XLAC_BENCH_MIN_SAMPLE_MS=1 cargo bench -q -p xlac-bench \
    --bench jit --offline \
    | grep '^{' > BENCH_jit.json

echo "==> compute-server unit tests (default, then --features obs)"
cargo test -q -p xlac-server --offline
cargo test -q -p xlac-server --offline --features obs

echo "==> server differential + protocol + soak + batch-padding suites"
cargo test -q --offline --release --test server_differential --test server_proto \
    --test server_soak --test batch_padding

echo "==> instrumented server suites (--features obs)"
cargo test -q --offline --release --test server_differential --test server_proto \
    --test server_soak --features obs

echo "==> serving throughput report (BENCH_server.json)"
cargo run -q --release -p xlac-server --offline --bin xlac-loadgen -- \
    --self-host --profile smoke | grep '^{' > BENCH_server.json

echo "==> server capacity model (BENCH_jit per-op cost folded in)"
cargo run -q --release -p xlac-server --offline --bin xlac-loadgen -- \
    --self-host --capacity --bench-jit BENCH_jit.json | grep '^{' >> BENCH_server.json

echo "==> xlac-obs unit tests (no-op default build, then --features obs)"
cargo test -q -p xlac-obs --offline
cargo test -q -p xlac-obs --offline --features obs

echo "==> instrumented differential suite (--features obs)"
cargo test -q --offline --release --test bitslice_differential --features obs

echo "==> instrumented xlac-lint --exact (--features obs)"
cargo run -q --release -p xlac-analysis --offline --features obs \
    --bin xlac-lint -- --exact

echo "==> instrumented bitslice report (BENCH_obs.json)"
XLAC_BENCH_SAMPLES=7 XLAC_BENCH_MIN_SAMPLE_MS=1 cargo bench -q -p xlac-bench \
    --bench bitslice --offline --features obs \
    | grep '^{' > BENCH_obs.json

echo "==> observability profile"
cargo run -q --release -p xlac-obs --offline --bin xlac-obs-report -- BENCH_obs.json

echo "==> report gate (every rule in scripts/gates.jsonl)"
cargo run -q --release -p xlac-obs --offline --bin xlac-obs-report -- \
    --check scripts/gates.jsonl

echo "CI OK"
