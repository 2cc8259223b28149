#!/usr/bin/env bash
# Tier-1 gate: formatting, the workspace lint wall, the full test suite,
# the static plan lint over every shipped lowering, the paper's headline
# shape claims, and every bench gate with its schema-drift check. Run
# before every push; CI runs exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

scibench() { cargo run --release -q -p scibench-bench --bin scibench -- "$@"; }

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (workspace lint wall, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== scilint (source-level determinism & numeric-safety gate)"
# Zero unsuppressed findings allowed; every suppression carries a reason.
# Prints a one-line per-crate summary; details in DESIGN.md §3.9.
cargo run --release -q -p scilint --bin scilint -- --quiet

echo "== scilint --flow (sciflow: interprocedural effect gate)"
# Panic/nondet/copy/spawn sinks reachable from engine entry points, each
# with its witness call chain; details in DESIGN.md §3.12. Also checks the
# machine-readable report still speaks sciflow/v1.
cargo run --release -q -p scilint --bin scilint -- --flow --json > "$tmp/flow.json"
flow_schema='"schema": "sciflow/v1"'
grep -qF "$flow_schema" "$tmp/flow.json" || {
  echo "ci: FAIL - scilint --flow no longer emits $flow_schema" >&2; exit 1; }
jq -e . "$tmp/flow.json" >/dev/null || {
  echo "ci: FAIL - scilint --flow --json is not valid JSON" >&2; exit 1; }

echo "== cargo test"
cargo test -q --workspace

echo "== cargo test, 8 test threads (concurrent runs' ledgers stay apart)"
# On a 2-core host libtest runs two tests at a time, which seldom overlaps
# two runs' measurement windows; eight at a time makes the overlap routine.
cargo test -q -p scibench-core --lib -- --test-threads 8
cargo test -q --test integration_zerocopy -- --test-threads 8

echo "== perfbench tests (the benchmark's own checks)"
# perfbench is a workspace of its own, so --workspace above skips it. Its
# tests pin the staged reference rows bit for bit against the pipelines.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== scibench lint (static verification of lowered task graphs)"
scibench lint

echo "== reproduce --check (the paper's headline shape claims)"
# Exits non-zero unless every claim holds (11/11); details in EXPERIMENTS.md.
cargo run --release -q -p scibench-bench --bin reproduce -- --check

echo "== scibench perf-smoke (serial vs parallel kernels, bit-identical)"
# Tiny shapes, ~seconds: asserts every parallel kernel port matches the
# serial reference bit for bit, and that SCIBENCH_THREADS is honored.
SCIBENCH_THREADS=2 scibench perf-smoke
scibench perf-smoke --threads 4

# Every artifact-emitting gate. Each tool exits non-zero on its own
# violations (fingerprint divergence across copy/compress/budget modes or
# schedules, a warm hit that moved bytes, an unrejected Figure 15 plan, a
# bounded run that did not spill or overran its budget, ...; DESIGN.md
# §3.10-§3.16), then the emitted and the committed artifact must both
# parse as JSON and speak the schema the tool emits.
while IFS='|' read -r args artifact schema <&3; do
  echo "== scibench $args ($artifact)"
  out="$tmp/$artifact"
  # shellcheck disable=SC2086 # $args is a word list by design
  scibench $args --out "$out"
  for json in "$out" "$artifact"; do
    jq -e . "$json" >/dev/null || {
      echo "ci: FAIL - $json (from scibench $args) is not valid JSON" >&2; exit 1; }
  done
  schema_line="\"schema\": \"$schema\""
  grep -qF "$schema_line" "$out" || {
    echo "ci: FAIL - scibench $args no longer emits $schema_line" >&2; exit 1; }
  grep -qF "$schema_line" "$artifact" || {
    echo "ci: FAIL - committed $artifact schema drifted from $schema_line" >&2
    echo "     regenerate it: cargo run --release -p scibench-bench --bin scibench -- ${args% --quick} --out $artifact" >&2
    exit 1; }
done 3<<'GATES'
lint --memo|MEMO_report.json|scimemo/v2
bench e2e --quick|BENCH_e2e.json|scibench-bench-e2e/v1
bench skew --quick|BENCH_skew.json|scibench-bench-skew/v1
bench compress --quick|BENCH_compress.json|scibench-bench-compress/v1
bench serve --quick|BENCH_serve.json|scibench-bench-serve/v1
bench ooc --quick|BENCH_ooc.json|scibench-bench-ooc/v1
GATES

echo "ci: all gates passed"
