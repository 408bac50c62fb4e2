#!/usr/bin/env bash
# Trace-determinism gate: two same-seed runs of one experiment binary
# must produce byte-identical JSONL traces and RunReport JSON (modulo
# the wall-clock lines, which `xtask trace diff` exempts).
#
#   ./ci/trace_gate.sh [seed]
#
# Uses exp04 (Gnutella message counts) because it exercises the engine,
# the overlay, the oracle and the underlay accounting in one run, and
# exp16 (resilience) because its non-empty FaultPlan drives routing
# repairs, latency inflation and every overlay's recovery path —
# the layers most likely to smuggle nondeterminism in. exp17 (fault-scale
# repair) double-runs the incremental routing-repair path itself: its
# routing.repair events and report must be byte-identical, which pins
# dirty-source selection and the CSR splice to a deterministic order.
set -euo pipefail
cd "$(dirname "$0")/.."

SEED="${1:-42}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

run() { # run <bin> <name> <dir>
  mkdir -p "$3"
  cargo run --release -q -p uap-bench --bin "$1" -- \
    --quick --seed "$SEED" --out "$3" --trace "$3/$2.trace.jsonl" \
    > "$3/stdout.txt"
}

gate() { # gate <bin> <name>
  echo "run A ($1, seed $SEED)"
  run "$1" "$2" "$WORK/$2/a"
  echo "run B ($1, seed $SEED)"
  run "$1" "$2" "$WORK/$2/b"

  echo "trace diff (JSONL)"
  cargo run --release -q -p xtask -- trace diff \
    "$WORK/$2/a/$2.trace.jsonl" "$WORK/$2/b/$2.trace.jsonl"

  echo "trace diff (RunReport JSON)"
  cargo run --release -q -p xtask -- trace diff \
    "$WORK/$2/a/$1.report.json" \
    "$WORK/$2/b/$1.report.json"

  echo "trace summary"
  cargo run --release -q -p xtask -- trace summary "$WORK/$2/a/$2.trace.jsonl"

  echo "trace check (causal integrity)"
  cargo run --release -q -p xtask -- trace check "$WORK/$2/a/$2.trace.jsonl"
  cargo run --release -q -p xtask -- trace check "$WORK/$2/b/$2.trace.jsonl"
}

gate exp04_message_counts exp04

gate exp16_resilience exp16

# The fault campaign must actually fire in the gated run.
if ! grep -q '"k":"fault.epoch"' "$WORK/exp16/a/exp16.trace.jsonl"; then
  echo "exp16 trace contains no fault.epoch events — FaultPlan not applied" >&2
  exit 1
fi

# The streaming sink must produce byte-identical output to the buffered
# sink (same binary, same seed, write-through instead of in-memory).
echo "streaming sink byte identity (exp16)"
mkdir -p "$WORK/exp16/s"
cargo run --release -q -p uap-bench --bin exp16_resilience -- \
  --quick --seed "$SEED" --out "$WORK/exp16/s" \
  --trace "$WORK/exp16/s/exp16.trace.jsonl" --trace-stream \
  > "$WORK/exp16/s/stdout.txt"
cmp "$WORK/exp16/a/exp16.trace.jsonl" "$WORK/exp16/s/exp16.trace.jsonl"

echo "trace spans (exp16)"
cargo run --release -q -p xtask -- trace spans "$WORK/exp16/a/exp16.trace.jsonl"

# Provenance smoke: a download.retry must explain back to a fault.epoch
# root — the causal chain the fault campaign exists to exercise.
echo "trace explain (exp16 download.retry provenance)"
RETRY_SEQ="$(grep -m1 '"k":"download.retry"' "$WORK/exp16/a/exp16.trace.jsonl" \
  | sed -E 's/^\{"seq":([0-9]+).*/\1/')"
if [ -z "$RETRY_SEQ" ]; then
  echo "exp16 trace contains no download.retry events — recovery path not exercised" >&2
  exit 1
fi
EXPLAIN="$(cargo run --release -q -p xtask -- trace explain \
  "$WORK/exp16/a/exp16.trace.jsonl" "$RETRY_SEQ")"
echo "$EXPLAIN"
if ! echo "$EXPLAIN" | grep -q 'fault.epoch'; then
  echo "download.retry seq $RETRY_SEQ does not trace back to a fault.epoch root" >&2
  exit 1
fi

gate exp17_fault_scale exp17

# The incremental-repair path must actually fire in the gated run.
if ! grep -q '"k":"routing.repair"' "$WORK/exp17/a/exp17.trace.jsonl"; then
  echo "exp17 trace contains no routing.repair events — repair path not exercised" >&2
  exit 1
fi

gate exp18_congestion exp18

# The flow allocator must actually back the swarm transfers in the gated
# run: per-round flow-set deltas appear as flow.open/flow.close events.
if ! grep -q '"k":"flow.open"' "$WORK/exp18/a/exp18.trace.jsonl"; then
  echo "exp18 trace contains no flow.open events — flow model not exercised" >&2
  exit 1
fi

echo "trace gate passed."
