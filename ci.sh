#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build, full test suite.
# The workspace builds offline (path-crate shims, committed Cargo.lock),
# so this script needs no network access.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test (TREEQUERY_WORKERS=1)"
TREEQUERY_WORKERS=1 cargo test --workspace -q

echo "==> cargo test (TREEQUERY_WORKERS=4)"
TREEQUERY_WORKERS=4 cargo test --workspace -q

echo "==> determinism: observation-heavy test binaries, 5 runs each"
# These binaries observe spans and allocations while other tests run on
# parallel threads; per-query captures must keep every run green at
# cargo's default test-thread count. The admission test runs in release:
# its heavy-lane race only shows at release speed.
for run in 1 2 3 4 5; do
    echo "    run $run/5"
    cargo test -q --test stress_engine
    cargo test -q -p treequery-bench --lib
    cargo test -q -p treequery-obs --lib
    cargo test --release -q -p treequery-serve --test admission
done

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> disabled-span + counting-allocator overhead gate"
cargo run -p treequery-bench --release --bin harness -q -- --check-noop-overhead

echo "==> zero-alloc steady-state gate (workers 1 and 4)"
# The executor kernels (sweep, semijoin, union merge), called the way the
# executor calls them, must not allocate on a warm run; asserted via
# AllocScope attribution at both worker counts, under both pool-sizing
# env settings.
TREEQUERY_WORKERS=1 cargo test -q -p treequery-core --test zero_alloc
TREEQUERY_WORKERS=4 cargo test -q -p treequery-core --test zero_alloc

echo "==> continuous benchmark trajectory gate"
# Runs the pinned suite and fails on >15% wall (calibration-scaled,
# persisting across re-measurement) or >5% allocated-byte regressions
# against the committed seed baseline, or on any steady-state allocation
# in a set-at-a-time sweep case. After an intentional perf change,
# regenerate with: harness bench --out crates/bench/BENCH_seed.json
BENCH_OUT="$(mktemp -t treequery-bench.XXXXXX.json)"
trap 'rm -f "$BENCH_OUT"' EXIT
cargo run -p treequery-bench --release --bin harness -q -- bench \
    --out "$BENCH_OUT" --baseline crates/bench/BENCH_seed.json

echo "==> harness --report round-trip smoke (E19)"
REPORT="$(mktemp -t treequery-report.XXXXXX.json)"
trap 'rm -f "$BENCH_OUT" "$REPORT"' EXIT
cargo run -p treequery-bench --release --bin harness -q -- --report "$REPORT" e12 e19
grep -q '"e19"' "$REPORT"

echo "==> differential fuzz gate (seed 0xC0C4)"
# Seed-deterministic campaign; exits 1 on any strategy disagreement or
# metamorphic-law violation. New reproducers land in tests/corpus/ —
# commit them so the bug stays covered after the fix.
cargo run -p treequery-bench --release --bin harness -q -- fuzz --seconds 10 --seed 0xC0C4

echo "==> edit-script fuzz gate (seed 0xED17)"
# Edits-only rotation: every input is a (tree, query, edit script)
# triple; after each edit the incrementally maintained document and its
# fingerprint are cross-checked against a from-scratch rebuild oracle
# under every strategy x {1,4} workers.
cargo run -p treequery-bench --release --bin harness -q -- fuzz --edits --seconds 10 --seed 0xED17

echo "==> regression corpus replay (workers 1 and 4)"
TREEQUERY_WORKERS=1 cargo test -q --test corpus_replay
TREEQUERY_WORKERS=4 cargo test -q --test corpus_replay

echo "==> Chrome trace round-trip gate"
# The demo workload's trace must write, parse back through the committed
# JSON parser, and validate: one complete span tree per query, with
# worker-attributed chunk events. That worker chunk spans land on their
# own trace thread is pinned deterministically by the pool_trace test.
TRACE="$(mktemp -t treequery-trace.XXXXXX.json)"
trap 'rm -f "$BENCH_OUT" "$REPORT" "$TRACE"' EXIT
cargo run -p treequery-bench --release --bin harness -q -- --trace "$TRACE"
cargo run -p treequery-bench --release --bin harness -q -- --check-trace "$TRACE"

echo "==> query service conformance gate (serve + transcript replay)"
# One multi-tenant server process, replayed against the committed golden
# transcript: every verb, structured errors, a cross-connection CANCEL of
# a runaway NP-class query, a deadline-exceeded query, a metrics scrape
# (validated as Prometheus exposition, with per-verb/per-code counters
# checked), and a clean protocol-level shutdown. The replay exits 1 on
# any mismatch; the server must then exit 0 on its own.
SERVE_PORT=9185
cargo run -p treequery-bench --release --bin harness -q -- serve "$SERVE_PORT" &
SERVE_PID=$!
cargo run -p treequery-bench --release --bin harness -q -- \
    serve-client "$SERVE_PORT" crates/serve/transcripts/ci_session.jsonl
wait "$SERVE_PID"

echo "==> tenant observatory gate (tracing + usage + SLO + graceful drain)"
# One server with the flight recorder and the observatory HTTP listener
# enabled (TREEQUERY_SLOW_MS=0 logs every query as slow), exercised by
# two committed transcripts. The first runs two tenants side by side:
# trace ids echoed on every reply, per-tenant usage totals pinned exactly
# against the usage verb, per-class SLO attainment (thresholds relaxed
# for CI machines), and the tenant/SLO families in the validated
# /metrics exposition. The probe then checks the HTTP side: /tenants and
# /slo validate as Prometheus expositions with both tenants present; two
# /metrics scrapes each validate (every metric typed once) and carry the
# engine counters typed as counters and the flight families; /slow holds
# records with EXPLAIN ANALYZE text; /flight contains the record joined
# to the transcript's explicit trace id; unknown paths 404 and a garbage
# request line gets a 400. The second transcript shuts the
# server down gracefully: a finite heavy query in flight is drained to
# completion while a runaway NP-class query is cancelled once the
# --drain-ms budget expires, with both outcomes reported in the ack.
TENANT_PORT=9186
OBSERVATORY_PORT=9187
TREEQUERY_SLOW_MS=0 cargo run -p treequery-bench --release --bin harness -q -- serve "$TENANT_PORT" \
    --flight --http "$OBSERVATORY_PORT" --drain-ms 6000 \
    --slo linear=2000 --slo output_sensitive=4000 --slo polynomial=4000 --slo exponential=8000 &
TENANT_PID=$!
cargo run -p treequery-bench --release --bin harness -q -- \
    serve-client "$TENANT_PORT" crates/serve/transcripts/ci_tenant_session.jsonl
cargo run -p treequery-bench --release --bin harness -q -- \
    probe-observatory "$OBSERVATORY_PORT" --tenants alpha,beta --trace trace-alpha-1
cargo run -p treequery-bench --release --bin harness -q -- \
    serve-client "$TENANT_PORT" crates/serve/transcripts/ci_drain.jsonl
wait "$TENANT_PID"

echo "==> end-to-end wire gate (perfbench bulk: answer oracle + no delayed-ACK stall)"
# Two seconds of the benchmark's bulk workload (2,000-8,000-row answers,
# 12-50 KiB replies) against a freshly started server. Every answer must
# match the benchmark's in-process oracle, and the median query round
# trip must stay under 10 ms: a reply split over two writes waits out the
# client's ~40 ms delayed-ACK timer, while one write per reply answers in
# well under 1 ms, so the bound is far from both. perfbench builds into
# the workspace's own release target here.
BULK="$(CARGO_TARGET_DIR=target python3 perfbench/run.py --workload bulk --seed 1 --seconds 2 | tail -n 1)"
python3 - "$BULK" <<'PY'
import json
import sys

result = json.loads(sys.argv[1])
p50 = result["metrics"]["query_p50_us"]["value"]
print(f"    failed {result['failed']}, bulk query_p50_us {p50:.0f}")
if result["failed"] != 0 or p50 >= 10_000:
    sys.exit("perfbench bulk: answers failed the oracle or replies stalled")
PY

echo "CI OK"
