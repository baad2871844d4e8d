#!/usr/bin/env bash
# Regenerate the committed benchdiff baseline (bench_db/baseline/) from the
# pinned CI reference spec.
#
# Before blessing anything, the script verifies the engine's determinism
# contract on this machine: the reference sweep must produce byte-identical
# data rows at several --jobs values.  A baseline that depends on thread
# count would make the CI gate flaky, so a mismatch aborts the refresh.
#
# Usage: scripts/update_baseline.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

SPEC=specs/ci_reference.spec
NAME=ci_reference
ABLATION_SPEC=specs/ablation_smoke.spec
ABLATION_NAME=ablation
BUILD=${1:-build}
SWEEP=$BUILD/examples/mobisim_sweep
DIFF=$BUILD/examples/mobisim_benchdiff

if [ ! -x "$SWEEP" ] || [ ! -x "$DIFF" ]; then
  cmake -B "$BUILD" -S .
  cmake --build "$BUILD" -j "$(nproc)" --target mobisim_sweep mobisim_benchdiff
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "update_baseline: checking determinism across --jobs values"
for jobs in 1 3 "$(nproc)"; do
  "$SWEEP" --spec "$SPEC" --jobs "$jobs" --jsonl "$tmp/jobs$jobs.jsonl" --quiet
  # Strip the metadata header: it carries the timestamp and hostname, which
  # legitimately differ between runs.  Every data row must match exactly.
  grep -v '"_meta"' "$tmp/jobs$jobs.jsonl" > "$tmp/jobs$jobs.data"
done
for jobs in 3 "$(nproc)"; do
  if ! cmp -s "$tmp/jobs1.data" "$tmp/jobs$jobs.data"; then
    echo "update_baseline: --jobs 1 and --jobs $jobs disagree; refusing to" \
         "bless a nondeterministic baseline" >&2
    exit 1
  fi
done

# Rebuild the store from scratch so the manifest holds exactly one entry for
# the blessed run (StoreRun appends; stale entries would accumulate).  The
# fresh store is staged in a sibling directory on the same filesystem and
# only swapped in after it verifies, so a failure partway through can never
# leave a missing or half-written bench_db/ behind.
stage=$(mktemp -d "$PWD/bench_db.stage.XXXXXX")
trap 'rm -rf "$tmp" "$stage"' EXIT
"$SWEEP" --spec "$SPEC" --db "$stage" --name "$NAME" --sha baseline --quiet

# The FTL policy ablation baseline: every translation/cleaning policy at
# both bounding utilizations, gated the same way as the reference sweep.
"$SWEEP" --spec "$ABLATION_SPEC" --db "$stage" --name "$ABLATION_NAME" \
         --sha baseline --quiet
"$DIFF" --verify-db "$stage" --quiet

# Sanity: each fresh baseline must gate itself clean.
"$DIFF" --base "$stage/baseline/$NAME.jsonl" \
        --cand "$stage/baseline/$NAME.jsonl" --quiet
"$DIFF" --base "$stage/baseline/$ABLATION_NAME.jsonl" \
        --cand "$stage/baseline/$ABLATION_NAME.jsonl" --quiet

# Atomic swap: the old store is whole until the verified one replaces it.
old=
if [ -d bench_db ]; then
  old=$(mktemp -d "$PWD/bench_db.old.XXXXXX")
  mv bench_db "$old/prev"
fi
mv "$stage" bench_db
if [ -n "$old" ]; then
  rm -rf "$old"
fi

# Provenance, straight from each baseline's _meta header: what spec (by name
# and fingerprint), which machine, and when.  This is what a reviewer of the
# bench_db/ diff needs to judge the refresh without rerunning it.
echo "update_baseline: regenerated baselines:"
for baseline in bench_db/baseline/*.jsonl; do
  python3 - "$baseline" <<'EOF'
import json, sys
path = sys.argv[1]
with open(path) as f:
    meta = json.loads(f.readline())
    rows = sum(1 for _ in f)
print(f"  {path}: spec={meta.get('spec_name', '?')}"
      f" spec_hash={meta.get('spec_hash', '?')}"
      f" rows={rows} host={meta.get('host', '?')}"
      f" created={meta.get('created', '?')}")
EOF
done
echo "update_baseline: bench_db/baseline/{$NAME,$ABLATION_NAME}.jsonl refreshed; commit bench_db/"
