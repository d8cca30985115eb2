#!/bin/sh
# End-to-end exercise of inflex_cli: generate → learn → suggest-h →
# build-index → query → add-item → evaluate → info, asserting exit codes and
# key output markers, plus a concurrent-serving replay through inflex_serve.
# Registered as a CTest test; $1 is the path to the inflex_cli binary and the
# optional $2 the path to inflex_serve.
set -eu

CLI="$1"
SERVE="${2:-}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

echo "== generate"
"$CLI" generate --out data --users 300 --topics 4 --items 150 --seed 9 \
  | grep -q "generated 300 users"

echo "== info (dataset only)"
"$CLI" info --data data | grep -q "users: 300"
"$CLI" info --data data | grep -q "log records:"

echo "== learn"
"$CLI" learn --data data --out learned --iters 5 | grep -q "learned model"
# The learned model keeps the original log next to it.
cmp data/log.bin learned/log.bin

echo "== info (dataset without a log)"
rm learned/log.bin
"$CLI" info --data learned > info_nolog.txt
grep -q "users: 300" info_nolog.txt
if grep -q "log records:" info_nolog.txt; then
  echo "info printed log records for a directory without log.bin" >&2
  exit 1
fi

echo "== suggest-h"
"$CLI" suggest-h --data data --target 0.5 | grep -q "suggested h"

echo "== build-index"
"$CLI" build-index --data data --out index.bin --h 16 --ell 10 \
  --snapshots 30 | grep -q "built index"

echo "== query"
"$CLI" query --data data --index index.bin --mix 0.7,0.1,0.1,0.1 --k 5 \
  | grep -q "seeds:"

echo "== query with explicit strategy"
"$CLI" query --data data --index index.bin --mix 0.25,0.25,0.25,0.25 \
  --k 5 --strategy exact | grep -q "exact"

echo "== add-item"
"$CLI" add-item --data data --index index.bin --mix 0.1,0.1,0.1,0.7 \
  --ell 8 | grep -q "index now has 17 points"

if [ -n "$SERVE" ]; then
  echo "== serve (batched concurrent replay, cache on)"
  "$SERVE" --data data --index index.bin --queries 256 --unique 32 \
    --batch 64 --threads 4 --k 5 | grep -q "QPS overall"
  echo "== serve (cache off)"
  "$SERVE" --data data --index index.bin --queries 64 --unique 32 \
    --batch 32 --threads 2 --k 5 --no-cache | grep -q "hit rate 0.0%"
  echo "== serve (live maintenance: --deltas)"
  # Catalog deltas stream in under the replay: >=1 must be admitted, its
  # seeds recomputed in the background, and the resulting generations
  # published under load (the binary exits non-zero otherwise).
  "$SERVE" --data data --index index.bin --queries 256 --unique 32 \
    --batch 64 --threads 4 --k 5 --deltas 4 > serve_deltas.log
  grep -q "maintenance: published generation" serve_deltas.log
  grep -q "maintenance summary:" serve_deltas.log
  grep -q "0 failed |" serve_deltas.log
fi

echo "== evaluate"
"$CLI" evaluate --data data --index index.bin --queries 4 --k 8 \
  | grep -q "avg Kendall-tau"

echo "== info (with index)"
"$CLI" info --data data --index index.bin | grep -q "points (h): 17"

echo "== error handling"
if "$CLI" query --data data --index index.bin --mix 0.5,0.5 --k 5 \
    2>/dev/null; then
  echo "expected dimension mismatch to fail" >&2
  exit 1
fi
if "$CLI" build-index --data data --out x.bin --bogus 1 2>/dev/null; then
  echo "expected unknown option to fail" >&2
  exit 1
fi
if "$CLI" nonsense-command 2>/dev/null; then
  echo "expected unknown command to fail" >&2
  exit 1
fi

echo "CLI end-to-end: OK"
