#!/bin/sh
# Loopback smoke test of the network serving front end: builds a small
# dataset + index with inflex_cli, boots the inflex_serve daemon on an
# ephemeral port with no propagation log in its dataset directory, and
# drives it with the inflex_serve client mode — ping, single query, a
# pipelined query run, and a catalog delta — then sends SIGTERM and asserts
# the graceful-shutdown markers. Before that it checks that bad daemon
# options fail fast: non-zero exit, an `error:` line, and no bound port.
# Registered as a CTest test; $1 is the path to inflex_cli and $2 the path
# to inflex_serve.
set -eu

CLI="$1"
SERVE="$2"
WORK="$(mktemp -d)"
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT
cd "$WORK"

echo "== generate + build-index"
"$CLI" generate --out data --users 250 --topics 4 --items 100 --seed 11 \
  > /dev/null
"$CLI" build-index --data data --out index.bin --h 16 --ell 10 \
  --snapshots 30 > /dev/null
# Only TIC learning reads the propagation log: the daemon serves without it.
rm data/log.bin

echo "== bad daemon options fail fast"
# `timeout` bounds a regression that would start serving instead of failing.
expect_startup_error() {
  if timeout 30 "$SERVE" --data data --index index.bin "$@" \
      > bad.log 2>&1; then
    echo "inflex_serve $* exited 0; log:" >&2
    cat bad.log >&2
    exit 1
  fi
  if ! grep -q "^error:" bad.log || grep -q "listening on" bad.log; then
    echo "inflex_serve $* did not fail fast; log:" >&2
    cat bad.log >&2
    exit 1
  fi
}
expect_startup_error --listen 70000
expect_startup_error --listen 0 --threads -1
expect_startup_error --listen 0 --oracle sketch

echo "== start daemon (ephemeral port)"
"$SERVE" --data data --index index.bin --listen 0 --workers 2 \
  > serve.log 2>&1 &
SERVE_PID=$!
i=0
while ! grep -q "listening on" serve.log 2>/dev/null; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "daemon did not start; log:" >&2
    cat serve.log >&2
    exit 1
  fi
  sleep 0.1
done
PORT="$(sed -n 's/^listening on [0-9.]*:\([0-9]*\).*/\1/p' serve.log)"
[ -n "$PORT" ] || { echo "could not parse port from serve.log" >&2; exit 1; }

echo "== ping"
"$SERVE" --connect "$PORT" --ping | grep -q "ping ok | epoch 0"

echo "== query"
"$SERVE" --connect "$PORT" --gamma 0.7,0.1,0.1,0.1 --k 5 | grep -q "seeds:"

echo "== repeated queries (cache on the server side)"
"$SERVE" --connect "$PORT" --gamma 0.25,0.25,0.25,0.25 --k 5 --count 16 \
  --quiet | grep -q "16 ok, 0 overloaded, 0 expired, 0 failed"

echo "== catalog delta over the wire"
"$SERVE" --connect "$PORT" --delta-id smoke-item \
  --gamma 0.995,0.002,0.002,0.001 > delta.log
grep -q "delta smoke-item:" delta.log

echo "== graceful shutdown"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=""
grep -q "shutting down: draining in-flight requests" serve.log
grep -q "net serving summary:" serve.log
grep -q "engine summary:" serve.log
grep -q "drained cleanly" serve.log

echo "net smoke: OK"
