#!/bin/sh
# Tier-1 concurrency gate: builds the serving + maintenance stress tests
# under ThreadSanitizer (-DINFLEX_SANITIZE=thread) in a dedicated build
# directory and runs them. Any data race in the sharded QueryCache, the
# QueryEngine batch path, the ThreadPool re-entrancy logic, or the
# IndexMaintainer generation-swap pipeline fails this script. The same
# phase runs cluster_test, data_test and im_test, whose k-means passes,
# dataset arc probabilities and CELF++ first round fan out over the pool.
# A second phase builds kernel_test, im_test, oracle_test, rank_test,
# extensions_test, cluster_test, data_test, tic_test, stats_test,
# graph_test, bbtree_test, inflex_core_test, maintenance_test and
# robustness_test under ASan+UBSan
# (-DINFLEX_SANITIZE=address):
# the KL kernel layer works on raw pointers into flat SoA buffers that
# Insert() reallocates, the seed selectors reuse per-thread oracle workspaces
# across graphs of different sizes, snapshot sampling (im_test, and
# oracle_test through OfflineTicSeeds) writes through a raw pointer past the
# kept count, the counting build and the reach BFS index
# the sparse snapshot adjacency by bitmap rank, rank aggregation's vote
# kernels read padded per-list rank rows by slot out of reused per-thread
# scratch, and the pooled
# k-means and arc-probability passes write per-point slots, and the
# propagation log compacts its records in place behind a read cursor, the
# Dirichlet sampler writes rows into one flat matrix, the graph builder
# permutes its staged arcs in place, and
# index generations share seed lists, bb-tree rows and bb-tree nodes that
# must outlive every generation still holding them, and the artifact
# loaders (dataset, log, index) read truncated and corrupted files —
# exactly the kind of code ASan exists for.
#
# Usage: tests/run_sanitized_stress.sh [source-dir] [build-dir] [asan-dir]
# (defaults: the repo root containing this script, <source>/build-tsan,
# <source>/build-asan)
set -eu

SRC="${1:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}"
BUILD="${2:-$SRC/build-tsan}"
BUILD_ASAN="${3:-$SRC/build-asan}"

echo "== configure ($BUILD, INFLEX_SANITIZE=thread)"
cmake -B "$BUILD" -S "$SRC" \
  -DINFLEX_SANITIZE=thread \
  -DINFLEX_BUILD_BENCHMARKS=OFF \
  -DINFLEX_BUILD_EXAMPLES=OFF \
  -DINFLEX_BUILD_TOOLS=OFF \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null

echo "== build (serving_test maintenance_test oracle_test util_test net_test quality_test tenant_test cluster_test data_test im_test)"
cmake --build "$BUILD" --target serving_test maintenance_test oracle_test \
  util_test net_test quality_test tenant_test cluster_test data_test im_test \
  -j "$(nproc)" > /dev/null

echo "== run serving stress + thread-pool tests under TSan"
# halt_on_error: any reported race is a hard failure, not a log line.
# tsan.supp scopes out libstdc++ 12's _Sp_atomic relaxed-unlock artifact
# (see the comment in that file) without masking races in our own code.
TSAN_OPTIONS="halt_on_error=1 suppressions=$SRC/tests/tsan.supp ${TSAN_OPTIONS:-}" \
  "$BUILD/tests/serving_test"
TSAN_OPTIONS="halt_on_error=1 suppressions=$SRC/tests/tsan.supp ${TSAN_OPTIONS:-}" \
  "$BUILD/tests/util_test" --gtest_filter='ThreadPoolTest.*'

echo "== run live-maintenance stress under TSan"
# The query storm runs concurrently with background seed recompute and
# RCU-style generation swaps; the test additionally replays every answer
# serially against its pinned generation and requires bit-identity.
TSAN_OPTIONS="halt_on_error=1 suppressions=$SRC/tests/tsan.supp ${TSAN_OPTIONS:-}" \
  "$BUILD/tests/maintenance_test"

echo "== run per-backend oracle admission storms under TSan"
# For each spread-oracle backend (CELF++, RIS) a serving storm runs
# against concurrent multi-worker precompute. Published lists must
# additionally be bit-identical to a serial replay.
TSAN_OPTIONS="halt_on_error=1 suppressions=$SRC/tests/tsan.supp ${TSAN_OPTIONS:-}" \
  "$BUILD/tests/oracle_test" \
  --gtest_filter='OracleTest.ConcurrentStormMatchesSerialReplayPerBackend'

echo "== run relevance scorer golden replay under TSan"
# The scorer drives the full serving + maintenance pipeline (admission,
# background precompute, decay sweep, epoch-keyed cache) per backend; under
# TSan it must still reproduce the committed report byte-for-byte.
TSAN_OPTIONS="halt_on_error=1 suppressions=$SRC/tests/tsan.supp ${TSAN_OPTIONS:-}" \
  "$BUILD/tests/quality_test"

echo "== run network loopback storm under TSan"
# The TCP front end's three planes (IO thread, admission queue, workers)
# against concurrent clients, live generation publishing, and graceful
# shutdown with requests in flight.
TSAN_OPTIONS="halt_on_error=1 suppressions=$SRC/tests/tsan.supp ${TSAN_OPTIONS:-}" \
  "$BUILD/tests/net_test"

echo "== run multi-tenant storm under TSan"
# The RCU tenant table under concurrent create/drop, racing lock-free
# lookups, per-tenant token buckets, and live per-tenant generation
# publishing over one server — with every answer replayed bit-for-bit
# against the generation (of the tenant) that served it.
TSAN_OPTIONS="halt_on_error=1 suppressions=$SRC/tests/tsan.supp ${TSAN_OPTIONS:-}" \
  "$BUILD/tests/tenant_test"

echo "== run offline-phase pool fan-outs under TSan"
# K-means seeding and assignment, the dataset's batched arc probabilities
# and CELF++'s parallel first round (reading one shared reach-mark array)
# all write per-index slots from pool workers; their pinned digests must
# still match.
for t in cluster_test data_test im_test; do
  TSAN_OPTIONS="halt_on_error=1 suppressions=$SRC/tests/tsan.supp ${TSAN_OPTIONS:-}" \
    "$BUILD/tests/$t"
done

echo "TSan stress: OK (zero reported races)"

echo "== configure ($BUILD_ASAN, INFLEX_SANITIZE=address)"
cmake -B "$BUILD_ASAN" -S "$SRC" \
  -DINFLEX_SANITIZE=address \
  -DINFLEX_BUILD_BENCHMARKS=OFF \
  -DINFLEX_BUILD_EXAMPLES=OFF \
  -DINFLEX_BUILD_TOOLS=OFF \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null

echo "== build (kernel_test im_test oracle_test rank_test extensions_test cluster_test data_test tic_test stats_test graph_test bbtree_test inflex_core_test maintenance_test robustness_test)"
cmake --build "$BUILD_ASAN" --target kernel_test im_test oracle_test rank_test \
  extensions_test cluster_test data_test tic_test stats_test graph_test \
  bbtree_test inflex_core_test maintenance_test robustness_test \
  -j "$(nproc)" > /dev/null

echo "== run KL kernel + SoA search tests under ASan+UBSan"
ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}" \
  "$BUILD_ASAN/tests/kernel_test"

echo "== re-run under ASan+UBSan with INFLEX_FORCE_SCALAR=1"
# The runtime-dispatched SIMD variants dominate the first run on AVX2
# hosts; forcing scalar makes ASan walk the fixed-order reference kernels'
# own pointer arithmetic (including the strided-row tails) too.
ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}" INFLEX_FORCE_SCALAR=1 \
  "$BUILD_ASAN/tests/kernel_test"

echo "== run influence-maximization tests under ASan+UBSan"
# One process runs parallel seed selection on a small graph, then a large
# one: each pool thread's workspace must follow the oracle's node count.
# The forced-scalar pass feeds the array build from the scalar sampler's
# buffer instead of the four AVX2 lane regions.
ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}" \
  "$BUILD_ASAN/tests/im_test"
ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}" INFLEX_FORCE_SCALAR=1 \
  "$BUILD_ASAN/tests/im_test"

echo "== run spread-oracle tests under ASan+UBSan"
# OfflineTicSeeds samples each item's snapshots from its mixture's bit
# planes: the four AVX2 lanes write their kept arcs into one buffer's
# regions past their lengths, and the forced-scalar pass grows the scalar
# loop's buffer instead.
ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}" \
  "$BUILD_ASAN/tests/oracle_test"
ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}" INFLEX_FORCE_SCALAR=1 \
  "$BUILD_ASAN/tests/oracle_test"

echo "== run rank-aggregation tests under ASan+UBSan"
# Copeland, Local Kemenization and the Kemeny functions all index the
# PreferenceMatrix's padded rank rows by slot, through the AVX2 vote-row
# kernel and the scalar loop, and reuse one AggregationContext's scratch;
# extensions_test runs aggregation through segment-query InflexIndex::Query.
# The forced-scalar pass walks the reference loop's own indexing.
ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}" \
  "$BUILD_ASAN/tests/rank_test"
ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}" \
  "$BUILD_ASAN/tests/extensions_test"
ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}" INFLEX_FORCE_SCALAR=1 \
  "$BUILD_ASAN/tests/rank_test"

echo "== run clustering, dataset, propagation-log, sampler + graph tests under ASan+UBSan"
# Pooled k-means passes over one row-major matrix, the batched per-item
# arc-probability buffers, the log staging and the propagation log's
# in-place deduplication, the Dirichlet sampler's flat rows and the graph
# builder's in-place permutation of its staged arcs.
ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}" \
  "$BUILD_ASAN/tests/cluster_test"
ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}" \
  "$BUILD_ASAN/tests/data_test"
ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}" \
  "$BUILD_ASAN/tests/tic_test"
ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}" \
  "$BUILD_ASAN/tests/stats_test"
ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}" \
  "$BUILD_ASAN/tests/graph_test"

echo "== run index-generation tests under ASan+UBSan"
# Copies of a bb-tree share its row block and nodes, and copies of an index
# its seed lists; adding, removing and compacting on a copy, dropping the
# base first, and the maintainer's publish, sweep and replay pipeline must
# never read a row, node or list after its last owner let go, nor past the
# end of a copy's own tail.
ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}" \
  "$BUILD_ASAN/tests/bbtree_test"
ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}" \
  "$BUILD_ASAN/tests/inflex_core_test"
ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}" \
  "$BUILD_ASAN/tests/maintenance_test"

echo "== run artifact-loader tests under ASan+UBSan"
# The graph, catalog, communities, log and index loaders on truncated,
# corrupted and oversized files: a Status every time, never a read past a
# buffer or an allocation sized by a damaged length field.
ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}" \
  "$BUILD_ASAN/tests/robustness_test"

echo "ASan tests: OK (kernel, im, oracle and rank dispatched + forced-scalar, extensions, cluster, data, tic, stats, graph, bbtree, inflex_core, maintenance, robustness)"
