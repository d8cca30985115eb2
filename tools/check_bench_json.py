#!/usr/bin/env python3
"""Validate the committed BENCH_*.json artifacts.

CI runs this after the benchmarks regenerate the files, so a bench that
silently stops emitting a section (or emits garbage numbers) fails the build
instead of shipping a stale artifact. Checks are structural plus a few loose
physical invariants — they must hold on any machine, so no absolute
throughput thresholds.

Usage: tools/check_bench_json.py [repo_root]
"""

import json
import math
import sys
from pathlib import Path

FAILURES = []


def check(cond, msg):
    if not cond:
        FAILURES.append(msg)


def is_num(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def require_keys(obj, keys, where):
    for k in keys:
        check(k in obj, f"{where}: missing key '{k}'")
    return all(k in obj for k in keys)


SIMD_NAMES = ("scalar", "avx2", "avx512")
# Spread-oracle backends, the CELF++ reference first.
ORACLE_BACKENDS = ("celfpp", "ris")


def check_simd_record(host, where):
    """Validates the host.simd record (which KL kernel variant ran) and
    returns it, or None when it is missing/malformed."""
    simd = host.get("simd") if isinstance(host, dict) else None
    check(isinstance(simd, dict),
          f"{where}: missing host.simd record (detected/active kernel "
          "variant — needed to decide whether SIMD gates apply)")
    if not isinstance(simd, dict):
        return None
    check(simd.get("detected") in SIMD_NAMES,
          f"{where}: host.simd.detected must be one of {SIMD_NAMES}")
    check(simd.get("active") in SIMD_NAMES,
          f"{where}: host.simd.active must be one of {SIMD_NAMES}")
    check(isinstance(simd.get("forced_scalar"), bool),
          f"{where}: host.simd.forced_scalar must be a bool")
    if simd.get("forced_scalar") is True:
        check(simd.get("active") == "scalar",
              f"{where}: forced_scalar artifact must record active=scalar")
    return simd


def check_kernels(path):
    d = json.loads(path.read_text())
    check(d.get("benchmark") == "kl_kernel_leaf_scan", f"{path.name}: bad 'benchmark'")
    check(d.get("unit") == "ns_per_eval", f"{path.name}: bad 'unit'")
    quick = d.get("quick") is True
    simd = check_simd_record(d.get("host", {}), path.name)
    rows = d.get("rows")
    check(isinstance(rows, list) and rows, f"{path.name}: 'rows' empty or missing")
    for i, row in enumerate(rows or []):
        where = f"{path.name} rows[{i}]"
        if not require_keys(row, ("z", "batch", "reference", "scalar_kernel",
                                  "kernel", "speedup", "simd_speedup"), where):
            continue
        check(is_num(row["reference"]) and row["reference"] > 0, f"{where}: bad reference")
        check(is_num(row["scalar_kernel"]) and row["scalar_kernel"] > 0,
              f"{where}: bad scalar_kernel")
        check(is_num(row["kernel"]) and row["kernel"] > 0, f"{where}: bad kernel")
        check(is_num(row["speedup"]) and row["speedup"] > (1.0 if not quick else 0.0),
              f"{where}: vectorized kernel must beat the scalar reference")
        check(is_num(row["simd_speedup"]) and row["simd_speedup"] > 0,
              f"{where}: bad simd_speedup")

    # --- SIMD-speedup gate: with an explicit SIMD variant active, the
    # dispatched KlBatch must beat the auto-vectorized fixed-order scalar
    # kernel by >= 1.5x per eval at the bench dims Z=8 and Z=50 (full runs
    # only; --quick measurements are too short to gate). On a host whose
    # dispatch fell back to scalar — no AVX2, or INFLEX_FORCE_SCALAR — the
    # gate is physics-free, so it skips loudly instead of failing (mirroring
    # the 1-core thread-scaling skip).
    active = simd.get("active") if isinstance(simd, dict) else None
    if active in ("avx2", "avx512") and not quick:
        for z in (8, 50):
            zrows = [r for r in (rows or [])
                     if isinstance(r, dict) and r.get("z") == z
                     and is_num(r.get("simd_speedup"))]
            check(bool(zrows), f"{path.name}: need a Z={z} row for the SIMD gate")
            for r in zrows:
                check(r["simd_speedup"] >= 1.5,
                      f"{path.name} Z={z} batch={r.get('batch')}: SIMD "
                      f"kl_batch speedup {r['simd_speedup']}x below the 1.5x "
                      f"gate the {active} variant exists to deliver")
    else:
        reason = "a --quick smoke run" if quick else \
            f"'{active}' kernels (no AVX2, or forced scalar)"
        print(f"WARNING: {path.name} recorded with {reason} — SIMD-speedup "
              "gate skipped (re-record a full run on an AVX2-capable host "
              "to enforce it)")


def check_serving(path):
    d = json.loads(path.read_text())
    check(d.get("benchmark") == "serving_throughput", f"{path.name}: bad 'benchmark'")

    host = d.get("host", {})
    check(isinstance(host, dict) and is_num(host.get("hardware_concurrency"))
          and host.get("hardware_concurrency", 0) >= 1,
          f"{path.name}: missing host.hardware_concurrency (needed to scale "
          "the throughput gates to the recording machine)")
    check_simd_record(host, path.name)
    hc = host.get("hardware_concurrency") if isinstance(host, dict) else None

    serial = d.get("serial", {})
    check(is_num(serial.get("qps")) and serial.get("qps", 0) > 0,
          f"{path.name}: serial.qps must be positive")

    rows = d.get("rows")
    check(isinstance(rows, list) and rows, f"{path.name}: 'rows' empty or missing")
    saw_cached = saw_uncached = False
    for i, row in enumerate(rows or []):
        where = f"{path.name} rows[{i}]"
        if not require_keys(
                row, ("config", "cached", "threads", "qps", "hit_rate", "p50_ms", "p99_ms"),
                where):
            continue
        check(is_num(row["qps"]) and row["qps"] > 0, f"{where}: bad qps")
        check(is_num(row["hit_rate"]) and 0.0 <= row["hit_rate"] <= 1.0,
              f"{where}: hit_rate out of [0,1]")
        check(is_num(row["p50_ms"]) and is_num(row["p99_ms"])
              and 0 <= row["p50_ms"] <= row["p99_ms"],
              f"{where}: latency percentiles must be ordered")
        if row["cached"]:
            saw_cached = True
            check(row["hit_rate"] > 0.5, f"{where}: cached row with cold cache")
        else:
            saw_uncached = True
            check(row["hit_rate"] == 0.0, f"{where}: uncached row reports cache hits")
    check(saw_cached and saw_uncached, f"{path.name}: need both cached and uncached rows")

    # --- Scaling gates: uncached QPS must scale with cores (the serving
    # plane is lock-free enough that threads add throughput, not contention).
    # The expectation is keyed to the recording host: on an 8-core machine the
    # max-thread row must reach >= 4x serial; fewer cores scale the bar down
    # (0.5x per effective core), and a 1-core host skips with a loud warning
    # instead of failing physics.
    uncached_rows = {
        row["threads"]: row
        for row in (rows or [])
        if isinstance(row, dict) and row.get("cached") is False
        and is_num(row.get("threads")) and is_num(row.get("qps"))
    }
    if is_num(hc) and uncached_rows and is_num(serial.get("qps")):
        top_threads = max(uncached_rows)
        top = uncached_rows[top_threads]
        eff = min(int(top_threads), int(hc))
        if eff >= 2:
            want = 0.5 * eff
            check(top["qps"] >= want * serial["qps"],
                  f"{path.name}: uncached {int(top_threads)}-thread qps "
                  f"{top['qps']:.0f} must be >= {want:.1f}x serial "
                  f"{serial['qps']:.0f} on a {int(hc)}-core host — the "
                  "serving plane is serializing")
            base = uncached_rows.get(1)
            if base and is_num(base.get("p95_ms")) and is_num(top.get("p95_ms")) \
                    and base["p95_ms"] > 0:
                check(top["p95_ms"] <= 3.0 * base["p95_ms"],
                      f"{path.name}: uncached {int(top_threads)}-thread p95 "
                      f"{top['p95_ms']:.3f} ms blew past 3x the 1-thread p95 "
                      f"{base['p95_ms']:.3f} ms — queueing under contention")
        else:
            print(f"WARNING: {path.name} recorded on a {int(hc)}-core host — "
                  "thread-scaling gates skipped (re-record on a multi-core "
                  "machine to enforce them)")

    # The churn scenario exercises the maintenance tentpole end to end: a
    # 100-delta burst must coalesce into a handful of generations, and the
    # decay sweeps must evict cold points with the index size stabilizing.
    churn = d.get("churn")
    check(isinstance(churn, dict), f"{path.name}: missing 'churn' section")
    if not isinstance(churn, dict):
        return
    ok = require_keys(
        churn,
        ("deltas_submitted", "admitted", "burst_generations", "batched_deltas",
         "index_points_initial", "index_points_peak", "decay_sweeps",
         "points_evicted", "rows"),
        f"{path.name} churn")
    if not ok:
        return
    for key in ("deltas_submitted", "admitted", "burst_generations",
                "batched_deltas", "index_points_initial", "index_points_peak",
                "decay_sweeps", "points_evicted"):
        if not is_num(churn.get(key)):
            check(False, f"{path.name} churn: '{key}' must be a finite number")
            return
    check(churn["deltas_submitted"] >= 100, f"{path.name}: churn burst too small")
    check(churn["admitted"] == churn["deltas_submitted"],
          f"{path.name}: churn deltas must all be admitted (mixtures are far apart)")
    check(1 <= churn["burst_generations"] <= 5,
          f"{path.name}: {churn['deltas_submitted']}-delta burst published "
          f"{churn['burst_generations']} generations, want <= 5")
    check(churn["batched_deltas"] == churn["admitted"],
          f"{path.name}: every burst delta should land via a coalesced batch")
    check(churn["points_evicted"] > 0, f"{path.name}: decay sweeps evicted nothing")
    check(churn["decay_sweeps"] >= 2, f"{path.name}: need repeated sweeps")
    check(churn["index_points_peak"] > churn["index_points_initial"],
          f"{path.name}: burst did not grow the index")

    phases = churn["rows"]
    check(isinstance(phases, list) and len(phases) >= 4,
          f"{path.name}: churn needs warm/burst/sweep phases")
    if isinstance(phases, list):
        for i, row in enumerate(phases):
            if isinstance(row, dict):
                require_keys(row, ("phase", "generation_swaps", "index_points",
                                   "points_evicted"), f"{path.name} churn rows[{i}]")
            else:
                check(False, f"{path.name} churn rows[{i}]: must be an object")
        # Only well-formed sweep rows enter the stabilization gate — a row
        # missing 'index_points' already failed require_keys above and must
        # not crash the comparison with a KeyError.
        sweeps = [r for r in phases
                  if isinstance(r, dict)
                  and str(r.get("phase", "")).startswith("sweep")
                  and is_num(r.get("index_points"))]
        check(len(sweeps) >= 2, f"{path.name}: need at least two sweep snapshots")
        if len(sweeps) >= 2:
            check(sweeps[-1]["index_points"] == sweeps[-2]["index_points"],
                  f"{path.name}: index size must stabilize across trailing sweeps")
            check(sweeps[-1]["index_points"] < churn["index_points_peak"],
                  f"{path.name}: sweeps must shrink the index below its burst peak")

    # The oracle A/B section is the contract of the spread-oracle subsystem:
    # the pluggable RIS backend must match the CELF++ golden
    # reference's seed quality (>= 0.95x by a common Monte-Carlo referee)
    # while publishing admitted deltas >= 10x faster (full runs; --quick
    # runs are shape-only smoke, so they only gate a loose quality floor and
    # the latency *ordering*).
    oracle = d.get("oracle")
    check(isinstance(oracle, dict), f"{path.name}: missing 'oracle' section")
    if isinstance(oracle, dict) and require_keys(
            oracle, ("quick", "deltas", "k", "rows"), f"{path.name} oracle"):
        quick = oracle["quick"] is True
        check(is_num(oracle["deltas"]) and oracle["deltas"] >= (4 if quick else 8),
              f"{path.name}: oracle A/B needs >= {4 if quick else 8} deltas")
        orows = oracle["rows"]
        by_backend = {}
        if isinstance(orows, list):
            for i, row in enumerate(orows):
                where = f"{path.name} oracle.rows[{i}]"
                if not require_keys(
                        row, ("backend", "admit_to_publish_mean_ms",
                              "admit_to_publish_max_ms", "precompute_mean_ms",
                              "mean_spread", "quality_vs_celfpp",
                              "speedup_vs_celfpp"), where):
                    continue
                check(is_num(row["admit_to_publish_mean_ms"])
                      and row["admit_to_publish_mean_ms"] > 0,
                      f"{where}: bad admit_to_publish_mean_ms")
                check(is_num(row["precompute_mean_ms"])
                      and 0 < row["precompute_mean_ms"]
                      <= row["admit_to_publish_mean_ms"],
                      f"{where}: precompute must be positive and inside the "
                      "admit->publish window")
                check(is_num(row["mean_spread"]) and row["mean_spread"] > 0,
                      f"{where}: bad mean_spread")
                by_backend[row.get("backend")] = row
        for backend in ORACLE_BACKENDS:
            check(backend in by_backend,
                  f"{path.name}: oracle section missing the '{backend}' row")
        golden = by_backend.get("celfpp")
        if golden:
            check(golden.get("quality_vs_celfpp") == 1.0,
                  f"{path.name}: celfpp is its own quality reference")
            quality_floor = 0.8 if quick else 0.95
            for backend in ORACLE_BACKENDS[1:]:
                row = by_backend.get(backend)
                if not row:
                    continue
                where = f"{path.name} oracle '{backend}'"
                check(is_num(row.get("quality_vs_celfpp"))
                      and row["quality_vs_celfpp"] >= quality_floor,
                      f"{where}: seed quality {row.get('quality_vs_celfpp')} "
                      f"below the {quality_floor}x CELF++ floor")
                check(row["admit_to_publish_mean_ms"]
                      < golden["admit_to_publish_mean_ms"],
                      f"{where}: must publish faster than CELF++")
                if not quick:
                    check(is_num(row.get("speedup_vs_celfpp"))
                          and row["speedup_vs_celfpp"] >= 10.0,
                          f"{where}: admit->publish speedup "
                          f"{row.get('speedup_vs_celfpp')} below the 10x gate "
                          "the subsystem exists to deliver")

    # The tenants section is the noisy-neighbor contract of the multi-tenant
    # serving plane: a hot tenant flooding against its per-tenant token
    # bucket must shed at the admission layer (cheap bucket probe, not a KL
    # search), and every quiet tenant's storm p99 must stay within a bounded
    # factor of its solo baseline. The isolation gate only means something
    # when the recorder could actually run tenants concurrently, so --quick
    # and 1-core artifacts skip it loudly instead of failing physics.
    tenants = d.get("tenants")
    check(isinstance(tenants, dict), f"{path.name}: missing 'tenants' section")
    if isinstance(tenants, dict) and require_keys(
            tenants, ("quick", "quiet_tenants", "isolation_ratio_max", "hot",
                      "rows"), f"{path.name} tenants"):
        tquick = tenants["quick"] is True
        check(is_num(tenants["quiet_tenants"])
              and tenants["quiet_tenants"] >= 2,
              f"{path.name}: noisy-neighbor scenario needs >= 2 quiet tenants")
        hot = tenants["hot"]
        if isinstance(hot, dict) and require_keys(
                hot, ("tenant", "budget_qps", "attempts", "admitted", "shed",
                      "shed_rate", "p99_ms"), f"{path.name} tenants.hot"):
            check(is_num(hot["budget_qps"]) and hot["budget_qps"] > 0,
                  f"{path.name}: the hot tenant must flood against a finite "
                  "per-tenant budget")
            check(is_num(hot["shed"]) and hot["shed"] > 0,
                  f"{path.name}: the hot flood must shed — the token bucket "
                  "is the isolation mechanism")
            check(is_num(hot["admitted"]) and hot["admitted"] > 0,
                  f"{path.name}: the budget must still admit the hot "
                  "tenant's in-budget traffic, not starve it")
            check(is_num(hot["shed_rate"]) and 0.0 < hot["shed_rate"] < 1.0,
                  f"{path.name}: tenants.hot.shed_rate out of (0,1)")
        else:
            check(isinstance(hot, dict), f"{path.name}: tenants.hot must be "
                  "an object")
        trows = tenants["rows"]
        check(isinstance(trows, list) and trows,
              f"{path.name}: tenants.rows empty or missing")
        for i, row in enumerate(trows or []):
            where = f"{path.name} tenants.rows[{i}]"
            if not isinstance(row, dict) or not require_keys(
                    row, ("tenant", "requests", "solo_p99_ms", "storm_p99_ms",
                          "isolation_ratio", "shed"), where):
                continue
            check(is_num(row["solo_p99_ms"]) and row["solo_p99_ms"] > 0,
                  f"{where}: bad solo_p99_ms")
            check(is_num(row["storm_p99_ms"]) and row["storm_p99_ms"] > 0,
                  f"{where}: bad storm_p99_ms")
            check(is_num(row["shed"]) and row["shed"] == 0,
                  f"{where}: an unmetered quiet tenant must never shed")
        if not tquick and is_num(hc) and int(hc) >= 2:
            check(is_num(tenants["isolation_ratio_max"])
                  and 0.0 < tenants["isolation_ratio_max"] <= 3.0,
                  f"{path.name}: quiet-tenant isolation ratio "
                  f"{tenants.get('isolation_ratio_max')} above the 3.0x "
                  "gate — the hot tenant is starving its neighbors")
        else:
            reason = "a --quick smoke run" if tquick else \
                f"a {int(hc) if is_num(hc) else '?'}-core host"
            print(f"WARNING: {path.name} tenants section recorded with "
                  f"{reason} — noisy-neighbor isolation gate skipped "
                  "(re-record a full run on a multi-core machine to "
                  "enforce it)")

    # The net section (spliced in by bench_net_throughput) measures the TCP
    # front end: closed-loop scaling rows plus an overload scenario where the
    # bounded admission queue must shed instead of queueing unboundedly.
    net = d.get("net")
    check(isinstance(net, dict),
          f"{path.name}: missing 'net' section (run bench_net_throughput)")
    if not isinstance(net, dict):
        return
    net_rows = net.get("rows")
    check(isinstance(net_rows, list) and net_rows,
          f"{path.name}: net.rows empty or missing")
    for i, row in enumerate(net_rows or []):
        where = f"{path.name} net.rows[{i}]"
        if not require_keys(row, ("connections", "requests", "qps", "p50_ms",
                                  "p95_ms", "p99_ms", "shed_rate"), where):
            continue
        check(is_num(row["qps"]) and row["qps"] > 0, f"{where}: bad qps")
        check(is_num(row["p50_ms"]) and is_num(row["p95_ms"])
              and is_num(row["p99_ms"])
              and 0 <= row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"],
              f"{where}: latency percentiles must be ordered")
        check(is_num(row["shed_rate"]) and row["shed_rate"] == 0.0,
              f"{where}: the well-provisioned scaling rows must not shed")
    check(is_num(net.get("io_threads")) and net.get("io_threads", 0) >= 1,
          f"{path.name}: net.io_threads missing — the scaling rows must "
          "record the IO plane width they ran against")

    # Connection-scaling gate, host-scaled like the thread gate: on an 8-core
    # host the max-connection row must reach >= 2.5x the 1-connection row;
    # fewer cores shrink the bar proportionally (floor 1.0x — more
    # connections must never make the sharded IO plane slower).
    conn_rows = {
        row["connections"]: row
        for row in (net_rows or [])
        if isinstance(row, dict) and is_num(row.get("connections"))
        and is_num(row.get("qps"))
    }
    if is_num(hc) and len(conn_rows) >= 2 and 1 in conn_rows:
        top_conns = max(conn_rows)
        top = conn_rows[top_conns]
        base = conn_rows[1]
        eff = min(int(top_conns), int(hc))
        if eff >= 2:
            want = max(1.0, 2.5 * eff / 8.0)
            check(top["qps"] >= want * base["qps"],
                  f"{path.name}: net {int(top_conns)}-connection qps "
                  f"{top['qps']:.0f} must be >= {want:.2f}x the 1-connection "
                  f"{base['qps']:.0f} on a {int(hc)}-core host — the IO "
                  "plane is serializing")
        else:
            print(f"WARNING: {path.name} net section recorded on a "
                  f"{int(hc)}-core host — connection-scaling gate skipped")
    overload = net.get("overload")
    check(isinstance(overload, dict), f"{path.name}: missing net.overload")
    if isinstance(overload, dict) and require_keys(
            overload, ("connections", "workers", "queue_high", "requests",
                       "ok", "shed", "shed_rate", "qps", "p99_ms"),
            f"{path.name} net.overload"):
        check(overload["shed"] > 0,
              f"{path.name}: overload scenario must shed (bounded admission)")
        check(overload["ok"] > 0,
              f"{path.name}: overload must not starve surviving requests")
        check(overload["ok"] + overload["shed"] == overload["requests"],
              f"{path.name}: net.overload counts must add up (no failures)")
        check(is_num(overload["shed_rate"])
              and 0.0 < overload["shed_rate"] < 1.0,
              f"{path.name}: overload shed_rate out of (0,1)")


QUALITY_CATEGORIES = ("near-index-point", "far-from-index",
                      "segment-restricted", "post-eviction",
                      "post-delta-churn")


def check_quality(path):
    """Validates a quality report emitted by tools/score_relevance: every
    backend present, every category present and above its committed floors,
    the scenario replay undrifted, and the top-level gate green."""
    d = json.loads(path.read_text())
    check(d.get("schema") == "inflex-quality-v1", f"{path.name}: bad 'schema'")
    corpus = d.get("corpus")
    check(isinstance(corpus, dict) and isinstance(corpus.get("name"), str)
          and is_num(corpus.get("version")),
          f"{path.name}: missing corpus {{name, version}} record")
    backends = d.get("backends")
    check(isinstance(backends, list) and backends,
          f"{path.name}: 'backends' empty or missing")
    by_backend = {}
    for i, b in enumerate(backends or []):
        where = f"{path.name} backends[{i}]"
        if not isinstance(b, dict):
            check(False, f"{where}: must be an object")
            continue
        by_backend[b.get("backend")] = b
        scenario = b.get("scenario")
        check(isinstance(scenario, dict) and scenario.get("ok") is True,
              f"{where}: scenario replay drifted (admissions/evictions did "
              "not match the corpus — category labels are meaningless)")
        seen_categories = set()
        for j, c in enumerate(b.get("categories") or []):
            cwhere = f"{where} categories[{j}]"
            if not isinstance(c, dict) or not require_keys(
                    c, ("category", "num_queries", "mean_spread_ratio",
                        "min_spread_ratio", "mean_seed_overlap", "thresholds",
                        "passed"), cwhere):
                continue
            seen_categories.add(c["category"])
            t = c["thresholds"]
            if not isinstance(t, dict) or not require_keys(
                    t, ("min_mean_spread_ratio", "min_query_spread_ratio",
                        "min_mean_seed_overlap"), f"{cwhere} thresholds"):
                continue
            for metric, floor in (("mean_spread_ratio", "min_mean_spread_ratio"),
                                  ("min_spread_ratio", "min_query_spread_ratio"),
                                  ("mean_seed_overlap", "min_mean_seed_overlap")):
                check(is_num(c[metric]) and is_num(t[floor])
                      and c[metric] >= t[floor],
                      f"{cwhere} '{c['category']}': {metric} "
                      f"{c.get(metric)} below the committed floor {t.get(floor)}")
            check(c["passed"] is True,
                  f"{cwhere} '{c['category']}': category gate failed")
        check(seen_categories == set(QUALITY_CATEGORIES),
              f"{where}: categories {sorted(seen_categories)} != required "
              f"{sorted(QUALITY_CATEGORIES)}")
        queries = b.get("queries")
        check(isinstance(queries, list) and queries,
              f"{where}: 'queries' empty or missing")
        for j, q in enumerate(queries or []):
            qwhere = f"{where} queries[{j}]"
            if not isinstance(q, dict) or not require_keys(
                    q, ("id", "category", "seeds", "indexed_spread",
                        "golden_spread", "spread_ratio", "seed_overlap"),
                    qwhere):
                continue
            check(isinstance(q["seeds"], list) and q["seeds"],
                  f"{qwhere}: empty answer seed list")
            check(is_num(q["golden_spread"]) and q["golden_spread"] > 0,
                  f"{qwhere}: bad golden_spread")
            check(is_num(q["spread_ratio"]) and q["spread_ratio"] > 0,
                  f"{qwhere}: bad spread_ratio")
        check(b.get("passed") is True, f"{where}: backend gate failed")
    for backend in ORACLE_BACKENDS:
        check(backend in by_backend,
              f"{path.name}: missing the '{backend}' backend run")
    check(d.get("passed") is True, f"{path.name}: quality gate failed")


def compare_json(a, b, where, tol=1e-9):
    """Structural comparison with a numeric tolerance (libm last-ulp slack
    across hosts); any larger drift is a regression — or a deliberate change
    that must re-commit the baseline report."""
    if is_num(a) and is_num(b):
        check(abs(a - b) <= tol,
              f"{where}: {a} drifted from committed baseline {b}")
        return
    if type(a) is not type(b):
        check(False, f"{where}: type changed ({type(a).__name__} vs "
              f"baseline {type(b).__name__})")
        return
    if isinstance(a, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a:
                check(False, f"{where}.{k}: missing (baseline has it)")
            elif k not in b:
                check(False, f"{where}.{k}: not in committed baseline")
            else:
                compare_json(a[k], b[k], f"{where}.{k}", tol)
    elif isinstance(a, list):
        if len(a) != len(b):
            check(False, f"{where}: length {len(a)} != baseline {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            compare_json(x, y, f"{where}[{i}]", tol)
    else:
        check(a == b, f"{where}: {a!r} != baseline {b!r}")


def check_quality_against_baseline(fresh_path, baseline_path):
    check_quality(fresh_path)
    fresh = json.loads(fresh_path.read_text())
    baseline = json.loads(baseline_path.read_text())
    compare_json(fresh, baseline, "report")


# ----------------------------------------------------------- self-test ------


def _good_kernels():
    row = lambda z: {"z": z, "batch": 64, "reference": 10.0,
                     "scalar_kernel": 5.0, "kernel": 2.0, "speedup": 5.0,
                     "simd_speedup": 2.5}
    return {"benchmark": "kl_kernel_leaf_scan", "unit": "ns_per_eval",
            "quick": False,
            "host": {"simd": {"detected": "avx2", "active": "avx2",
                              "forced_scalar": False}},
            "rows": [row(8), row(50)]}


def _good_serving():
    return {
        "benchmark": "serving_throughput",
        "host": {"hardware_concurrency": 8,
                 "simd": {"detected": "avx2", "active": "avx2",
                          "forced_scalar": False}},
        "serial": {"qps": 1000.0},
        "rows": [
            {"config": "uncached-1", "cached": False, "threads": 1,
             "qps": 1100.0, "hit_rate": 0.0, "p50_ms": 0.5, "p95_ms": 0.8,
             "p99_ms": 1.0},
            {"config": "uncached-8", "cached": False, "threads": 8,
             "qps": 6000.0, "hit_rate": 0.0, "p50_ms": 0.6, "p95_ms": 1.0,
             "p99_ms": 1.5},
            {"config": "cached-8", "cached": True, "threads": 8,
             "qps": 50000.0, "hit_rate": 0.9, "p50_ms": 0.1, "p95_ms": 0.2,
             "p99_ms": 0.3},
        ],
        "churn": {
            "deltas_submitted": 100, "admitted": 100, "burst_generations": 4,
            "batched_deltas": 100, "index_points_initial": 64,
            "index_points_peak": 164, "decay_sweeps": 2, "points_evicted": 30,
            "rows": [
                {"phase": "warm", "generation_swaps": 0, "index_points": 64,
                 "points_evicted": 0},
                {"phase": "burst", "generation_swaps": 4, "index_points": 164,
                 "points_evicted": 0},
                {"phase": "sweep-1", "generation_swaps": 5,
                 "index_points": 134, "points_evicted": 30},
                {"phase": "sweep-2", "generation_swaps": 6,
                 "index_points": 134, "points_evicted": 30},
            ],
        },
        "oracle": {
            "quick": False, "deltas": 8, "k": 10,
            "rows": [
                {"backend": "celfpp", "admit_to_publish_mean_ms": 100.0,
                 "admit_to_publish_max_ms": 150.0, "precompute_mean_ms": 90.0,
                 "mean_spread": 50.0, "quality_vs_celfpp": 1.0,
                 "speedup_vs_celfpp": 1.0},
                {"backend": "ris", "admit_to_publish_mean_ms": 5.0,
                 "admit_to_publish_max_ms": 8.0, "precompute_mean_ms": 4.0,
                 "mean_spread": 49.0, "quality_vs_celfpp": 0.97,
                 "speedup_vs_celfpp": 20.0},
            ],
        },
        "tenants": {
            "quick": False, "quiet_tenants": 3, "isolation_ratio_max": 1.4,
            "hot": {"tenant": "hot", "budget_qps": 200.0, "attempts": 20000,
                    "admitted": 400, "shed": 19600, "shed_rate": 0.98,
                    "p99_ms": 2.0},
            "rows": [
                {"tenant": "quiet-0", "requests": 1024, "solo_p99_ms": 1.0,
                 "storm_p99_ms": 1.4, "isolation_ratio": 1.4, "shed": 0},
                {"tenant": "quiet-1", "requests": 1024, "solo_p99_ms": 1.1,
                 "storm_p99_ms": 1.3, "isolation_ratio": 1.2, "shed": 0},
                {"tenant": "quiet-2", "requests": 1024, "solo_p99_ms": 0.9,
                 "storm_p99_ms": 1.2, "isolation_ratio": 1.3, "shed": 0},
            ],
        },
        "net": {
            "io_threads": 1,
            "rows": [
                {"connections": 1, "requests": 1000, "qps": 5000.0,
                 "p50_ms": 0.2, "p95_ms": 0.4, "p99_ms": 0.6,
                 "shed_rate": 0.0},
                {"connections": 8, "requests": 8000, "qps": 20000.0,
                 "p50_ms": 0.3, "p95_ms": 0.5, "p99_ms": 0.8,
                 "shed_rate": 0.0},
            ],
            "overload": {"connections": 32, "workers": 4, "queue_high": 256,
                         "requests": 10000, "ok": 8000, "shed": 2000,
                         "shed_rate": 0.2, "qps": 9000.0, "p99_ms": 5.0},
        },
    }


def _good_quality():
    def category(name):
        return {"category": name, "num_queries": 3,
                "mean_spread_ratio": 0.97, "min_spread_ratio": 0.93,
                "mean_seed_overlap": 0.6,
                "thresholds": {"min_mean_spread_ratio": 0.9,
                               "min_query_spread_ratio": 0.8,
                               "min_mean_seed_overlap": 0.25},
                "passed": True}

    def backend(name):
        return {"backend": name, "passed": True,
                "scenario": {"deltas_admitted": 5, "points_evicted": 2,
                             "final_index_points": 23, "ok": True},
                "categories": [category(c) for c in QUALITY_CATEGORIES],
                "queries": [{"id": "near-index-point-0",
                             "category": "near-index-point",
                             "seeds": [1, 2, 3], "indexed_spread": 19.4,
                             "golden_spread": 20.0, "spread_ratio": 0.97,
                             "seed_overlap": 0.6, "epsilon_exact": False,
                             "from_cache": False}]}

    return {"schema": "inflex-quality-v1",
            "corpus": {"name": "golden_v1", "version": 1},
            "passed": True,
            "backends": [backend(b) for b in ORACLE_BACKENDS]}


def selftest():
    """Runs every checker against known-good and known-bad fixtures. A good
    fixture must validate clean; a bad one must produce a diagnostic that
    names the problem — and must NEVER escape as a raw traceback."""
    import copy
    import tempfile

    cases = []  # (label, checker, document, must_mention or None)

    cases.append(("kernels-good", check_kernels, _good_kernels(), None))
    bad = _good_kernels()
    del bad["host"]["simd"]
    cases.append(("kernels-no-simd", check_kernels, bad, "host.simd"))
    bad = _good_kernels()
    del bad["rows"][0]["simd_speedup"]
    cases.append(("kernels-row-missing-key", check_kernels, bad,
                  "simd_speedup"))

    cases.append(("serving-good", check_serving, _good_serving(), None))
    for section in ("oracle", "net", "churn", "tenants"):
        bad = _good_serving()
        del bad[section]
        cases.append((f"serving-no-{section}", check_serving, bad, section))
    # Noisy-neighbor regressions the tenants gate exists to catch: the quiet
    # tail blowing past the solo baseline, and a budget that never sheds.
    bad = _good_serving()
    bad["tenants"]["isolation_ratio_max"] = 5.0
    cases.append(("serving-tenant-isolation-broken", check_serving, bad,
                  "isolation"))
    bad = _good_serving()
    bad["tenants"]["hot"]["shed"] = 0
    cases.append(("serving-tenant-flood-unshed", check_serving, bad, "shed"))
    bad = _good_serving()
    bad["tenants"]["rows"][1]["shed"] = 7
    cases.append(("serving-quiet-tenant-shed", check_serving, bad,
                  "never shed"))
    # A --quick tenants recording must skip the isolation gate (loudly), not
    # fail it: the ratio is meaningless when the recorder couldn't actually
    # run the storm at full scale.
    ok = _good_serving()
    ok["tenants"]["quick"] = True
    ok["tenants"]["isolation_ratio_max"] = 5.0
    cases.append(("serving-tenant-quick-skips-gate", check_serving, ok, None))
    bad = _good_serving()
    del bad["host"]["simd"]
    cases.append(("serving-no-simd", check_serving, bad, "host.simd"))
    # The historical KeyError site: a sweep phase row without index_points
    # must produce a diagnostic, not a traceback.
    bad = _good_serving()
    del bad["churn"]["rows"][2]["index_points"]
    del bad["churn"]["rows"][3]["index_points"]
    cases.append(("serving-sweep-missing-key", check_serving, bad,
                  "index_points"))

    cases.append(("quality-good", check_quality, _good_quality(), None))
    bad = _good_quality()
    bad["backends"][1]["categories"][3]["mean_spread_ratio"] = 0.5
    cases.append(("quality-below-floor", check_quality, bad, "floor"))
    bad = _good_quality()
    bad["backends"][0]["categories"].pop()
    cases.append(("quality-missing-category", check_quality, bad,
                  "categories"))
    bad = _good_quality()
    bad["backends"][1]["scenario"]["ok"] = False
    cases.append(("quality-scenario-drift", check_quality, bad, "scenario"))
    bad = _good_quality()
    bad["passed"] = False
    cases.append(("quality-gate-red", check_quality, bad, "gate failed"))

    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        for label, checker, doc, must_mention in cases:
            path = Path(tmp) / f"{label}.json"
            path.write_text(json.dumps(doc))
            FAILURES.clear()
            try:
                checker(path)
            except Exception as e:  # the one thing a validator must not do
                problems.append(f"{label}: checker CRASHED with "
                                f"{type(e).__name__}: {e}")
                continue
            if must_mention is None:
                if FAILURES:
                    problems.append(f"{label}: good fixture failed: {FAILURES}")
            else:
                if not any(must_mention in f for f in FAILURES):
                    problems.append(
                        f"{label}: no diagnostic mentioning "
                        f"'{must_mention}' (got: {FAILURES or 'nothing'})")

        # Baseline comparison: identical reports agree; a drifted number is
        # reported with its path.
        good = _good_quality()
        fresh_path = Path(tmp) / "fresh.json"
        base_path = Path(tmp) / "base.json"
        fresh_path.write_text(json.dumps(good))
        base_path.write_text(json.dumps(good))
        FAILURES.clear()
        check_quality_against_baseline(fresh_path, base_path)
        if FAILURES:
            problems.append(f"baseline-identical: {FAILURES}")
        drifted = copy.deepcopy(good)
        drifted["backends"][0]["queries"][0]["spread_ratio"] = 0.90
        fresh_path.write_text(json.dumps(drifted))
        FAILURES.clear()
        check_quality_against_baseline(fresh_path, base_path)
        if not any("drifted" in f for f in FAILURES):
            problems.append(f"baseline-drift: not detected ({FAILURES})")

    FAILURES.clear()
    if problems:
        print("check_bench_json SELFTEST FAILED:")
        for p in problems:
            print(f"  - {p}")
        return 1
    print(f"check_bench_json selftest OK ({len(cases)} fixtures + baseline "
          "comparison)")
    return 0


def main():
    argv = sys.argv[1:]
    if "--selftest" in argv:
        return selftest()
    if "--quality" in argv:
        # --quality REPORT [--baseline COMMITTED]: validate one quality
        # report, optionally against the committed regression baseline.
        i = argv.index("--quality")
        if i + 1 >= len(argv):
            print("usage: check_bench_json.py --quality REPORT.json "
                  "[--baseline BASELINE.json]")
            return 2
        report = Path(argv[i + 1])
        baseline = None
        if "--baseline" in argv:
            j = argv.index("--baseline")
            if j + 1 >= len(argv):
                print("--baseline needs a path")
                return 2
            baseline = Path(argv[j + 1])
        if not report.exists():
            FAILURES.append(f"{report}: file not found")
        else:
            try:
                if baseline is not None:
                    if not baseline.exists():
                        FAILURES.append(f"{baseline}: baseline not found")
                    else:
                        check_quality_against_baseline(report, baseline)
                else:
                    check_quality(report)
            except (json.JSONDecodeError, OSError) as e:
                FAILURES.append(f"{report}: unreadable ({e})")
            except Exception as e:  # never a raw traceback
                FAILURES.append(f"{report}: validator internal error "
                                f"({type(e).__name__}: {e}) — file this as a "
                                "check_bench_json bug")
        if FAILURES:
            print("QUALITY report validation FAILED:")
            for f in FAILURES:
                print(f"  - {f}")
            return 1
        print("QUALITY report validation OK")
        return 0

    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    checkers = [("BENCH_kernels.json", check_kernels, True),
                ("BENCH_serving.json", check_serving, True),
                # The committed quality baseline rides along when present
                # (bench-smoke scratch dirs legitimately lack it).
                ("QUALITY_report.json", check_quality, False)]
    for name, checker, required in checkers:
        path = root / name
        if not path.exists():
            if required:
                FAILURES.append(f"{name}: file not found under {root}")
            else:
                print(f"WARNING: {name} not found under {root} — "
                      "quality-report validation skipped")
            continue
        try:
            checker(path)
        except (json.JSONDecodeError, OSError) as e:
            FAILURES.append(f"{name}: unreadable ({e})")
        except Exception as e:  # a crash must read as a diagnostic, not a
            # traceback — missing newer sections (host.simd/oracle/net) used
            # to KeyError here
            FAILURES.append(f"{name}: validator internal error "
                            f"({type(e).__name__}: {e}) — file this as a "
                            "check_bench_json bug")

    if FAILURES:
        print("BENCH json validation FAILED:")
        for f in FAILURES:
            print(f"  - {f}")
        return 1
    print("BENCH json validation OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
