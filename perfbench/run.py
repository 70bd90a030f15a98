#!/usr/bin/env python3
"""The repository benchmark: one workload per run, over the wire.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload full_scan --seed 1 --seconds 10 --trace 0

Builds the library, gdim_tool and perfbench_tool from the checkout's sources
(CMake, into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench),
generates the workload's seeded chem corpus, starts `gdim_tool serve-net`
as a child process and drives it over loopback with a closed-loop client
(at most 2 connections, one outstanding request each). Every answer is
checked. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics. --trace 1 is the traced run: a
shorter wire run with the server's METRICS/STATS scraped before and after,
then perfbench_tool's in-process bottom-up layer calls, reported as the
per-layer metrics. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import bisect
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)

# Workload table. `n` corpus graphs, dimension of `p` DSPM features selected
# on a `sample` of the corpus; `mode` is the client's traffic mix.
SCAN = {"n": 20000, "p": 256, "sample": 100, "queries": 2000}
WORKLOADS = {
    "full_scan": dict(SCAN, mode="full", server=["--shards=4", "--cache-mb=0"]),
    "approx_scan": dict(SCAN, mode="approx",
                        server=["--shards=4", "--cache-mb=0"]),
    "hot_repeat": dict(SCAN, mode="hot", server=["--shards=4"]),
    "churn": {"n": 200, "p": 64, "sample": 100, "queries": 200, "mode": "churn",
              "server": ["--shards=4"]},
}
SETUP_REPS = 3
# Connections of the measured load. Two keep one request in service and one
# waiting; with four, how the dispatcher happens to coalesce requests into
# batches swings the latency from run to run.
MAIN_CONNS = 2
# Churn's cadence, in requests: a COMPACT every 1000 keeps the tombstoned
# rows few; a SNAPSHOT every 20000 (about one per 2.5 s here) exercises the
# snapshot path under load. Writing one every 1000 made the run's figures
# follow the host's disk: the p50 spread across rounds on one server went
# from 0.07 to 0.19 of its median.
CHURN_LOAD = {"compact_every": 1000, "snapshot_every": 20000}
STAGES = ["admission_wait", "cache_probe", "map_all", "scan_exact",
          "scan_approx", "ivf_probe", "gather_merge", "mutation_apply",
          "snapshot_freeze", "snapshot_write", "reindex_build",
          "reindex_swap"]
UNRESOLVED = -1.0  # per-layer value: not exercised here, or too few samples


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ----------------------------------------------------------------- build --

def build():
    if not (os.path.isfile(os.path.join(REPO, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(REPO, "src"))):
        raise BenchError("no library sources next to perfbench/ "
                         "(CMakeLists.txt and src/ are required)")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(REPO, target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", build_dir, "-j4"])
    return (os.path.join(build_dir, "graphdim", "gdim_tool"),
            os.path.join(build_dir, "perfbench_tool"))


def run_quiet(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
        raise BenchError("command failed: " + " ".join(cmd))


# ---------------------------------------------------------- statistics --

def percentile(values, q):
    """Nearest-rank percentile with its sample count and the number of
    samples beyond it; resolved only with at least 10 beyond."""
    n = len(values)
    if n == 0:
        return {"value": None, "n": 0, "beyond": 0, "resolved": False}
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    return {"value": sorted(values)[rank - 1], "n": n, "beyond": beyond,
            "resolved": beyond >= 10}


def median(values):
    return statistics.median(values) if values else None


WINDOWS = 20  # sub-windows per measured phase; metrics are their medians


def chunks(values, times, elapsed):
    """Splits samples into WINDOWS equal sub-windows by completion time."""
    out = [[] for _ in range(WINDOWS)]
    for v, t in zip(values, times):
        out[min(max(int(t / elapsed * WINDOWS), 0), WINDOWS - 1)].append(v)
    return out


def windowed(name, values, times, elapsed, q, table):
    """Median over sub-windows of each window's percentile q; every window's
    percentile must be resolved."""
    picks = []
    for i, window in enumerate(chunks(values, times, elapsed)):
        pct = percentile(window, q)
        table.append(("%s[window %d]" % (name, i), pct))
        if not pct["resolved"]:
            raise BenchError("%s unresolved in window %d: %d samples, %d beyond"
                             % (name, i, pct["n"], pct["beyond"]))
        picks.append(pct["value"])
    return statistics.median(picks)


def windowed_cpu(main):
    """Per sub-window server CPU milliseconds per answered request."""
    el, cpu_t, cpu_s = main["elapsed_s"], main["cpu_t"], main["cpu_s"]
    if len(cpu_t) < 2 or min(cpu_s) < 0:
        raise BenchError("the server's CPU time could not be sampled")
    counts = [len(w) for w in chunks(main["done_t"], main["done_t"], el)]

    def cpu_at(t):
        i = max(0, min(len(cpu_t) - 2, bisect.bisect_right(cpu_t, t) - 1))
        t0, t1 = cpu_t[i], cpu_t[i + 1]
        return cpu_s[i] + (cpu_s[i + 1] - cpu_s[i]) * (t - t0) / (t1 - t0)

    out = []
    for i, n in enumerate(counts):
        a, b = el * i / WINDOWS, el * (i + 1) / WINDOWS
        out.append((cpu_at(b) - cpu_at(a)) * 1e3 / max(1, n))
    return out


def windowed_rate(times, elapsed):
    per = [len(w) / (elapsed / WINDOWS) for w in chunks(times, times, elapsed)]
    return statistics.median(per)


# ----------------------------------------------------------- the server --

class Server:
    def __init__(self, gdim_tool, index, extra, log_path):
        self.log = open(log_path, "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [gdim_tool, "serve-net", "--index=" + index, "--port=0", *extra],
            stdout=subprocess.PIPE, stderr=self.log)
        line = self.proc.stdout.readline().decode()
        if "port=" not in line:
            self.stop()
            raise BenchError("server did not start: " + line.strip())
        self.port = int(line.split("port=")[1].split()[0])

    def request(self, line, multiline=False):
        with socket.create_connection(("127.0.0.1", self.port), timeout=60) as s:
            f = s.makefile("rwb")
            f.write(line.encode() + b"\n")
            f.flush()
            if not multiline:
                return f.readline().decode().rstrip("\n")
            lines = []
            while True:
                row = f.readline().decode()
                if not row or row.startswith("# EOF"):
                    return lines
                lines.append(row.rstrip("\n"))

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for row in f:
                if row.startswith("VmHWM:"):
                    return int(row.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server")

    def stats(self):
        reply = self.request("STATS")
        if not reply.startswith("OK "):
            raise BenchError("STATS failed: " + reply)
        out = {}
        for token in reply.split()[1:]:
            key, _, value = token.partition("=")
            try:
                out[key] = float(value)
            except ValueError:
                pass
        return out

    def histograms(self):
        """Stage histograms from METRICS: stage -> {le: cumulative count},
        summed over labels (the scan stages carry a kernel label), and
        stage -> sum of microseconds."""
        buckets, sums = {}, {}
        for row in self.request("METRICS", multiline=True):
            if not row.startswith("gdim_stage_"):
                continue
            name, value = row.rsplit(" ", 1)
            base = name.split("{")[0]
            if base.endswith("_usec_bucket"):
                stage = base[len("gdim_stage_"):-len("_usec_bucket")]
                le = name.split('le="')[1].split('"')[0]
                le = math.inf if le == "+Inf" else float(le)
                per = buckets.setdefault(stage, {})
                per[le] = per.get(le, 0.0) + float(value)
            elif base.endswith("_usec_sum"):
                stage = base[len("gdim_stage_"):-len("_usec_sum")]
                sums[stage] = sums.get(stage, 0.0) + float(value)
        return buckets, sums

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.log.close()


def start_server(tools, work, cfg, first_query):
    """Starts the server and waits for its first answer; returns the server
    and the seconds from launch to that answer."""
    extra = list(cfg["server"])
    if cfg["mode"] == "churn":
        extra.append("--db=" + os.path.join(work, "corpus.gdb"))
    server = Server(tools[0], os.path.join(work, "index.gdx"), extra,
                    os.path.join(work, "server.log"))
    try:
        reply = server.request("QUERY 10 MODE=full " + first_query)
    except OSError as e:
        server.stop()
        raise BenchError("first query failed: %s" % e)
    if not reply.startswith("OK "):
        server.stop()
        raise BenchError("first query failed: " + reply)
    return server, time.perf_counter() - server.started


def first_query_line(work):
    with open(os.path.join(work, "queries.gdb")) as f:
        rows = []
        for row in f:
            row = row.strip()
            if row.startswith("t #") and rows:
                break
            if row:
                rows.append(row)
    return ";".join(rows)


# ------------------------------------------------------------ the client --

def tool_json(tools, args, timeout=170):
    proc = subprocess.run([tools[1], *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=timeout, check=False)
    sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:])
    if proc.returncode != 0:
        raise BenchError("perfbench_tool %s failed" % args[0])
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def load(tools, server, work, cfg, seed, **kw):
    args = ["load", "--port=%d" % server.port, "--dir=" + work,
            "--seed=%d" % seed, "--mode=" + kw.pop("mode", cfg["mode"])]
    args += ["--%s=%s" % (k.replace("_", "-"), v) for k, v in kw.items()]
    return tool_json(tools, args)


class Tally:
    """Attempts and failures of every phase: failures are never dropped."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, result):
        self.attempted += int(result.get("attempted", result.get("checked", 0)))
        self.failed += int(result.get("failed", 0)) + int(
            result.get("mismatches", 0))
        return result


# ------------------------------------------------------------- workload --

def prepare(tools, work, cfg, seed, reps):
    return tool_json(tools, [
        "prep", "--dir=" + work, "--seed=%d" % seed, "--n=%d" % cfg["n"],
        "--p=%d" % cfg["p"], "--sample=%d" % cfg["sample"],
        "--queries=%d" % cfg["queries"], "--reps=%d" % reps])


def churn_check(tools, server, work, tally):
    """Final SNAPSHOT, then wire answers against an engine opened from it."""
    path = os.path.join(work, "final.gdx")
    reply = server.request("SNAPSHOT " + path)
    tally.attempted += 1
    if reply != "OK snapshot":
        tally.failed += 1
        return 0.0
    result = tally.add(tool_json(tools, [
        "check", "--port=%d" % server.port, "--dir=" + work,
        "--snapshot=" + path, "--count=200"]))
    return result.get("recall", 0.0)


def run_wire(tools, server, work, cfg, seed, seconds, tally, traced):
    """Runs the wire phases: solo, the measured MAIN_CONNS-connection load
    (then churn's REINDEX), the write phase and the SNAPSHOTs. Returns their
    results and, for the traced run, the server's METRICS/STATS scraped
    around them."""
    churn = cfg["mode"] == "churn"
    # The traced run scrapes the server around all of its traffic, so the
    # cache's compulsory misses (the solo phase's first sight of each
    # query) are inside the window.
    before = (server.histograms(), server.stats()) if traced else None
    # Solo: service time with no queueing. Churn's solo phase sends queries
    # only, before any write.
    solo = tally.add(load(tools, server, work, cfg, seed,
                          mode="full" if churn else cfg["mode"], conns=1,
                          seconds=seconds * 0.15, warmup=0.2))
    mutate = snapshot = None
    main = tally.add(load(tools, server, work, cfg, seed + 1, conns=MAIN_CONNS,
                          seconds=seconds * 0.75, warmup=0.5,
                          server_pid=server.proc.pid,
                          **(CHURN_LOAD if churn else {}),
                          **({"rows": cfg["n"]} if churn else {})))
    if churn:
        main["rss_mb"] = server.peak_rss_mb()
        # One REINDEX on one connection; the same mix keeps running on a
        # second until it answers.
        reindex = tally.add(load(tools, server, work, cfg, seed + 2, conns=2,
                                 seconds=0, reindex=1,
                                 compact_every=CHURN_LOAD["compact_every"]))
        main["reindex_s"] = reindex["reindex_s"]
        main["queries_answered"] += reindex["queries_answered"]
        main["reindex_window_us"] = reindex["query_us"] + reindex[
            "reindex_window_us"]
    else:
        mutate = tally.add(load(tools, server, work, cfg, seed, mode="mutate",
                                count=300 if traced else 2000))
    # SNAPSHOTs on an otherwise idle server (churn's in-load SNAPSHOTs wait
    # behind the other connections' requests, which says more about the
    # dispatcher queue than about the snapshot path).
    snapshot = tally.add(load(tools, server, work, cfg, seed, mode="snapshot",
                              count=21))
    after = (server.histograms(), server.stats()) if traced else None
    return solo, main, mutate, snapshot, before, after


def end_to_end(tools, work, cfg, seed, seconds, tally, table):
    prep = prepare(tools, work, cfg, seed, SETUP_REPS)
    first = first_query_line(work)
    starts = []
    for rep in range(SETUP_REPS):
        server, started = start_server(tools, work, cfg, first)
        starts.append(started)
        if rep + 1 < SETUP_REPS:
            server.stop()
    try:
        solo, main, mutate, snapshot, _, _ = run_wire(
            tools, server, work, cfg, seed, seconds, tally, traced=False)
        recall = main.get("recall")
        if cfg["mode"] == "churn":
            recall = churn_check(tools, server, work, tally)
        rss = main.get("rss_mb") or server.peak_rss_mb()
    finally:
        server.stop()

    setup = statistics.median(a + b for a, b in zip(prep["setup_s"], starts))
    churn = cfg["mode"] == "churn"
    lat, t, el = main["query_us"], main["query_t"], main["elapsed_s"]
    metrics = {
        "setup_s": (setup, "s"),
        "p50_ms": (windowed("p50_ms", lat, t, el, 0.5, table) / 1e3, "ms"),
        "server_cpu_ms_per_req": (
            statistics.median(windowed_cpu(main)), "ms"),
        "recall_at_10": (recall, "frac"),
        "server_rss_mb": (rss, "MB"),
    }
    if recall is None:
        raise BenchError("no recall measured")
    # Printed with their sample counts but not bounded: on a shared 4-vCPU
    # host the tails, and every one-connection latency (each request waits
    # for several thread wake-ups), spread across runs by more than the
    # largest bound a benchmark may set.
    writes = main if churn else mutate
    table.append(("qps (median of %d sub-window rates)" % WINDOWS,
                  windowed_rate(t, el)))
    for name, values, q in [
            ("query latency p90_us", lat, 0.9),
            ("query latency p99_us", lat, 0.99),
            ("solo latency p50_us", solo["query_us"], 0.5),
            ("solo latency p99_us", solo["query_us"], 0.99),
            ("insert latency p50_us", writes["insert_us"], 0.5),
            ("insert latency p99_us", writes["insert_us"], 0.99),
            ("remove latency p50_us", writes["remove_us"], 0.5),
            ("remove latency p99_us", writes["remove_us"], 0.99)]:
        table.append((name, percentile(values, q)))
    table.append(("snapshot_ms (median of %d)" % len(snapshot["snapshot_ms"]),
                  median(snapshot["snapshot_ms"])))
    if churn:
        table.append(("snapshot_ms under load (median)",
                      median(main["snapshot_ms"])))
        table.append(("reindex_s (client wall clock)", main["reindex_s"]))
        table.append(("query latency while REINDEX ran, p99_us",
                      percentile(main["reindex_window_us"], 0.99)))
    return metrics


# ---------------------------------------------------------- traced run --

def hist_quantile(cum, q):
    """Quantile of a cumulative-bucket histogram delta by linear
    interpolation inside the bucket; the +Inf bucket reads as the last
    finite bound, which is what the server's histogram can say."""
    bounds = sorted(cum)
    total = cum[math.inf] if math.inf in cum else 0
    if total <= 0:
        return None, 0, 0
    rank = max(1, math.ceil(q * total))
    prev_bound, prev_count = 0.0, 0.0
    for b in bounds:
        if cum[b] >= rank:
            if b == math.inf:
                return prev_bound, total, total - rank
            inside = cum[b] - prev_count
            frac = (rank - prev_count) / inside if inside > 0 else 1.0
            return prev_bound + frac * (b - prev_bound), total, total - rank
        prev_bound, prev_count = b, cum[b]
    return prev_bound, total, total - rank


def stage_delta(before, after, stage):
    b = before.get(stage, {})
    return {le: c - b.get(le, 0.0) for le, c in after.get(stage, {}).items()}


def spans_by_name(path):
    by_name = {}
    with open(path) as f:
        for row in f:
            s = json.loads(row)
            by_name.setdefault(s["name"], {}).setdefault(
                s["request"], []).append(s["end_us"] - s["start_us"])
    return by_name


def per_layer(tools, work, cfg, seed, seconds, tally, table):
    prep = prepare(tools, work, cfg, seed, 1)
    server, _ = start_server(tools, work, cfg, first_query_line(work))
    try:
        solo, main, mutate, snapshot, before, after = run_wire(
            tools, server, work, cfg, seed, seconds * 0.5, tally, traced=True)
        if cfg["mode"] == "churn":
            churn_check(tools, server, work, tally)
    finally:
        server.stop()
    spans_path = os.path.join(work, "spans.jsonl")
    trace = tally.add(tool_json(tools, [
        "trace", "--dir=" + work, "--mode=" + cfg["mode"], "--seed=%d" % seed,
        "--seconds=%s" % (seconds * 0.4), "--spans-out=" + spans_path,
        "--cache-mb=%d" % (0 if "--cache-mb=0" in cfg["server"] else 64)]))
    spans = spans_by_name(spans_path)
    m = {}

    def put(name, value, unit):
        m[name] = (UNRESOLVED if value is None else value, unit)

    def durations(name):
        return [d for per in spans.get(name, {}).values() for d in per]

    def span_pct(metric, name, q):
        pct = percentile(durations(name), q)
        table.append((metric, pct))
        put(metric, pct["value"] if pct["resolved"] else None, "us")

    def per_request(name):
        return {r: sum(d) for r, d in spans.get(name, {}).items()}

    def self_time(parent, children, combine=sum):
        """Median over requests of parent minus its children's spans."""
        p = per_request(parent)
        kids = [spans.get(c, {}) for c in children]
        diffs = [p[r] - combine([x for k in kids for x in k.get(r, [])])
                 for r in p if all(r in k for k in kids)]
        return median(diffs)

    span_pct("mapper.map_us.p50", "mapper.map", 0.5)
    span_pct("mapper.map_us.p99", "mapper.map", 0.99)
    hamming = median(durations("kernel.hamming"))
    put("kernel.hamming_us", hamming, "us")
    rows, wpr = trace["shard0_rows"], trace["words_per_row"]
    put("kernel.gb_per_s", rows * wpr * 8 / (hamming * 1e-6) / 1e9, "GB/s")
    put("kernel.vs_scalar", median(durations("kernel.scalar")) / hamming, "x")
    put("topk.score_all_us", median(durations("topk.score_all")), "us")
    put("topk.score_self_us", self_time("topk.score_all", ["kernel.hamming"]),
        "us")
    put("topk.select_us", median(durations("topk.select")), "us")
    put("ivf.probe_us", median(durations("ivf.probe")), "us")
    put("ivf.scan_frac", trace["ivf_scan_frac"], "frac")
    put("ivf.buckets", trace["ivf_buckets"], "count")
    put("engine.full_us", median(durations("engine.full")), "us")
    put("engine.full_self_us",
        self_time("engine.full", ["topk.score_all", "topk.select"]), "us")
    put("engine.approx_us", median(durations("engine.approx")), "us")
    put("sharded.query_us", median(durations("sharded.query")), "us")
    put("sharded.gather_self_us",
        self_time("sharded.batch1", ["engine.shard"], combine=max), "us")
    put("sharded.batch1_us", median(durations("sharded.batch1")), "us")
    put("sharded.batch4_us_per_query",
        median([d / 4 for d in durations("sharded.batch4")]), "us")
    executor = median(durations("executor.query"))
    put("executor.query_us", executor, "us")
    put("executor.self_us",
        self_time("executor.query", ["mapper.map", "sharded.batch1"])
        if cfg["mode"] != "hot" else
        self_time("executor.query", ["mapper.map"]), "us")
    parse = median(durations("wire.parse"))
    encode = median(durations("wire.encode"))
    put("wire.parse_us", parse, "us")
    put("wire.encode_us", encode, "us")
    solo_rtt = percentile(solo["query_us"], 0.5)["value"]
    put("wire.solo_rtt_us", solo_rtt, "us")
    put("wire.rtt_self_us", solo_rtt - executor, "us")
    # The solo round trip no layer span accounts for: sockets, the server's
    # connection thread, the client.
    put("unattributed_us", solo_rtt - executor - parse - encode, "us")
    writes = main if cfg["mode"] == "churn" else mutate
    insert = percentile(writes["insert_us"], 0.5)
    table.append(("wire.insert_p50_us", insert))
    put("wire.insert_p50_us", insert["value"] if insert["resolved"] else None,
        "us")
    span_pct("store.insert_us.p99", "store.insert", 0.99)
    span_pct("store.remove_us.p99", "store.remove", 0.99)
    put("snapshot.freeze_ms", median(durations("snapshot.freeze")) / 1e3, "ms")
    put("snapshot.write_ms", median(durations("snapshot.write")) / 1e3, "ms")
    put("snapshot.bytes", trace["snapshot_bytes"], "B")
    put("reindex.mine_s", trace.get("reindex_mine_s"), "s")
    put("reindex.select_s", trace.get("reindex_select_s"), "s")
    put("build.mine_s", prep["mine_s"][0], "s")
    put("build.delta_s", prep["delta_s"][0], "s")
    put("build.select_s", prep["select_s"][0], "s")
    put("build.map_corpus_s", prep["map_corpus_s"][0], "s")

    # Server-side readings, scraped before the solo phase and after the
    # SNAPSHOTs.
    (hb, sb), (ha, sa) = before, after
    queries = solo["queries_answered"] + main["queries_answered"]
    batches = sa["batches"] - sb["batches"]
    put("executor.batch_size", queries / batches if batches > 0 else None,
        "count")
    hits = sa["cache_hits"] - sb["cache_hits"]
    misses = sa["cache_misses"] - sb["cache_misses"]
    cache_on = "--cache-mb=0" not in cfg["server"]
    map_passes = stage_delta(hb[0], ha[0], "map_all").get(math.inf, 0.0)
    put("executor.map_passes_per_miss",
        map_passes / (misses if cache_on else queries)
        if (misses if cache_on else queries) > 0 else None, "count")
    put("cache.hit_rate", hits / (hits + misses) if hits + misses > 0 else 0.0,
        "frac")
    for stage in STAGES:
        cum = stage_delta(hb[0], ha[0], stage)
        for q, label in [(0.5, "p50_us"), (0.99, "p99_us")]:
            value, n, beyond = hist_quantile(cum, q)
            resolved = value is not None and beyond >= 10
            table.append(("stage.%s.%s" % (stage, label),
                          {"value": value, "n": n, "beyond": beyond,
                           "resolved": resolved}))
            put("stage.%s.%s" % (stage, label), value if resolved else None,
                "us")
        put("stage.%s.count" % stage, cum.get(math.inf, 0.0), "count")

    # Long operations, timed by the client and read from the server's
    # histograms (whose top finite bucket is 2.5 s).
    snaps = snapshot["snapshot_ms"]
    put("snapshot.wire_ms", median(snaps), "ms")
    # The snapshot_write delta also holds churn's in-load SNAPSHOTs.
    reading, _, beyond = hist_quantile(
        stage_delta(hb[0], ha[0], "snapshot_write"), 0.5)
    put("snapshot.server_p50_ms",
        reading / 1e3 if reading is not None and beyond >= 10 else None, "ms")
    if cfg["mode"] == "churn":
        build_cum = stage_delta(hb[0], ha[0], "reindex_build")
        reading = hist_quantile(build_cum, 0.5)[0]
        build_sum = ha[1].get("reindex_build", 0.0) - hb[1].get(
            "reindex_build", 0.0)
        put("reindex.wall_s", main["reindex_s"], "s")
        put("reindex.server_hist_s", reading / 1e6 if reading else None, "s")
        put("reindex.server_sum_s", build_sum / 1e6, "s")
    else:
        for name in ["reindex.wall_s", "reindex.server_hist_s",
                     "reindex.server_sum_s"]:
            put(name, None, "s")
    return m


# ------------------------------------------------------------------ main --

def format_row(name, value):
    if isinstance(value, dict):
        if not value["resolved"]:
            return "%-36s unresolved (n=%d, %d beyond)" % (
                name, value["n"], value["beyond"])
        return "%-36s %.4f (n=%d, %d beyond)" % (
            name, value["value"], value["n"], value["beyond"])
    return "%-36s %s" % (name, value)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    cfg = WORKLOADS[args.workload]
    # The tools read 32-bit seeds, and the phases use seed + 1 and seed + 2.
    seed = args.seed % (2 ** 31 - 8)
    # A terminated run still stops its server and removes its directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        tools = build()
    except BenchError as e:
        log("perfbench: %s" % e)
        return 2
    scratch_root = os.path.join(REPO, os.environ.get(
        "CARGO_TARGET_DIR", ".bench_build"), "runs")
    os.makedirs(scratch_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=args.workload + "-", dir=scratch_root)
    tally, table = Tally(), []
    try:
        if args.trace:
            metrics = per_layer(tools, work, cfg, seed, args.seconds,
                                tally, table)
        else:
            metrics = end_to_end(tools, work, cfg, seed, args.seconds,
                                 tally, table)
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        log("perfbench: %s" % e)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("workload=%s seed=%d trace=%d attempted=%d failed=%d error_frac=%.6f"
          % (args.workload, args.seed, args.trace, tally.attempted,
             tally.failed, tally.failed / max(1, tally.attempted)))
    for name, value in table:
        print(format_row(name, value))
    for name, (value, unit) in sorted(metrics.items()):
        print("%-36s %.6g %s" % (name, value, unit))
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
