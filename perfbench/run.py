#!/usr/bin/env python3
"""The repository benchmark: builds the simulator and ptb-serve from source,
runs one named workload, checks its outputs and prints its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run it from the root of a checkout. Workloads (see BENCHMARK.json and
perfbench/README.md for why each exists):

  fig_sweep  run_suite_grid's Figure 12 grid on a 2-worker RunPool
  run4_base  serial 4-core run_one calls without power control
  serve_mix  a ptb-serve daemon under two closed-loop clients

With --trace 0 the last line of stdout is one JSON object holding every
end-to-end metric named in BENCHMARK.json; with --trace 1 it holds every
per-layer metric instead, from a separate traced run of fixed size. The
lines before it are a human-readable report. Build output, daemon caches,
logs and span files go under .bench_build/ in the checkout.

Exit status: 0 when the run completed (the JSON says whether the outputs
were correct), 2 on a usage error or when the sources or the build are
missing.
"""

import argparse
import bisect
import http.client
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_build", "perfbench-run")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "perfbench-trace")
HARNESS = os.path.join(BUILD_DIR, "perfbench-harness")
SERVE = os.path.join(BUILD_DIR, "ptb-serve")
NOP = os.path.join(BUILD_DIR, "perfbench-nop")
RESULTS = os.path.join(ROOT, "results", "bench_fig12_dynamic.json")
DIGESTS = os.path.join(HERE, "run4_digests.txt")

WORKLOADS = ("fig_sweep", "run4_base", "serve_mix")
DEFAULT_SEED = 1
# setup_s comes from this many set-ups in one run: half before the timed
# work, after one uncounted set-up that warms the page cache, and half after
# it, so that it spans the host's state over the run rather than one moment.
# Each set-up is followed by a spawn of perfbench-nop, the process-creation
# reference. setup_s = (median set-up - median nop spawn) x the walk's scale
# x (1 - steal share) + NOP_NOMINAL_S: the program's own start-up work at
# the nominal host's speed, plus process creation at its nominal cost.
SETUP_SAMPLES = 32
NOP_NOMINAL_S = 0.0025
# Traced serve_mix runs send this many requests per client, so that their
# counts repeat exactly.
TRACED_REQUESTS = 400
# Traced runs repeat their work untraced and traced in this (ABBA) order,
# after an untraced warm-up that is not counted.
TRACED_ORDER = (False, True, True, False)
# Operations timed one simulation at a time (fig_sweep's "grid" operations
# are whole run_suite_grid calls; serve_mix's "hit"s do not simulate).
RUN_KINDS = ("base", "cell", "run", "miss_cold", "miss_warm")
# serve_mix request kinds, for the share of client time each takes.
SERVE_KINDS = (("hit", "hit"), ("miss_warm", "warm_miss"),
               ("miss_cold", "cold_miss"))
# Host speed reference (RefWork in harness.cpp): the nominal CPU time of one
# reference walk, about its median on the 4-vCPU host the benchmark was
# built on, with the workloads running. Each timed operation is scaled to
# that host's speed: by the nominal time over the median of the walks taken
# within REF_WINDOW_MS of it (at least REF_NEAREST of them). The units say
# so: a "ref-ms" is a millisecond of the nominal host.
WALK_NOMINAL_MS = 2.0
REF_WINDOW_MS = 3000.0
REF_NEAREST = 15
# The paper's headline for PTB+2Level, printed beside the model's values.
PAPER_PTB = {
    "ptb_aopb_pct": "about 8 (AoPB vs. base)",
    "ptb_energy_pct": "about +3 (energy vs. base)",
    "ptb_slowdown_pct": "within about 2 of DVFS",
}


class BenchError(Exception):
    """A failure that leaves no result to print (exit status 2)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build


def build():
    src = os.path.join(ROOT, "src", "CMakeLists.txt")
    serve_src = os.path.join(ROOT, "tools", "ptb_serve.cpp")
    if not (os.path.isfile(src) and os.path.isfile(serve_src)):
        raise BenchError("simulator sources not found under " + ROOT +
                         " (run from the root of a checkout)")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        os.makedirs(BUILD_DIR, exist_ok=True)
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=300).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      timeout=850).returncode != 0:
        raise BenchError("build failed")


# ---------------------------------------------------------------------------
# Statistics


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count)."""
    s = sorted(values)
    for p in (99.9, 99.5, 99.0, 98.0, 97.0, 96.0, 95.0, 90.0, 80.0, 75.0):
        k = max(1, math.ceil(p / 100.0 * len(s)))
        if len(s) - k >= 10:
            return s[k - 1], p, len(s)
    return s[-1], 100.0, len(s)


def median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# Processes


def run_harness(args, timeout):
    cmd = [HARNESS] + args
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError("harness failed (%d): %s" %
                         (proc.returncode, " ".join(args)))
    return proc.stdout


def cpu_jiffies():
    """(stolen, wanted) CPU time of the machine so far, in clock ticks:
    time the host held a CPU back from it, and that plus the time it ran."""
    try:
        with open("/proc/stat") as f:
            t = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    user, nice, system, _, _, irq, softirq, steal = t
    return steal, user + nice + system + irq + softirq + steal


def steal_share(before, after):
    """Share of the CPU time wanted between two cpu_jiffies() readings that
    the host held back."""
    wanted = after[1] - before[1]
    return (after[0] - before[0]) / wanted if wanted > 0 else 0.0


def timed_setup(cmd):
    """Seconds from spawning `cmd` until it prints its ready line."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=60)
    dt = time.perf_counter() - t0
    if proc.returncode != 0 or proc.stdout.strip() != "ready":
        raise BenchError("set-up failed: " + " ".join(cmd))
    return dt


class Daemon:
    """A ptb-serve process on an ephemeral port, stopped on exit."""

    def __init__(self, workdir, extra=()):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.out_path = os.path.join(workdir, "serve.out")
        self.cmd = [SERVE, "--port", "0", "--cache-dir",
                    os.path.join(workdir, "cache"), "--jobs", "2"]
        self.cmd += list(extra)
        self.proc = None
        self.drain = None
        self.port = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()

    def start(self):
        """Spawns the daemon; returns seconds until /healthz answers 200.

        The daemon's output is a pipe read by this process: the port is
        known the moment the daemon prints its listening line, with no
        polling interval added to the set-up time."""
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(self.cmd, stdout=subprocess.PIPE,
                                     stderr=subprocess.STDOUT)
        watchdog = threading.Timer(60, self.proc.kill)
        watchdog.start()
        try:
            head = []
            prefix = b"ptb-serve: listening on 127.0.0.1:"
            for line in self.proc.stdout:
                head.append(line)
                if line.startswith(prefix):
                    self.port = int(line[len(prefix):].split()[0])
                    break
            # Keep reading the output into serve.out, so that the daemon
            # never blocks on a full pipe.
            self.drain = threading.Thread(target=self._drain, args=(head,))
            self.drain.start()
            if self.port is None:
                self.drain.join()
                raise BenchError("ptb-serve did not start: " +
                                 open(self.out_path).read())
            while True:
                try:
                    status, _ = self.get("/healthz")
                    if status == 200:
                        return time.perf_counter() - t0
                except OSError:
                    pass
                if time.perf_counter() > t0 + 60:
                    raise BenchError("ptb-serve never answered /healthz")
                time.sleep(0.0005)
        finally:
            watchdog.cancel()

    def _drain(self, head):
        with open(self.out_path, "wb") as out:
            out.writelines(head)
            shutil.copyfileobj(self.proc.stdout, out)

    def get(self, path):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read().decode()
        finally:
            conn.close()

    def cpu_s(self):
        """User + system CPU seconds the daemon has used so far."""
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for ptb-serve")

    def stop(self):
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.drain is not None:
            self.drain.join()
        self.proc.stdout.close()
        self.proc = None


def prometheus(text):
    """Unlabelled samples of a Prometheus exposition, by name."""
    out = {}
    for line in text.splitlines():
        if line.startswith("#") or "{" in line:
            continue
        parts = line.split()
        if len(parts) == 2:
            out[parts[0]] = float(parts[1])
    return out


# ---------------------------------------------------------------------------
# Spans and self time


def self_times(spans):
    """Self time of each span: its duration minus the union of its
    children's intervals. `spans` holds [id, parent, name, start, end,
    note]; returns {id: self_ms}."""
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[3], s[4]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s[3]
        for a, b in sorted(children.get(s[0], [])):
            a, b = max(a, reach), min(b, s[4])
            if b > a:
                covered += b - a
                reach = b
        out[s[0]] = (s[4] - s[3]) - covered
    return out


# Order in which ptb-serve runs a unit's stages; warm_restore nests inside
# simulate (run_one opens it).
STAGE_ORDER = ("queue_wait", "admission_wait", "cache_probe", "simulate",
               "serialize", "cache_publish")


def add_stage_spans(spans, log_lines):
    """Children for each request span, from the daemon's debug access log.
    The log gives each stage's duration, not its start, so stages are laid
    out back to back from the request's start in the order ptb-serve runs
    them."""
    by_job = {}
    for line in log_lines:
        rec = json.loads(line)
        if rec.get("job") and "stages" in rec:
            by_job[rec["job"]] = rec["stages"]
    next_id = max([s[0] for s in spans] + [0]) + 1
    extra = []
    for s in spans:
        stages = by_job.get(s[5]) if s[2] == "request" else None
        if not stages:
            continue
        t = s[3]
        names = [n for n in STAGE_ORDER if n in stages]
        names += [n for n in stages if n not in STAGE_ORDER and
                  n != "warm_restore"]
        for name in names:
            sid = next_id
            next_id += 1
            extra.append([sid, s[0], name, t, t + stages[name], ""])
            if name == "simulate" and "warm_restore" in stages:
                extra.append([next_id, sid, "warm_restore", t,
                              t + stages["warm_restore"], ""])
                next_id += 1
            t += stages[name]
    return spans + extra, by_job


# ---------------------------------------------------------------------------
# Workloads


class Setup:
    """Set-up samples of a run, each followed by a perfbench-nop spawn."""

    def __init__(self, set_up):
        self.set_up = set_up
        self.times = []
        self.nop = []

    def sample(self, n):
        if not self.times and n > 0:
            self.set_up()  # uncounted: warms the page cache
            timed_setup([NOP])
        for _ in range(n):
            self.times.append(self.set_up())
            self.nop.append(timed_setup([NOP]))


def scratch_dir(workload):
    d = os.path.join(RUN_DIR, "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    return d


def sim_workload(workload, seed, seconds, trace, scratch):
    inputs = (["--results", RESULTS] if workload == "fig_sweep"
              else ["--digests", DIGESTS])
    cmd = [HARNESS, workload, "--setup-only"] + inputs
    setup = Setup(lambda: timed_setup(cmd))
    if not trace:
        setup.sample(SETUP_SAMPLES // 2)
    out_path = os.path.join(scratch, "outcome.json")
    jiffies = cpu_jiffies()
    run_harness([workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(int(trace)), "--scratch", scratch,
                 "--out", out_path] + inputs, timeout=seconds + 150)
    with open(out_path) as f:
        outcome = json.load(f)
    outcome["steal_share"] = steal_share(jiffies, cpu_jiffies())
    if not trace:
        setup.sample(SETUP_SAMPLES - len(setup.times))
    return outcome, setup, outcome["peak_rss_mb"], []


def serve_workload(seed, seconds, trace, scratch):
    def set_up():
        with Daemon(os.path.join(scratch, "setup")) as d:
            dt = d.start()
        shutil.rmtree(d.workdir, ignore_errors=True)
        return dt

    setup = Setup(set_up)
    if not trace:
        setup.sample(SETUP_SAMPLES // 2)
    checks = []

    def drive(daemon, out_name, args, timeout):
        out_path = os.path.join(scratch, out_name)
        cpu0 = daemon.cpu_s()
        jiffies = cpu_jiffies()
        run_harness(["serve_mix", "--seed", str(seed), "--seconds",
                     str(seconds), "--port", str(daemon.port), "--scratch",
                     scratch, "--out", out_path] + args, timeout=timeout)
        with open(out_path) as f:
            outcome = json.load(f)
        outcome["steal_share"] = steal_share(jiffies, cpu_jiffies())
        # The daemon's CPU time over the load: simulation plus everything
        # it takes to serve the hits and misses.
        outcome["daemon_cpu_s"] = daemon.cpu_s() - cpu0
        return outcome

    def ledger(daemon, outcome):
        status, text = daemon.get("/metrics")
        m = prometheus(text) if status == 200 else {}
        hits = m.get("ptb_serve_cache_hits", -1)
        misses = m.get("ptb_serve_cache_misses", -1)
        units = m.get("ptb_serve_units_completed", -2)
        want_hits = sum(1 for o in outcome["ops"] if o[0] == "hit")
        checks.append(("/metrics hits + misses == units completed",
                       hits + misses == units))
        checks.append(("/metrics cache corrupt == 0",
                       m.get("ptb_serve_cache_corrupt", -1) == 0))
        checks.append(("/metrics hits == hit replies",
                       hits == want_hits))
        return m

    if not trace:
        with Daemon(os.path.join(scratch, "serve")) as d:
            d.start()
            outcome = drive(d, "outcome.json", ["--trace", "0"],
                            seconds + 150)
            ledger(d, outcome)
            rss = d.peak_rss_mb()
        setup.sample(SETUP_SAMPLES - len(setup.times))
        return outcome, setup, rss, checks

    # Traced: the same fixed request sequence against plain daemons and
    # against daemons writing the debug access log, each with a fresh
    # cache, in ABBA order after a warm-up daemon (the first daemon to
    # simulate runs slower); the difference in wall time is the tracing
    # overhead.
    fixed = ["--requests", str(TRACED_REQUESTS)]
    with Daemon(os.path.join(scratch, "warmup")) as d:
        d.start()
        ledger(d, drive(d, "warmup.json", ["--trace", "0"] + fixed, 170))
    plain_s = traced_s = 0.0
    for rep, traced in enumerate(TRACED_ORDER):
        access_log = os.path.join(scratch, "access%d.log" % rep)
        extra = ["--log-file", access_log, "--log-level", "debug"]
        with Daemon(os.path.join(scratch, "d%d" % rep),
                    extra if traced else []) as d:
            d.start()
            res = drive(d, "outcome%d.json" % rep,
                        ["--trace", str(int(traced))] + fixed, 170)
            m = ledger(d, res)
            if traced:
                outcome, metrics, rss, log_path = res, m, d.peak_rss_mb(), \
                    access_log
                traced_s += res["wall_s"]
            else:
                plain_s += res["wall_s"]
    # Counts, stages and spans are those of the last traced daemon.
    access_log = log_path
    with open(access_log) as f:
        lines = [l for l in f if l.strip()]
    outcome["spans"], by_job = add_stage_spans(outcome["spans"], lines)
    layer = outcome["layer"]
    layer["bench.trace_overhead_ms"] = (traced_s - plain_s) * 1e3 / \
        TRACED_ORDER.count(True)
    layer["bench.trace_overhead_frac"] = traced_s / plain_s - 1.0
    stage_ms = {}
    for stages in by_job.values():
        for name, ms in stages.items():
            stage_ms.setdefault(name, []).append(ms)
    for name, values in stage_ms.items():
        layer["serve.stage.%s_ms" % name] = median(values)

    def hist_mean(name):
        count = metrics.get(name + "_count", 0)
        return metrics.get(name + "_sum", 0) / count if count else 0.0

    # The access log's stage object omits request parsing; its histogram
    # in /metrics has it.
    layer["serve.stage.parse_ms"] = hist_mean("ptb_serve_stage_parse_ms")
    layer["serve.http.request_ms"] = hist_mean("ptb_serve_http_request_ms")
    hits = metrics.get("ptb_serve_cache_hits", 0)
    misses = metrics.get("ptb_serve_cache_misses", 0)
    layer["serve.cache.hit_ratio"] = hits / (hits + misses) if hits else 0.0
    layer["serve.cache.warm_hits"] = metrics.get(
        "ptb_serve_cache_warm_hits", 0)
    layer["serve.cache.stores"] = metrics.get("ptb_serve_cache_stores", 0)
    return outcome, setup, rss, checks


# ---------------------------------------------------------------------------
# Metrics


def time_shares(ops):
    """Share of the summed client time of serve_mix requests per kind."""
    total = sum(o[1] for o in ops) or 1.0
    return {name: sum(o[1] for o in ops if o[0] == kind) / total
            for kind, name in SERVE_KINDS}


class HostSpeed:
    """One kind of reference sample of a run, [time taken, ms], by time.
    scale() gives the factor that converts a timing to the nominal host:
    the nominal time over the median of the samples taken around it."""

    def __init__(self, samples, nominal):
        if not samples:
            raise BenchError("no reference samples were taken")
        self.samples = sorted(samples)
        self.times = [t for t, _ in self.samples]
        self.nominal = nominal

    def scale(self, start, length):
        """For an operation of `length` ms from `start`: the samples within
        REF_WINDOW_MS of it, or if there are fewer than REF_NEAREST, the
        REF_NEAREST nearest to its middle."""
        lo = bisect.bisect_left(self.times, start - REF_WINDOW_MS)
        hi = bisect.bisect_right(self.times, start + length + REF_WINDOW_MS)
        want = min(REF_NEAREST, len(self.times))
        if hi - lo < want:
            mid = start + length / 2.0
            lo = hi = bisect.bisect_left(self.times, mid)
            while hi - lo < want:
                if hi == len(self.times) or (
                        lo > 0 and mid - self.times[lo - 1] <=
                        self.times[hi] - mid):
                    lo -= 1
                else:
                    hi += 1
        return self.nominal / median([v for _, v in self.samples[lo:hi]])

    def overall(self):
        return self.nominal / median([v for _, v in self.samples])


def end_to_end(outcome, setup, rss):
    """The end-to-end metrics, each timing scaled to the nominal host, and a
    note for each with its value as measured."""
    ops = outcome["ops"]
    walk = HostSpeed(outcome["ref_walk_ms"], WALK_NOMINAL_MS)
    # The walk is timed in CPU time, which leaves out the time the host held
    # the CPU back (steal). A stall of that kind falls in a few walks and
    # leaves their median alone, but it stretches operations and wake-ups
    # alike. So wall times are also cut by the run's steal share.
    held = 1.0 - outcome["steal_share"]
    scale = [walk.scale(o[6], o[1]) for o in ops]
    wall_scale = [f * held for f in scale]

    def times(keep):
        sel = [(o[1], f) for o, f in zip(ops, wall_scale) if keep(o)]
        return [t for t, _ in sel], [t * f for t, f in sel]

    raw_run, run_ms = times(lambda o: o[0] in RUN_KINDS)
    # serve_mix: every request, hits and misses. A tail over the hits alone
    # moves with the host's wake-up latency by more than any bound allows
    # (perfbench/README.md, "Steadiness"), so hit_ms_* are report lines.
    # Elsewhere every operation but a whole grid pass is a run.
    raw_req, req_ms = times(lambda o: o[0] != "grid")
    if not run_ms:
        raise BenchError("no simulating operation completed")
    # Throughput: fig_sweep's whole run_suite_grid passes; elsewhere every
    # operation, `streams` of them at a time.
    grid = any(o[0] == "grid" for o in ops)
    raw_thr, thr_ms = times(lambda o: o[0] == "grid" or not grid)
    per_s = outcome["streams"] * outcome["done"] * 1e3
    if "daemon_cpu_s" in outcome:
        raw_cpu = outcome["daemon_cpu_s"]
        cpu = raw_cpu * walk.overall()
        cycles = sum(o[2] for o in ops)  # 0 for hits
    else:
        sel = [(o, f) for o, f in zip(ops, scale) if o[0] == "grid" or
               not grid]
        raw_cpu = sum(o[7] for o, _ in sel) / 1e3
        cpu = sum(o[7] * f for o, f in sel) / 1e3
        cycles = sum(o[2] for o, _ in sel)
    stats = {
        "run_ms": (raw_run, run_ms),
        "req_ms": (raw_req, req_ms),
    }
    m, notes = {}, {}
    m["sim_mcycles_per_s"] = cycles / cpu / 1e6
    notes["sim_mcycles_per_s"] = "%.6g Mcycles/cpu-s" % (
        cycles / raw_cpu / 1e6)
    m["ops_per_s"] = per_s / sum(thr_ms)
    notes["ops_per_s"] = "%.6g 1/s" % (per_s / sum(raw_thr))
    for name, (raw, scaled) in stats.items():
        m[name + "_p50"] = median(scaled)
        notes[name + "_p50"] = "%.6g ms, of %d" % (median(raw), len(raw))
        t = tail(scaled)
        m[name + "_tail"] = t[0]
        notes[name + "_tail"] = "%.6g ms, p%g of %d" % (tail(raw)[0], t[1],
                                                        t[2])
    m["peak_rss_mb"] = rss
    raw_setup, nop = median(setup.times), median(setup.nop)
    m["setup_s"] = (raw_setup - nop) * walk.overall() * held + NOP_NOMINAL_S
    notes["setup_s"] = "%.6g s, median of %d; nop spawn %.6g s" % (
        raw_setup, len(setup.times), nop)
    print("  host speed: reference walk %.4g ms (median of %d; nominal %g), "
          "steal share %.4f" % (WALK_NOMINAL_MS / walk.overall(),
                                len(walk.samples), WALK_NOMINAL_MS,
                                outcome["steal_share"]))
    return m, notes


def per_layer(workload, outcome):
    st = outcome["stats"]
    layer = dict(outcome["layer"])

    def s(name):
        return st.get(name, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    traced = [o for o in outcome["ops"] if o[0] in RUN_KINDS]
    with_stats = [o for o in traced if o[0] != "base"]
    spans = outcome["spans"]
    selfs = self_times(spans)
    if workload == "serve_mix":
        for name, share in time_shares(outcome["ops"]).items():
            layer["serve.mix.%s_time_frac" % name] = share
    layer["sim.run_ms"] = median([o[1] for o in traced])
    layer["sim.run_self_ms"] = median(
        [selfs[x[0]] for x in spans if x[2] in ("cell", "run")])
    layer["serve.request_self_ms"] = median(
        [selfs[x[0]] for x in spans if x[2] == "request"])
    layer["sim.host_ns_per_core_cycle"] = ratio(
        sum(o[1] for o in traced) * 1e6, sum(o[2] for o in traced))
    # Self-profiler gauges, by prefix: whatever buckets the program has.
    total = 0.0
    for name, v in st.items():
        if name.startswith("sim.self.") and name.endswith("_seconds"):
            layer["sim.self.%s_s" % name[len("sim.self."):-len("_seconds")]] = v
            total += v
    layer["sim.self.total_s"] = total
    if workload == "fig_sweep":
        layer["run_pool.queue_wait_ms"] = median([o[4] for o in traced])
    committed = s("core.*.committed")
    layer["cpu.committed"] = committed
    layer["cpu.ticks"] = s("core.*.ticks")
    for k in ("rob", "lsq", "front", "branch", "program"):
        layer["cpu.stall." + k] = s("core.*.stall." + k)
    layer["cpu.flushes"] = s("core.*.flushes")
    layer["cpu.host_ns_per_commit"] = ratio(
        sum(o[1] for o in with_stats) * 1e6, committed)
    accesses = sum(s("mem." + k)
                   for k in ("loads", "stores", "atomics", "ifetches"))
    layer["mem.accesses"] = accesses
    layer["mem.l1_miss_ratio"] = ratio(s("mem.l1_misses"), accesses)
    layer["noc.messages"] = s("noc.messages")
    layer["noc.flit_hops"] = s("noc.flit_hops")
    layer["power.ptht.lookups"] = s("core.*.ptht.lookups")
    layer["power.ptht.cold_miss_ratio"] = ratio(
        s("core.*.ptht.cold_misses"), s("core.*.ptht.lookups"))
    layer["core.balancer.grant_events"] = s("ptb.balancer.grant_events")
    layer["core.balancer.donation_events"] = s("ptb.balancer.donation_events")
    layer["core.balancer.evaporated_ratio"] = ratio(
        s("ptb.balancer.tokens_evaporated"), s("ptb.balancer.tokens_donated"))
    layer["dvfs.transitions"] = s("core.*.enforcer.dvfs.transitions")
    spin = sum(s("core.*.spin.cycles." + k)
               for k in ("lock_acq", "lock_rel", "barrier"))
    layer["sync.spin_frac"] = ratio(spin, spin + s("core.*.spin.cycles.busy"))
    return layer


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    # Turn SIGTERM into an exception, so that the daemons and scratch
    # directories are cleaned up on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        spec = load_spec()
        build()
        scratch = scratch_dir(a.workload)
        try:
            if a.workload == "serve_mix":
                outcome, setup, rss, checks = serve_workload(
                    a.seed, a.seconds, a.trace, scratch)
            else:
                outcome, setup, rss, checks = sim_workload(
                    a.workload, a.seed, a.seconds, a.trace, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    except (BenchError, OSError, subprocess.SubprocessError,
            ValueError) as e:
        log("perfbench: " + str(e))
        return 2

    ops = outcome["ops"]
    failures = list(outcome["failures"])
    failures += ["check failed: " + name for name, ok in checks if not ok]
    attempted = len(ops) + len(checks)
    failed = min(attempted, sum(1 for o in ops if not o[3]) +
                 sum(1 for _, ok in checks if not ok))
    correct = failed == 0 and not failures

    print("perfbench %s seed=%d trace=%d: %d operations, %d failed "
          "(fail_frac %.4g)" % (a.workload, a.seed, a.trace, attempted,
                                failed, failed / attempted))
    for f in failures[:20]:
        print("  FAIL " + f)

    if a.trace:
        values = per_layer(a.workload, outcome)
        wanted = spec["per_layer"]
        os.makedirs(TRACE_DIR, exist_ok=True)
        trace_path = os.path.join(TRACE_DIR, "%s-seed%d.json" %
                                  (a.workload, a.seed))
        with open(trace_path, "w") as f:
            json.dump({"workload": a.workload, "seed": a.seed,
                       "spans": outcome["spans"]}, f)
        print("  spans: %d written to %s (self times computed from them)" %
              (len(outcome["spans"]), os.path.relpath(trace_path, ROOT)))
        print("  runs covered by the counts: %d" % outcome["dumps"])
        notes = {}
    else:
        values, notes = end_to_end(outcome, setup, rss)
        wanted = spec["end_to_end"]
        report_extras(a.workload, outcome)

    metrics = {}
    for entry in wanted:
        name = entry["name"]
        # Layers a workload does not exercise read 0.
        v = float(values.get(name, 0.0))
        metrics[name] = {"value": v, "unit": entry["unit"]}
        note = notes.get(name, "")
        print("  %-34s %14.6g %-10s %s" % (name, v, entry["unit"], note))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def report_extras(workload, outcome):
    """The ROADMAP's names for this workload's figures, and the modelled
    PTB results beside the paper's."""
    ops = outcome["ops"]
    if workload == "serve_mix":
        hits = [o[1] for o in ops if o[0] == "hit"]
        misses = [o[1] for o in ops if o[0] != "hit"]
        for name, vals in (("hit_ms", hits), ("miss_ms", misses)):
            if vals:
                t = tail(vals)
                print("  %s_p50 %.4g ms, %s_tail %.4g ms (p%g of %d)" %
                      (name, median(vals), name, t[0], t[1], t[2]))
        print("  req_per_s %.4g (2 closed-loop clients)" %
              (len(ops) / outcome["wall_s"]))
        shares = time_shares(ops)
        print("  share of requests / of client time: " + ", ".join(
            "%s %.3f / %.3f" % (name, sum(1 for o in ops if o[0] == kind) /
                                len(ops), shares[name])
            for kind, name in SERVE_KINDS))
    rep = outcome["report"]
    if workload == "fig_sweep" and "ptb_aopb_pct" in rep:
        print("  PTB+2Level suite averages vs. base (simulated; the model is "
              "not validated against hardware):")
        for k in ("ptb_aopb_pct", "ptb_energy_pct", "ptb_slowdown_pct"):
            print("    %-18s %+8.2f   paper: %s" % (k, rep[k], PAPER_PTB[k]))


if __name__ == "__main__":
    sys.exit(main())
