"""Measure one workload: fresh CLI processes, warm in-process calls, a trace.

One client, closed loop: each invocation starts after the previous one
ended, one workload per process, default `--jobs 1`.  A pass runs each of
the workload's argument lists once, in order; timings are per pass.

End-to-end metrics (`trace=False`), in seconds of a reference host:

* ``cli_s``: wall time of a pass of fresh ``python -c <import chainent.cli;
  main>`` processes, each from spawn to reaping: the sum over argument
  lists of the median of each list's fresh processes.
* ``setup_s``: the part of a fresh process spent importing
  ``chainent.cli``; median over fresh processes.
* ``call_s.p50``: the same as ``cli_s`` for warm in-process
  ``cli.main(argv)`` calls.
* ``peak_rss_mb``: the largest peak resident memory (``wait4``) of a fresh
  pass's processes; median over fresh passes.

The shared host's speed for the same work moves by tens of percent, within
seconds and from one quarter of an hour to the next, and a median of raw
wall times follows it.  So every timed sample is bracketed by `probe()`, a
fixed calibration task run just before and just after it, and scaled by
``PROBE_REFERENCE_S / probe time``: a sample says how long the call takes
on a host where the probe takes ``PROBE_REFERENCE_S``.  The run keeps
itself and its child processes on one CPU, so that a probe meets the
contention its sample met.  The record also holds the raw wall-time
medians and the probe's own median (the host's speed in the run), and the
scaled warm-pass tail: the pass with exactly ten slower
passes beyond it, i.e. the highest percentile that has ten samples past it,
with that percentile and the sample count, or none when a run has ten
passes or fewer.  They are not bounded metrics.

Per-layer metrics (`trace=True`) come from `tracing.Tracer`, per traced
pass; untraced and traced passes alternate so that the tracing overhead is
measured as well.
Every invocation's output is checked after the timed phases by
`references`; a non-zero exit, an exception or a wrong output is a failure.
"""

import contextlib
import io
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from . import references, tracing
from .workloads import argvs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: where a traced run writes its spans
RESULTS = ROOT / "perfbench" / "results"

#: samples beyond the tail percentile
TAIL_BEYOND = 10
TRACED_PASSES = 3
IMPORT_SAMPLES = 5
#: the three parts of one `probe()`, about 5 ms each: interpreter-loop
#: iterations, sweeps over a 2-MB array, cos/sin passes over a 128-kB one
PROBE_LOOP = 40000
PROBE_SWEEPS = 6
PROBE_TRIG = 16
#: seconds of `probe()` in the quieter moments of a 2-vCPU Xeon host (its
#: tenth percentile there; Python 3.11, numpy 2.4): the unit that timed
#: samples are scaled to
PROBE_REFERENCE_S = 0.013
CHILD_TIMEOUT_S = 150
REFERENCE_SITES = 2**20
TINY_REFERENCE_SITES = 2**16

CHILD = ("import sys, time\n"
         "t0 = time.perf_counter()\n"
         "import chainent.cli\n"
         "t1 = time.perf_counter()\n"
         "sys.stderr.write('perfbench import_s %r\\n' % (t1 - t0))\n"
         "sys.exit(chainent.cli.main(sys.argv[1:]))\n")

E2E_METRICS = {"cli_s": "s", "setup_s": "s", "call_s.p50": "s",
               "peak_rss_mb": "MB"}
IMPORT_METRICS = {"setup.import.chainent.field_s": "chainent.field",
                  "setup.import.scipy.special_s": "scipy.special"}


def layer_metric_units():
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for name in tracing.SPAN_NAMES:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
        if name in tracing.WORK_COUNTERS:
            units[f"{name}.{tracing.WORK_COUNTERS[name]}"] = "count"
    units.update({f"layer.{layer}.self_s": "s" for layer in tracing.LAYERS})
    units.update({name: "s" for name in IMPORT_METRICS})
    units.update({"trace.call_s.p50": "s", "trace.untraced_call_s.p50": "s",
                  "trace.overhead_frac": "frac"})
    return units


class CheckoutError(RuntimeError):
    """The directory does not hold the program the benchmark measures."""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def spawn(args, timeout=CHILD_TIMEOUT_S):
    """Run `python <args>` from the checkout root.

    Returns (exit code, stdout, stderr, wall seconds, peak RSS in MB).
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable] + args, cwd=ROOT,
                            env=_child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return (proc.returncode, out.decode(), err[0].decode(), wall,
            usage.ru_maxrss / 1024.0)


def import_times():
    """Cumulative import seconds per module, from `python -X importtime`."""
    code, _, err, _, _ = spawn(["-X", "importtime", "-c",
                                "import chainent.cli"])
    if code != 0:
        raise CheckoutError(f"importing chainent.cli failed:\n{err}")
    times = {}
    for match in re.finditer(r"^import time:\s*\d+ \|\s*(\d+) \|\s*(\S+)$",
                             err, re.M):
        times.setdefault(match.group(2), int(match.group(1)) * 1e-6)
    return times


def tail(samples):
    """(value, percentile) of the sample with TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return None, None
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


_SWEEP_IN = np.linspace(0.0, 1.0, 1 << 18)
_SWEEP_OUT = np.empty_like(_SWEEP_IN)
_TRIG_IN = np.linspace(0.0, 50.0, 1 << 14)
_TRIG_OUT = np.empty_like(_TRIG_IN)


def probe():
    """Seconds of a fixed calibration task.

    It mixes the kinds of work the workloads do: an interpreter loop, sweeps
    over an array larger than L2, and vectorised cos/sin.  Each part alone
    tracked some workload's slowdowns worse than the mix did."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i % 7
    for _ in range(PROBE_SWEEPS):
        np.multiply(_SWEEP_IN, _SWEEP_IN, out=_SWEEP_OUT)
        np.add(_SWEEP_OUT, 1.0, out=_SWEEP_OUT)
        np.sqrt(_SWEEP_OUT, out=_SWEEP_OUT)
    for _ in range(PROBE_TRIG):
        np.cos(_TRIG_IN, out=_TRIG_OUT)
        np.sin(_TRIG_OUT, out=_TRIG_OUT)
    return time.perf_counter() - start


def scaled(samples):
    """Median of (seconds * PROBE_REFERENCE_S / probe seconds) over
    (seconds, probe seconds) samples."""
    return statistics.median(t * PROBE_REFERENCE_S / p for t, p in samples)


@contextlib.contextmanager
def one_cpu():
    """Run this process and the processes it starts on one CPU, so that a
    probe and the sample it scales meet the same contention; the CPUs of
    the host's cores are not equally busy at the same moment."""
    try:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(allowed)})
    except (AttributeError, OSError):    # no affinity control here
        allowed = None
    try:
        yield
    finally:
        if allowed is not None:
            os.sched_setaffinity(0, allowed)


def environment():
    """What a result depends on besides the code: backend and machine."""
    import numpy
    import scipy

    import chainent

    def cpu_model():
        try:
            text = Path("/proc/cpuinfo").read_text()
        except OSError:
            return platform.processor()
        match = re.search(r"^model name\s*:\s*(.+)$", text, re.M)
        return match.group(1).strip() if match else platform.processor()

    def cache_bytes(level):
        base = Path("/sys/devices/system/cpu/cpu0/cache")
        for index in sorted(base.glob("index*")):
            try:
                if int((index / "level").read_text()) == level:
                    size = (index / "size").read_text().strip()
                    scale = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
                    return int(size.rstrip("KM")) * scale
            except (OSError, ValueError):
                continue
        return None

    try:
        nproc = len(os.sched_getaffinity(0))     # what nproc(1) reports
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "backend": getattr(chainent, "KERNEL_BACKEND", "none"),
            "nproc": nproc, "cpu_model": cpu_model(),
            "l2_bytes": cache_bytes(2), "l3_bytes": cache_bytes(3)}


class Invocations:
    """Results of every invocation, kept once per distinct output."""

    def __init__(self):
        self.attempted = 0
        self.distinct = {}      # (argv index, exit code, output) -> count

    def add(self, index, code, text):
        self.attempted += 1
        key = (index, code, text)
        self.distinct[key] = self.distinct.get(key, 0) + 1

    def check(self, runs, seed, n_sites):
        """(number failed, first problems, worst deviation) against the
        references; the worst deviation is the largest share of its
        tolerance that any checked value used, and where."""
        refs = {}
        failed, problems = 0, []
        for (index, code, text), count in self.distinct.items():
            if index not in refs:
                argv = runs[index]
                refs[index] = references.REFERENCES[argv[0]](argv, n_sites,
                                                             seed)
            found = references.check_output(refs[index], code, text)
            if found:
                failed += count
                problems.extend(found[:5])
        worst = max(refs.values(), key=lambda ref: ref.worst)
        return failed, problems[:20], {"share_of_tolerance": worst.worst,
                                       "at": worst.worst_at}


def _call(cli, argv):
    """One in-process CLI call: (exit code, stdout text, seconds)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a raw traceback is a failed invocation
        code = f"{type(exc).__name__}: {exc}"
    return code, buf.getvalue(), time.perf_counter() - start


def check_checkout():
    if not (SRC / "chainent" / "cli.py").is_file():
        raise CheckoutError(f"no chainent sources under {SRC}")
    if not (ROOT / "tests" / "oracles.py").is_file():
        raise CheckoutError(f"no tests/oracles.py under {ROOT}")
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _fresh_pass(runs, calls, fresh):
    """One fresh CLI process per argument list, each between two probes."""
    peaks = []
    for index, argv in enumerate(runs):
        before = probe()
        code, out, err, wall, rss = spawn(["-c", CHILD] + argv)
        speed = (before + probe()) / 2
        calls.add(index, code, out)
        match = re.search(r"^perfbench import_s (\S+)$", err, re.M)
        if not match:
            raise CheckoutError(f"fresh CLI process did not import:\n{err}")
        fresh["setup"].append((float(match.group(1)), speed))
        fresh["walls"][index].append((wall, speed))
        peaks.append(rss)
    fresh["peak_rss_mb"].append(max(peaks))


def _warm_pass(cli, runs, calls, walls=None):
    """Each argument list once in this process; returns the pass's time.

    With `walls`, each call runs between two probes and its (seconds, probe
    seconds) is appended to `walls[index]`."""
    total = 0.0
    for index, argv in enumerate(runs):
        before = probe() if walls is not None else None
        code, out, wall = _call(cli, argv)
        if walls is not None:
            walls[index].append((wall, (before + probe()) / 2))
        calls.add(index, code, out)
        total += wall
    return total


def run(workload, seed, seconds, trace=False, tiny=False):
    """Measure one workload and return the full result record.

    Passes of fresh processes (import-time probes when tracing) and passes
    of warm calls alternate and share the time about equally, so a slow
    spell of the machine touches both kinds of sample.  The loop runs for
    `seconds` and until each kind has a sample.
    """
    check_checkout()
    env = environment()     # before pinning, so nproc counts every CPU
    with one_cpu():
        record = _measure(workload, seed, seconds, trace, tiny)
    record["env"] = env
    return record


def _measure(workload, seed, seconds, trace, tiny):
    runs = argvs(workload, seed, tiny=tiny)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "tiny": tiny, "argvs": runs}
    calls = Invocations()
    started = time.perf_counter()
    if not tiny:
        # compiles bytecode and warms the page cache before anything is timed
        code, _, err, _, _ = spawn(["-c", "import chainent.cli"])
        if code != 0:
            raise CheckoutError(f"importing chainent.cli failed:\n{err}")

    import chainent.cli as cli

    _warm_pass(cli, runs, calls)            # warm-up pass, untimed

    fresh = {"setup": [], "peak_rss_mb": [], "walls": [[] for _ in runs]}
    warm_walls = [[] for _ in runs]
    imports = []
    tracer = tracing.Tracer()
    plain, traced = [], []
    fresh_time = warm_time = 0.0
    warm_passes = 0
    window = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - window
        spawned = len(imports) if trace else len(fresh["peak_rss_mb"])
        done = plain and (not trace
                          or tracer.runs >= (1 if tiny else TRACED_PASSES))
        if spawned and done and elapsed >= seconds:
            break
        pass_start = time.perf_counter()
        if not spawned or (fresh_time <= warm_time
                           and not (trace and spawned >= IMPORT_SAMPLES)):
            if trace:
                imports.append(import_times())
            else:
                _fresh_pass(runs, calls, fresh)
            fresh_time += time.perf_counter() - pass_start
            continue
        if trace and warm_passes % 2 == 1:
            with tracer.run():
                traced.append(_warm_pass(cli, runs, calls))
        else:
            plain.append(_warm_pass(cli, runs, calls,
                                    None if trace else warm_walls))
        warm_passes += 1
        warm_time += time.perf_counter() - pass_start
    record["measured_seconds"] = time.perf_counter() - window
    record["warm"] = {"passes": warm_passes, "call_s": plain,
                      "walls": warm_walls}

    metrics = {}
    if trace:
        record["warm"]["traced_call_s"] = traced
        for name, module in IMPORT_METRICS.items():
            metrics[name] = statistics.median(
                sample.get(module, 0.0) for sample in imports)
        metrics.update(tracer.summary())
        traced_p50 = statistics.median(traced)
        plain_p50 = statistics.median(plain)
        metrics["trace.call_s.p50"] = traced_p50
        metrics["trace.untraced_call_s.p50"] = plain_p50
        metrics["trace.overhead_frac"] = traced_p50 / plain_p50 - 1.0
        layers = {layer: metrics[f"layer.{layer}.self_s"]
                  for layer in tracing.LAYERS}
        total = sum(layers.values())
        record["layer_share"] = {k: v / total for k, v in layers.items()}
        record["dominant_layer"] = max(layers, key=layers.get)
        RESULTS.mkdir(parents=True, exist_ok=True)
        spans_path = RESULTS / f"spans-{workload}-seed{seed}.jsonl.gz"
        tracer.write(spans_path)
        record["spans_file"] = str(spans_path)
    else:
        record["fresh"] = fresh
        metrics["cli_s"] = sum(map(scaled, fresh["walls"]))
        metrics["setup_s"] = scaled(fresh["setup"])
        metrics["call_s.p50"] = sum(map(scaled, warm_walls))
        metrics["peak_rss_mb"] = statistics.median(fresh["peak_rss_mb"])
        samples = [x for walls in fresh["walls"] + warm_walls for x in walls]
        record["raw"] = {
            "cli_s": sum(statistics.median(t for t, _ in walls)
                         for walls in fresh["walls"]),
            "setup_s": statistics.median(t for t, _ in fresh["setup"]),
            "call_s.p50": statistics.median(plain),
            "probe_s": statistics.median(p for _, p in samples)}
        passes = [sum(t * PROBE_REFERENCE_S / p for t, p in calls_k)
                  for calls_k in zip(*warm_walls)]
        value, percentile = tail(passes)
        record["warm"]["tail"] = {"call_s": value, "percentile": percentile,
                                  "samples": len(plain)}

    n_sites = TINY_REFERENCE_SITES if tiny else REFERENCE_SITES
    check_start = time.perf_counter()
    failed, problems, worst = calls.check(runs, seed, n_sites)
    record.update({
        "check_seconds": time.perf_counter() - check_start,
        "attempted": calls.attempted, "failed": failed,
        "fail_frac": failed / calls.attempted, "problems": problems,
        "worst_deviation": worst,
        "metrics": metrics,
        "run_seconds": time.perf_counter() - started})
    return record


def result_line(record, units):
    """The result line: correctness counts and the metrics in `units`."""
    return {"correct": record["failed"] == 0,
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                        for name, unit in units.items()}}
