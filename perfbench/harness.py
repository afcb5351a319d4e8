"""The benchmark's run loop, metrics and output; run.py is its entry point
and must have pinned the thread counts before this module is imported."""

import ctypes
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

import tracing
import workloads
from workloads import Calibration, make_request, request_seconds, run_call

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
#: set-ups per run; setup_s reports their median
SETUP_REPS = 3
#: imports per run, the run's own and those of fresh interpreters; setup_s
#: takes their median
IMPORT_REPS = 3
_IMPORT_CODE = ("import sys, time; t0 = time.perf_counter(); "
                "sys.path[:0] = sys.argv[1:]; import narekit, harness, workloads; "
                "print(time.perf_counter() - t0)")
#: (name, unit, better, bound) of every end-to-end metric
END_TO_END = (
    ("sda_s", "s", "lower", 0.24),
    ("sda_s_tail", "s", "lower", 0.24),
    ("sushi_s", "s", "lower", 0.24),
    ("sushi_s_tail", "s", "lower", 0.24),
    ("request_s", "s", "lower", 0.24),
    ("request_s_tail", "s", "lower", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("success_ratio", "ratio", "higher", 0.1),
)
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_get_config"),
    ("openblas_get_num_threads64_", "openblas_get_config64_"),
    ("openblas_get_num_threads", "openblas_get_config"),
)


def blas_threads():
    """Thread count and build string of every OpenBLAS in the process, read
    through its own symbols."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and "/" in line})
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for threads_sym, config_sym in _OPENBLAS_SYMBOLS:
            get_threads = getattr(lib, threads_sym, None)
            if get_threads is None:
                continue
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            get_config = getattr(lib, config_sym)
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            found[Path(path).name] = {"threads": get_threads(),
                                      "config": get_config().decode()}
            break
    return found


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def percentile(samples, pct):
    """Nearest-rank percentile and the number of samples beyond it."""
    xs = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def run_pass(w, seed, cal, *, seconds=None, min_requests=1, n_requests=None,
             tracer=None):
    """Closed loop with one client: each request starts when the previous
    one has finished, with a calibration between requests.  Runs n_requests
    requests, or else requests until `seconds` have passed and at least
    min_requests are done."""
    records = []
    before = cal()
    start = time.perf_counter()
    while True:
        i = len(records)
        if n_requests is not None:
            if i >= n_requests:
                break
        elif i >= min_requests and time.perf_counter() - start >= seconds:
            break
        req = make_request(w, seed, i)
        calls = [run_call(w, kind, req, tracer) for kind in w.kinds]
        after = cal()
        records.append({"index": i, "calls": calls,
                        "scale": cal.scale(before, after)})
        before = after
    return records


def fresh_import_seconds():
    """Time a fresh interpreter, with the pinned thread counts this process
    passes on, takes to import the package and the benchmark's modules."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_CODE, str(ROOT / "src"), str(HERE)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def set_up(w, seed, cal, import_s):
    """SETUP_REPS set-ups, each a warm-up request's inputs (with its float64
    reference where the workload needs one) and its calls, run untimed and
    checked.  Returns the import time plus the median set-up, scaled by
    the calibration around it, and the warm-up calls.  Imports are not
    scaled: their time follows no dense kernel's."""
    cal()   # the first call pays the kernels' one-off initialisation
    before = cal()
    reps, calls = [], []
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        req = make_request(w, seed, rep, stream=1)
        calls += [run_call(w, kind, req) for kind in w.kinds]
        seconds = time.perf_counter() - t0
        after = cal()
        reps.append(seconds * cal.host_factor(before, after))
        before = after
    return import_s + statistics.median(reps), calls


def _calls(records):
    return [c for rec in records for c in rec["calls"]]


def end_to_end(w, records, setup_s):
    """END_TO_END metrics of an untraced pass, plus the context behind them:
    unscaled wall-clock medians and sample counts."""
    scaled, wall = {}, {}
    for rec in records:
        for c in rec["calls"]:
            scaled.setdefault(c.kind, []).append(workloads.call_seconds(rec, c))
            wall.setdefault(c.kind, []).append(c.seconds)
    scaled["request"] = request_seconds(records)
    wall["request"] = request_seconds(records, scaled=False)
    metrics = {}
    info = {"tail_pct": w.tail_pct, "samples": {}, "samples_beyond_tail": {},
            "wall_median_s": {}}
    for kind, samples in scaled.items():
        tail, beyond = percentile(samples, w.tail_pct)
        metrics[f"{kind}_s"] = statistics.median(samples)
        metrics[f"{kind}_s_tail"] = tail
        info["samples"][kind] = len(samples)
        info["samples_beyond_tail"][kind] = beyond
        info["wall_median_s"][kind] = statistics.median(wall[kind])
    calls = _calls(records)
    failed = sum(c.error is not None for c in calls)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["success_ratio"] = (len(calls) - failed) / len(calls)
    info["failed_ratio"] = failed / len(calls)
    if "diagnose_s" in metrics:
        info["diagnose_s"] = metrics["diagnose_s"]
        info["diagnose_s_tail"] = metrics["diagnose_s_tail"]
    return metrics, info


def _failures(calls):
    by_class, checks = {}, []
    for c in calls:
        if c.error is not None:
            key = f"{c.kind}.{c.error}"
            by_class[key] = by_class.get(key, 0) + 1
            if c.error == "CheckFailed" and len(checks) < 5:
                checks.append(c.detail)
    return by_class, checks


def _require_no_wrappers(when):
    left = tracing.installed_wrappers()
    if left:
        raise RuntimeError(f"trace wrappers installed {when}: {left}")


def traced_run(w, seed, cal, seconds, n_requests=None):
    """Untraced pass, then the same requests traced; returns both passes,
    the spans, the per-layer metrics and the integrity problems found."""
    _require_no_wrappers("before the untraced pass")
    if n_requests is None:
        untraced = run_pass(w, seed, cal, seconds=seconds / 2.0,
                            min_requests=w.count_window)
    else:
        untraced = run_pass(w, seed, cal, n_requests=n_requests)
    _require_no_wrappers("after the untraced pass")
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = run_pass(w, seed, cal, n_requests=len(untraced), tracer=tracer)
    _require_no_wrappers("after the traced pass")
    problems = tracing.integrity_problems(tracer.spans, untraced, traced)
    metrics = tracing.layer_metrics(tracer.spans, untraced, traced, w.count_window)
    return untraced, traced, tracer.spans, metrics, problems


def _write_spans(w, seed, spans):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{w.name}-{seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": w.name, "seed": seed,
                   "fields": ["name", "start", "end", "parent", "request", "value"],
                   "spans": spans}, fh)
    return str(path.relative_to(ROOT))


def _result(correct, calls, values, units):
    metrics = {}
    for name, unit in units:
        value = float(values[name])
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": bool(correct), "attempted": len(calls),
            "failed": sum(c.error is not None for c in calls), "metrics": metrics}


def selfcheck():
    """Every tiny workload through both passes; checks the harness, not
    the solvers' speed.  Returns a process exit code."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = []
    declared = [(m["name"], m["unit"], m["better"], m["bound"])
                for m in bench["end_to_end"]]
    if declared != list(END_TO_END):
        bad.append("BENCHMARK.json end_to_end differs from END_TO_END")
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    if declared != list(tracing.PER_LAYER):
        bad.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    if [x["name"] for x in bench["workloads"]] != list(workloads.WORKLOADS):
        bad.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for w in workloads.TINY_WORKLOADS.values():
        t0 = time.perf_counter()
        cal = Calibration(w)
        setup_s, warm = set_up(w, 0, cal, 0.0)
        untraced, traced, spans, layer, problems = traced_run(
            w, 0, cal, 0.0, n_requests=2)
        e2e, _ = end_to_end(w, untraced, setup_s)
        probe = workloads.defect_probe(w) if w.defect_probe else None
        calls = warm + _calls(untraced) + _calls(traced)
        _, checks = _failures(calls)
        bad += [f"{w.name}: {p}" for p in problems + checks]
        missing = {m[0] for m in tracing.PER_LAYER} ^ set(layer)
        if missing:
            bad.append(f"{w.name}: per-layer metrics {sorted(missing)}")
        if not {m[0] for m in END_TO_END} <= set(e2e):
            bad.append(f"{w.name}: end-to-end metrics {sorted(e2e)}")
        if layer["kernel.lu_factor_calls"] <= 0 or layer["sda.steps_plain"] <= 0:
            bad.append(f"{w.name}: the trace counted no LU or no SDA step")
        print(f"selfcheck {w.name}: {len(spans)} spans, "
              f"{sum(c.error is not None for c in calls)} failed calls, "
              + (f"defect probe {probe['failures_by_class']}, " if probe else "")
              + f"{time.perf_counter() - t0:.2f} s")
    for line in bad:
        print("selfcheck FAILED:", line)
    if not bad:
        print("selfcheck ok")
    return 1 if bad else 0


def run(w, seed, seconds, trace, import_s, env_before):
    """One benchmark run; prints the info line and the result line."""
    threads = blas_threads()
    unpinned = {lib: v["threads"] for lib, v in threads.items() if v["threads"] != 1}
    if unpinned:
        raise RuntimeError(f"BLAS not pinned to one thread: {unpinned}")
    imports = [import_s] + [fresh_import_seconds()
                            for _ in range(IMPORT_REPS - 1)]
    cal = Calibration(w)
    setup_s, warm = set_up(w, seed, cal, statistics.median(imports))
    probe = workloads.defect_probe(w) if w.defect_probe else None
    gc.freeze()

    info = {"workload": w.name, "seed": seed, "seconds": seconds,
            "trace": trace, "import_s": imports}
    problems = []
    t_run = time.perf_counter()
    if trace:
        untraced, traced, spans, values, problems = traced_run(w, seed, cal, seconds)
        calls = _calls(untraced) + _calls(traced)
        units = [(name, unit) for name, unit, _ in tracing.PER_LAYER]
        info.update(requests=len(traced), spans=len(spans),
                    count_window=min(w.count_window, len(traced)),
                    spans_file=_write_spans(w, seed, spans),
                    integrity_problems=problems[:10])
    else:
        _require_no_wrappers("before the untraced run")
        records = run_pass(w, seed, cal, seconds=seconds)
        _require_no_wrappers("after the untraced run")
        calls = _calls(records)
        values, extra = end_to_end(w, records, setup_s)
        units = [(name, unit) for name, unit, _, _ in END_TO_END]
        info.update(requests=len(records), **extra)
    info["run_wall_s"] = time.perf_counter() - t_run
    info["calibration_median_s"] = statistics.median(cal.samples)
    info["calibration_ref_s"] = w.cal_ref_s
    if cal.big_samples:
        info["diag_calibration_median_s"] = statistics.median(cal.big_samples)
        info["diag_calibration_ref_s"] = workloads.DIAG_CAL_REF_S
    failures, checks = _failures(warm + calls)
    info.update(
        failures_by_class=failures, check_failures=checks, defect_probe=probe,
        nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
        cpu=_cpu_model(), blas=threads, thread_env_before=env_before,
        python=platform.python_version(), numpy=numpy.__version__,
        scipy=scipy.__version__)
    correct = not checks and not problems
    print(json.dumps({"info": info}))
    print(json.dumps(_result(correct, calls, values, units)))
