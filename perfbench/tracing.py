"""Outside-in tracing of the layers, for the benchmark's traced run.

The tracer replaces, as module attributes, the public functions at each
layer boundary of the package and the numpy/scipy LAPACK entry points they
reach.  Every call through a wrapper records a span

    [name, start, end, parent span index, request index, value]

in memory, where `value` is the computed flop count of a kernel call and
the returned k of `detect_k`.  Nothing inside the package changes: the
wrappers are installed for the traced pass only and every patched
attribute is restored on the way out, also when the pass raises.
"""

import contextlib
import functools
import statistics
import sys
import time

import numpy as np
import scipy.linalg

from workloads import request_seconds

#: functions at each layer boundary, by module of the package
LAYER_FUNCTIONS = {
    "problems": ("transport_problem", "random_mnare"),
    "core": ("build_h", "build_m", "classify_mmatrix", "relative_residual",
             "ordered_eigenvalues"),
    "sda": ("sda_init", "sda_step", "sda_solve"),
    "shift": ("sushi_solve", "detect_k", "compute_central_pair",
              "inverse_orthogonal_iteration", "estimate_next_modulus",
              "choose_shift_s", "build_shifted_h", "newton_polish"),
    "diagnostics": ("stable_basis", "report_for", "relsep_of_subspace",
                    "sep_f", "delta_central", "gap_of", "cayley_gap",
                    "cond_uv"),
}
#: functions whose return value the span keeps
KEEP_RESULT = {"shift.detect_k"}


# --- computed flop counts, from argument shapes --------------------------------
# Standard dense counts (Golub and Van Loan); they ignore cache behaviour and
# are reported as computed, not measured.

def _mn(a):
    shape = np.shape(a)
    return (shape[0], shape[1]) if len(shape) == 2 else (shape[0], 1)


def _nrhs(b):
    return _mn(b)[1]


def _fl_lu_factor(a, *args, **kwargs):
    m, n = _mn(a)
    k = min(m, n)
    return max(m, n) * k * k - k ** 3 / 3.0


def _fl_lu_solve(factor, b, *args, **kwargs):
    n = _mn(factor[0])[0]
    return 2.0 * n * n * _nrhs(b)


def _fl_solve(a, b, *args, **kwargs):
    n = _mn(a)[0]
    return 2.0 * n ** 3 / 3.0 + 2.0 * n * n * _nrhs(b)


def _fl_svd(a, *args, compute_uv=True, **kwargs):
    m, n = _mn(a)
    m, n = max(m, n), min(m, n)
    if args:  # numpy's positional (full_matrices, compute_uv)
        compute_uv = args[1] if len(args) > 1 else compute_uv
    if compute_uv:
        return 4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n ** 3
    return 4.0 * m * n * n - 4.0 * n ** 3 / 3.0


def _fl_svdvals(a, *args, **kwargs):
    return _fl_svd(a, compute_uv=False)


def _fl_eigvals(a, *args, **kwargs):
    return 10.0 * _mn(a)[0] ** 3


def _fl_eig(a, *args, **kwargs):
    return 25.0 * _mn(a)[0] ** 3


def _fl_qr(a, mode="reduced", *args, **kwargs):
    m, n = _mn(a)
    factor = 2.0 * n * n * (m - n / 3.0)
    if mode in ("r", "raw", "economic"):
        return factor
    if mode in ("complete", "full"):
        return factor + 4.0 * (m * m * n - m * n * n + n ** 3 / 3.0)
    return 2.0 * factor


def _fl_schur(a, *args, **kwargs):
    return 25.0 * _mn(a)[0] ** 3


def _fl_sylvester(a, b, *args, **kwargs):
    m, n = _mn(a)[0], _mn(b)[0]
    return 25.0 * (m ** 3 + n ** 3) + 5.0 * (m * m * n + m * n * n)


def _fl_gecon(lu, *args, **kwargs):
    return 10.0 * _mn(lu)[0] ** 2


def _fl_trsyl(a, b, *args, **kwargs):
    m, n = _mn(a)[0], _mn(b)[0]
    return float(m * m * n + m * n * n)


def _fl_getrs(lu, piv, b, *args, **kwargs):
    return _fl_lu_solve((lu,), b)


#: numpy/scipy entry points, as (module, attribute, kernel category, flops)
KERNEL_FUNCTIONS = (
    (np.linalg, "qr", "qr", _fl_qr),
    (np.linalg, "svd", "svd", _fl_svd),
    (np.linalg, "eigvals", "eig", _fl_eigvals),
    (np.linalg, "eig", "eig", _fl_eig),
    (np.linalg, "solve", "solve", _fl_solve),
    (scipy.linalg, "lu_factor", "lu_factor", _fl_lu_factor),
    (scipy.linalg, "lu_solve", "lu_solve", _fl_lu_solve),
    (scipy.linalg, "solve", "solve", _fl_solve),
    (scipy.linalg, "qr", "qr", _fl_qr),
    (scipy.linalg, "svd", "svd", _fl_svd),
    (scipy.linalg, "svdvals", "svd", _fl_svdvals),
    (scipy.linalg, "eigvals", "eig", _fl_eigvals),
    (scipy.linalg, "eig", "eig", _fl_eig),
    (scipy.linalg, "schur", "schur", _fl_schur),
    (scipy.linalg, "solve_sylvester", "sylvester", _fl_sylvester),
)
#: LAPACK routines fetched through get_lapack_funcs, by name without the
#: precision prefix
LAPACK_ROUTINES = {
    "gecon": ("gecon", _fl_gecon),
    "trsyl": ("sylvester", _fl_trsyl),
    "getrf": ("lu_factor", _fl_lu_factor),
    "getrs": ("lu_solve", _fl_getrs),
}


class Tracer:
    """Span recorder shared by every wrapper of one traced pass."""

    def __init__(self):
        self.spans = []
        self.request = None     # set by the runner around each timed call
        self._stack = []
        self._in_kernel = 0

    def _enter(self, name, value):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.request, value]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        return span

    def _exit(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def layer(self, name, fn):
        keep = name in KEEP_RESULT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._enter(name, None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if keep:
                span[5] = result
            return result
        wrapper._perfbench_wrapper = True
        return wrapper

    def kernel(self, category, fn, flops):
        """A LAPACK entry point; calls nested in another kernel call (scipy
        calling its own routines) belong to the outer span."""
        name = "kernel." + category

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_kernel:
                return fn(*args, **kwargs)
            try:
                value = float(flops(*args, **kwargs))
            except (TypeError, ValueError, IndexError):
                value = 0.0
            span = self._enter(name, value)
            self._in_kernel += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_kernel -= 1
                self._exit(span)
        wrapper._perfbench_wrapper = True
        return wrapper

    def norm(self, fn):
        """np.linalg.norm: the matrix 2-norm is a dense SVD; every other
        norm passes through untraced."""
        svd = self.kernel("norm2", fn,
                          lambda x, *a, **k: _fl_svd(x, compute_uv=False))

        @functools.wraps(fn)
        def wrapper(x, ord=None, *args, **kwargs):
            if (ord in (2, -2) and not args and kwargs.get("axis") is None
                    and np.ndim(x) == 2):
                return svd(x, ord, **kwargs)
            return fn(x, ord, *args, **kwargs)
        wrapper._perfbench_wrapper = True
        return wrapper

    def lapack_funcs(self, fn):
        """get_lapack_funcs, handing back counted versions of the routines
        in LAPACK_ROUTINES."""
        @functools.wraps(fn)
        def wrapper(names, *args, **kwargs):
            funcs = fn(names, *args, **kwargs)
            if isinstance(names, str):
                return self._routine(funcs)
            return [self._routine(f) for f in funcs]
        wrapper._perfbench_wrapper = True
        return wrapper

    def _routine(self, f):
        # f2py names a routine "function dgecon"; drop the precision prefix
        name = getattr(f, "__name__", "").split(" ")[-1]
        entry = LAPACK_ROUTINES.get(name[1:])
        if entry is None:
            return f
        return _Routine(f, self.kernel(entry[0], f, entry[1]))


class _Routine:
    """A LAPACK routine object whose calls go through a kernel wrapper."""

    def __init__(self, routine, call):
        self._routine = routine
        self._call = call

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._routine, name)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "narekit" or name.startswith("narekit."))]


def _targets(tracer):
    """(home module, original function, wrapper) for every function to
    wrap; a function a later version of the package no longer has is
    skipped, and its metrics read 0."""
    for layer, names in LAYER_FUNCTIONS.items():
        home = sys.modules.get("narekit." + layer)
        for attr in names:
            fn = getattr(home, attr, None)
            if fn is not None:
                yield home, fn, tracer.layer(f"{layer}.{attr}", fn)
    for home, attr, category, flops in KERNEL_FUNCTIONS:
        fn = getattr(home, attr, None)
        if fn is not None:
            yield home, fn, tracer.kernel(category, fn, flops)
    yield np.linalg, np.linalg.norm, tracer.norm(np.linalg.norm)
    yield (scipy.linalg, scipy.linalg.get_lapack_funcs,
           tracer.lapack_funcs(scipy.linalg.get_lapack_funcs))


@contextlib.contextmanager
def installed(tracer):
    """Wrap every target, in its home module and wherever the package bound
    it by name; restore every patched attribute on exit."""
    patched = []
    try:
        for home, original, wrapper in list(_targets(tracer)):
            spaces = [home] + [m for m in _package_modules() if m is not home]
            for space in spaces:
                for name, value in list(vars(space).items()):
                    if value is original:
                        patched.append((space, name, original))
                        setattr(space, name, wrapper)
        yield
    finally:
        for space, name, original in reversed(patched):
            setattr(space, name, original)


def installed_wrappers():
    """Names of wrappers currently installed anywhere the tracer patches."""
    found = []
    for space in [np.linalg, scipy.linalg] + _package_modules():
        for name, value in list(vars(space).items()):
            if getattr(value, "_perfbench_wrapper", False) is True:
                found.append(f"{space.__name__}.{name}")
    return found


# --- per-layer metrics ------------------------------------------------------------

#: (name, unit, better) of every per-layer metric, in output order
PER_LAYER = (
    ("core.build_s", "s/req", "lower"),
    ("core.classify_s", "s/req", "lower"),
    ("core.residual_calls", "calls/req", "lower"),
    ("core.residual_s", "s/req", "lower"),
    ("core.self_s", "s/req", "lower"),
    ("sda.init_s", "s/req", "lower"),
    ("sda.step_s", "s/step", "lower"),
    ("sda.steps_plain", "steps/req", "lower"),
    ("sda.steps_shifted", "steps/req", "lower"),
    ("sda.self_s", "s/req", "lower"),
    ("shift.detect_k_s", "s/req", "lower"),
    ("shift.detect_k_probes", "calls/req", "lower"),
    ("shift.detect_k_accept_ratio", "ratio", "higher"),
    ("shift.central_pair_s", "s/req", "lower"),
    ("shift.inv_iter_calls", "calls/req", "lower"),
    ("shift.inv_iter_steps", "steps/req", "lower"),
    ("shift.next_modulus_s", "s/req", "lower"),
    ("shift.build_shifted_s", "s/req", "lower"),
    ("shift.polish_s", "s/req", "lower"),
    ("shift.k", "k", "lower"),
    ("shift.self_s", "s/req", "lower"),
    ("kernel.lu_factor_calls", "calls/req", "lower"),
    ("kernel.lu_solve_calls", "calls/req", "lower"),
    ("kernel.solve_calls", "calls/req", "lower"),
    ("kernel.dense_svd_calls", "calls/req", "lower"),
    ("kernel.norm2_calls", "calls/req", "lower"),
    ("kernel.eig_calls", "calls/req", "lower"),
    ("kernel.qr_calls", "calls/req", "lower"),
    ("kernel.sylvester_calls", "calls/req", "lower"),
    ("kernel.schur_calls", "calls/req", "lower"),
    ("kernel.gecon_calls", "calls/req", "lower"),
    ("kernel.dense_svd_s", "s/req", "lower"),
    ("kernel.lu_s", "s/req", "lower"),
    ("kernel.eig_s", "s/req", "lower"),
    ("kernel.total_s", "s/req", "lower"),
    ("kernel.flops_computed", "flop/req", "lower"),
    ("diagnostics.stable_basis_s", "s/req", "lower"),
    ("diagnostics.relsep_s", "s/req", "lower"),
    ("diagnostics.sep_f_s", "s/req", "lower"),
    ("diagnostics.delta_s", "s/req", "lower"),
    ("diagnostics.report_s", "s/req", "lower"),
    ("diagnostics.self_s", "s/req", "lower"),
    ("problems.generate_s", "s/req", "lower"),
    ("errors.KMaxReached", "count", "lower"),
    ("errors.NoConvergence", "count", "lower"),
    ("errors.Breakdown", "count", "lower"),
    ("errors.CentralPairIllConditioned", "count", "lower"),
    ("errors.SingularH", "count", "lower"),
    ("errors.DegenerateSpectrum", "count", "lower"),
    ("errors.UVSingular", "count", "lower"),
    ("errors.InitSingular", "count", "lower"),
    ("errors.DimensionCap", "count", "lower"),
    ("errors.InvalidProblem", "count", "lower"),
    ("errors.CheckFailed", "count", "lower"),
    ("errors.other", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans_per_request", "spans/req", "lower"),
)
TIMED_LAYERS = ("core", "sda", "shift", "diagnostics")
_SECONDS = {
    "core.build_s": ("core.build_h", "core.build_m"),
    "core.classify_s": ("core.classify_mmatrix",),
    "core.residual_s": ("core.relative_residual",),
    "sda.init_s": ("sda.sda_init",),
    "shift.detect_k_s": ("shift.detect_k",),
    "shift.central_pair_s": ("shift.compute_central_pair",),
    "shift.next_modulus_s": ("shift.estimate_next_modulus",),
    "shift.build_shifted_s": ("shift.build_shifted_h",),
    "shift.polish_s": ("shift.newton_polish",),
    "kernel.dense_svd_s": ("kernel.svd", "kernel.norm2"),
    "kernel.lu_s": ("kernel.lu_factor", "kernel.lu_solve", "kernel.solve"),
    "kernel.eig_s": ("kernel.eig",),
    "kernel.total_s": ("kernel.lu_factor", "kernel.lu_solve", "kernel.solve",
                       "kernel.svd", "kernel.norm2", "kernel.eig", "kernel.qr",
                       "kernel.schur", "kernel.sylvester", "kernel.gecon"),
    "diagnostics.stable_basis_s": ("diagnostics.stable_basis",),
    "diagnostics.relsep_s": ("diagnostics.relsep_of_subspace",),
    "diagnostics.sep_f_s": ("diagnostics.sep_f",),
    "diagnostics.delta_s": ("diagnostics.delta_central",),
    "diagnostics.report_s": ("diagnostics.report_for",),
}
_CALLS = {
    "core.residual_calls": ("core.relative_residual",),
    "shift.inv_iter_calls": ("shift.inverse_orthogonal_iteration",),
    "kernel.lu_factor_calls": ("kernel.lu_factor",),
    "kernel.lu_solve_calls": ("kernel.lu_solve",),
    "kernel.solve_calls": ("kernel.solve",),
    "kernel.dense_svd_calls": ("kernel.svd", "kernel.norm2"),
    "kernel.norm2_calls": ("kernel.norm2",),
    "kernel.eig_calls": ("kernel.eig",),
    "kernel.qr_calls": ("kernel.qr",),
    "kernel.sylvester_calls": ("kernel.sylvester",),
    "kernel.schur_calls": ("kernel.schur",),
    "kernel.gecon_calls": ("kernel.gecon",),
}
_ERRORS = tuple(name[len("errors."):] for name, _, _ in PER_LAYER
                if name.startswith("errors.") and name != "errors.other")


def _request_counts(spans):
    """Per request: plain SDA steps, shifted SDA steps, and steps of the
    right-basis inverse iteration of every central pair, all counted from
    the spans (one sda_step span per step, one lu_solve per iteration)."""
    n = len(spans)
    in_sushi = [False] * n
    in_detect = [False] * n
    inv_iter = [-1] * n        # nearest enclosing inverse iteration
    right_basis = set()        # first inverse iteration of each central pair
    seen_pair = set()
    per_req = {}
    for i, (name, _, _, parent, req, _) in enumerate(spans):
        if parent >= 0:
            pname = spans[parent][0]
            in_sushi[i] = in_sushi[parent] or pname == "shift.sushi_solve"
            in_detect[i] = in_detect[parent] or pname == "shift.detect_k"
            inv_iter[i] = (parent if pname == "shift.inverse_orthogonal_iteration"
                           else inv_iter[parent])
            if (name == "shift.inverse_orthogonal_iteration"
                    and pname == "shift.compute_central_pair"
                    and parent not in seen_pair):
                seen_pair.add(parent)
                right_basis.add(i)
        if req is None:
            continue
        c = per_req.setdefault(req, {"plain": 0, "shifted": 0, "central": 0,
                                     "probes": 0})
        if name == "sda.sda_step":
            c["shifted" if in_sushi[i] else "plain"] += 1
        elif name == "kernel.lu_solve" and inv_iter[i] in right_basis:
            c["central"] += 1
        elif name == "shift.inverse_orthogonal_iteration" and in_detect[i]:
            c["probes"] += 1
    return per_req


def integrity_problems(spans, untraced, traced):
    """Disagreements between the traced pass's span counts and the values
    the untraced pass's calls returned, request by request."""
    counts = _request_counts(spans)
    problems = []
    for u, t in zip(untraced, traced):
        i = u["index"]
        c = counts.get(i, {"plain": 0, "shifted": 0, "central": 0})
        if [x.error for x in u["calls"]] != [x.error for x in t["calls"]]:
            problems.append(f"request {i}: outcomes differ between passes")
            continue
        if [x.stats for x in u["calls"]] != [x.stats for x in t["calls"]]:
            problems.append(f"request {i}: returned counts differ between passes")
            continue
        by_kind = {x.kind: x for x in u["calls"]}
        for kind, key in (("sda", "plain"), ("sushi", "shifted")):
            call = by_kind.get(kind)
            if call is not None and call.error is None \
                    and call.stats["steps"] != c[key]:
                problems.append(f"request {i}: {kind} returned "
                                f"{call.stats['steps']} steps, trace counted {c[key]}")
        if all(x.error is None for x in u["calls"]):
            want = sum(x.stats.get("inv_iter_steps", 0) for x in u["calls"])
            if want != c["central"]:
                problems.append(f"request {i}: inv_iter_steps returned {want}, "
                                f"trace counted {c['central']}")
    return problems


def layer_metrics(spans, untraced, traced, count_window):
    """Per-layer metrics of a traced pass.

    Times are per request, averaged over every traced request; counts are
    per request over the first `count_window` requests, which a seed
    fixes, so they repeat exactly between runs.
    """
    n_req = len(traced)
    window = min(count_window, n_req)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    total, calls = {}, {}
    self_s = dict.fromkeys(TIMED_LAYERS, 0.0)
    flops = 0.0
    detect_results = []
    req_spans = 0
    generate_s = 0.0
    for i, (name, _, _, _, req, value) in enumerate(spans):
        if name.startswith("problems."):
            generate_s += dur[i]
        if req is None:
            continue
        req_spans += 1
        total[name] = total.get(name, 0.0) + dur[i]
        layer = name.split(".", 1)[0]
        if layer in self_s:
            self_s[layer] += dur[i] - child[i]
        if req < window:
            calls[name] = calls.get(name, 0) + 1
            if layer == "kernel":
                flops += value
            elif name == "shift.detect_k" and value is not None:
                detect_results.append(value)
    m = {}
    for metric, names in _SECONDS.items():
        m[metric] = sum(total.get(x, 0.0) for x in names) / n_req
    for metric, names in _CALLS.items():
        m[metric] = sum(calls.get(x, 0) for x in names) / window
    for layer, seconds in self_s.items():
        m[f"{layer}.self_s"] = seconds / n_req
    steps = sum(1 for s in spans if s[0] == "sda.sda_step" and s[4] is not None)
    m["sda.step_s"] = total.get("sda.sda_step", 0.0) / steps if steps else 0.0
    counts = _request_counts(spans)
    in_window = [counts.get(i, {}) for i in range(window)]
    for metric, key in (("sda.steps_plain", "plain"),
                        ("sda.steps_shifted", "shifted"),
                        ("shift.inv_iter_steps", "central"),
                        ("shift.detect_k_probes", "probes")):
        m[metric] = sum(c.get(key, 0) for c in in_window) / window
    probes = sum(c.get("probes", 0) for c in in_window)
    m["shift.detect_k_accept_ratio"] = len(detect_results) / probes if probes else 0.0
    m["shift.k"] = statistics.fmean(detect_results) if detect_results else 0.0
    m["kernel.flops_computed"] = flops / window
    m["problems.generate_s"] = generate_s / n_req
    errors = dict.fromkeys(_ERRORS + ("other",), 0)
    for rec in traced[:window]:
        for call in rec["calls"]:
            if call.error is not None:
                key = call.error if call.error in errors else "other"
                errors[key] += 1
    for name, count in errors.items():
        m[f"errors.{name}"] = count
    m["trace.overhead_ratio"] = (
        statistics.median(request_seconds(traced))
        / statistics.median(request_seconds(untraced[:n_req])))
    m["trace.spans_per_request"] = req_spans / n_req
    return m
