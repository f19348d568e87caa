"""Per-layer tracing from outside the package.

The traced pass wraps public functions of ``conformal_lab`` at every
module attribute bound to them (``verify`` imports several by name), times
each call as a span, and restores every attribute afterwards.  A span's
self time is its duration minus the durations of the wrapped calls made
inside it on the same thread.  Nothing in ``src/`` is edited.
"""

from __future__ import annotations

import functools
import hashlib
import statistics
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np


class Stat:
    __slots__ = ("calls", "points", "self_s", "job_self_s", "repeats",
                 "keys")

    def __init__(self):
        self.calls = 0
        self.points = 0
        self.self_s = 0.0
        self.job_self_s = 0.0  # self time of spans opened inside a job
        self.repeats = 0       # calls whose key was seen before
        self.keys = set()


class Tracer:
    """Spans per thread, aggregated per name; jobs kept as intervals."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.jobs: list[tuple[str, float, float]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, points: int = 0, key=None, job: bool = False):
        stack = self._stack()
        in_job = job or bool(stack and stack[0][2])
        # start, child time, is a job, points (the caller may add to them)
        frame = [self.clock(), 0.0, job, points]
        stack.append(frame)
        try:
            yield frame
        finally:
            end = self.clock()
            stack.pop()
            duration = end - frame[0]
            if stack:
                stack[-1][1] += duration
            self_s = duration - frame[1]
            with self._lock:
                st = self.stats.setdefault(name, Stat())
                st.calls += 1
                st.points += frame[3]
                st.self_s += self_s
                if in_job and not job:
                    st.job_self_s += self_s
                if key is not None:
                    if key in st.keys:
                        st.repeats += 1
                    else:
                        st.keys.add(key)
                if job:
                    self.jobs.append((name, frame[0], end))


class Patcher:
    """Sets attributes or dict items and puts the originals back."""

    def __init__(self):
        self._undo: list = []

    def set(self, owner, attr, value):
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)


def package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "conformal_lab" or name.startswith("conformal_lab.")]


def rebind(patcher: Patcher, home, attr: str, make_wrapper) -> None:
    """Wrap ``home.attr`` at every package attribute bound to it."""
    orig = vars(home).get(attr)
    if orig is None:
        print(f"perfbench: {home.__name__}.{attr} not found; not traced",
              file=sys.stderr)
        return
    wrapped = functools.wraps(orig)(make_wrapper(orig))
    owners = [home] + [mod for mod in package_modules() if mod is not home]
    for owner in owners:
        for name, value in list(vars(owner).items()):
            if value is orig:
                patcher.set(owner, name, wrapped)


def point_count(*arrays) -> int:
    arrays = [a for a in arrays if a is not None]
    return int(np.broadcast(*arrays).size) if arrays else 0


def digest(arr) -> tuple:
    a = np.ascontiguousarray(np.asarray(arr, dtype=float))
    return a.shape, hashlib.blake2b(a.tobytes(), digest_size=16).digest()


def _grid_count(m) -> int:
    return point_count(*m.grid_points())


def green_kind(gf) -> str:
    """Representation bucket of a Green's function for values_at spans."""
    if gf.representation.endswith("+transport"):
        return "transported"
    if gf.representation == "closed-form":
        return "closed_form"
    return "image_sum" if gf.operator == "L" else "degree_sum"


def install(tracer: Tracer) -> Patcher:
    """Wrap the traced layers of an imported ``conformal_lab``."""
    from conformal_lab import (basis, fields, geometry, green, operators,
                               quadrature, spectrum, verify)
    patcher = Patcher()
    span = tracer.span

    def timed(name, points=None, key=None):
        def make(orig):
            def wrapper(*args, **kw):
                with span(name, points(*args, **kw) if points else 0,
                          key(*args, **kw) if key else None):
                    return orig(*args, **kw)
            return wrapper
        return make

    # basis: tabulation at arbitrary points
    rebind(patcher, basis.ModeBasis, "polar_values", timed(
        "basis.polar_values", lambda b, t: np.size(t),
        lambda b, t: (b.sphere_dim, b.degree_max, digest(t))))
    rebind(patcher, basis.ModeBasis, "circle_values", timed(
        "basis.circle_values", lambda b, s: np.size(s),
        lambda b, s: (b.fourier_max, b.length, digest(s))))

    # fields: off-grid evaluation and grid transforms
    for fname in ("evaluate", "frame_jets"):
        rebind(patcher, fields, fname, timed(
            f"fields.{fname}", lambda f, *pts: point_count(*pts)))
    for fname in ("synthesize", "analyze"):
        rebind(patcher, fields, fname, timed(f"fields.{fname}"))

    # green: kernel values per representation and log-profile jets
    def values_at(orig):
        def wrapper(gf, *pts):
            with span(f"green.values_at.{green_kind(gf)}", point_count(*pts)):
                return orig(gf, *pts)
        return wrapper

    def traced_jets(m, jets):
        @functools.wraps(jets)
        def wrapper(points=None):
            n = _grid_count(m) if points is None else point_count(*points)
            with span("green.log_profile_jets", n):
                return jets(points)
        return wrapper

    def log_profile(orig):
        def wrapper(gf, scale):
            profile = orig(gf, scale)
            profile.jets = traced_jets(gf.manifold, profile.jets)
            return profile
        return wrapper

    rebind(patcher, green.GreenField, "values_at", values_at)
    rebind(patcher, green.GreenField, "log_profile", log_profile)
    for fname in ("extract_mass", "compare_green", "sign_scan"):
        rebind(patcher, green, fname, timed(f"green.{fname}"))

    # quadrature: nodes are the points handed to the integrand
    def integral(name):
        def make(orig):
            def wrapper(m, fn, *args, **kw):
                with span(name) as frame:
                    def counted(*pts):
                        frame[3] += point_count(*pts)
                        return fn(*pts)

                    return orig(m, counted, *args, **kw)
            return wrapper
        return make

    for fname in ("product_singular_integral", "sphere_zonal_integral"):
        rebind(patcher, quadrature, fname, integral(f"quadrature.{fname}"))

    # geometry, operators, spectrum
    rebind(patcher, geometry, "conformal_ricci", timed(
        "geometry.conformal_ricci",
        lambda m, factor, points=None:
            _grid_count(m) if points is None else point_count(*points)))
    rebind(patcher, geometry, "catalog_build", timed("geometry.catalog_build"))
    for fname in ("apply_P", "conformal_quadratic_form_E"):
        rebind(patcher, operators, fname, timed(f"operators.{fname}"))
    rebind(patcher, operators, "build_symbol", timed(
        "operators.build_symbol", key=lambda m, op: (m, op)))
    for fname in ("lambda1_L", "paneitz_spectrum_check"):
        rebind(patcher, spectrum, fname, timed(f"spectrum.{fname}"))

    # verify: one job span per (suite, backend) call of the registry
    def job(suite, orig):
        @functools.wraps(orig)
        def wrapper(m, cfg):
            with span(f"verify.{suite}", job=True):
                return orig(m, cfg)
        return wrapper

    for suite, fn in list(verify.SUITES.items()):
        patcher.set(verify.SUITES, suite, job(suite, fn))
    return patcher


# ------------------------------------------------------------------ metrics

LAYER_STATS = {
    "basis.polar_values": ("calls", "points", "self_s", "repeat_ratio"),
    "basis.circle_values": ("calls", "points", "self_s", "repeat_ratio"),
    "fields.evaluate": ("calls", "points", "self_s"),
    "fields.frame_jets": ("calls", "points", "self_s"),
    "fields.synthesize": ("self_s",),
    "fields.analyze": ("self_s",),
    "green.values_at.closed_form": ("points", "self_s"),
    "green.values_at.image_sum": ("points", "self_s"),
    "green.values_at.degree_sum": ("points", "self_s"),
    "green.values_at.transported": ("points", "self_s"),
    "green.log_profile_jets": ("points", "self_s"),
    "green.extract_mass": ("self_s",),
    "green.compare_green": ("self_s",),
    "green.sign_scan": ("self_s",),
    "quadrature.product_singular_integral": ("calls", "nodes", "self_s"),
    "quadrature.sphere_zonal_integral": ("calls", "nodes", "self_s"),
    "geometry.conformal_ricci": ("calls", "points", "self_s"),
    "geometry.catalog_build": ("self_s",),
    "operators.apply_P": ("calls", "self_s"),
    "operators.conformal_quadratic_form_E": ("self_s",),
    "operators.build_symbol": ("calls", "repeat_ratio"),
    "spectrum.lambda1_L": ("calls",),
    "spectrum.paneitz_spectrum_check": ("self_s",),
}

SUITE_NAMES = ("weak-identity", "4d-identity", "total-q", "covariance",
               "signs", "spectrum", "green-compare", "mass")


def table_cache_counts() -> tuple[int, int]:
    """(hits, misses) of the cached grid tables of ``conformal_lab.basis``."""
    from conformal_lab import basis
    hits = misses = 0
    for name in ("_polar_tables", "_circle_tables"):
        info = getattr(getattr(basis, name, None), "cache_info", None)
        if info is not None:
            hits += info().hits
            misses += info().misses
    return hits, misses


def dump(tracer: Tracer) -> dict:
    """The tracer's aggregates as plain JSON data."""
    return {
        "stats": {name: {"calls": st.calls, "points": st.points,
                         "self_s": st.self_s, "job_self_s": st.job_self_s,
                         "repeats": st.repeats}
                  for name, st in tracer.stats.items()},
        "jobs": tracer.jobs,
    }


def empty_trace(verify: dict) -> dict:
    """The ``layer_metrics`` input of a pass that traced nothing."""
    return {"stats": {}, "jobs": [], "cpu_s": 0.0, "run_end": 0.0,
            "tables": [0, 0], "verify": verify}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, threads: int) -> dict:
    """Per-layer metrics of one traced pass, by metric name.

    ``trace`` holds the tracer dump plus ``run_s`` (duration of the
    ``cli.run`` call), ``cpu_s``, ``tables`` ((hits, misses) of the grid
    table caches during the run) and ``verify`` (worst margin and drift).
    """
    stats = trace["stats"]
    empty = {"calls": 0, "points": 0, "self_s": 0.0, "job_self_s": 0.0,
             "repeats": 0}
    out = {}
    for name, quantities in LAYER_STATS.items():
        st = stats.get(name, empty)
        for q in quantities:
            if q == "repeat_ratio":
                out[f"{name}.{q}"] = _ratio(st["repeats"], st["calls"])
            else:
                out[f"{name}.{q}"] = st["points" if q == "nodes" else q]
    hits, misses = trace["tables"]
    out["basis.tables.hit_ratio"] = _ratio(hits, hits + misses)

    jobs = trace["jobs"]
    for suite in SUITE_NAMES:
        out[f"verify.{suite}.wall_s"] = sum(
            end - start for name, start, end in jobs
            if name == f"verify.{suite}")
    out["verify.worst_margin"] = trace["verify"]["worst_margin"]
    out["verify.residual_drift_log10"] = trace["verify"]["drift_log10"]

    durations = [end - start for _, start, end in jobs]
    job_sum = sum(durations)
    if jobs:
        first = min(start for _, start, _ in jobs)
        last = max(end for _, _, end in jobs)
        makespan = last - first
        report_write = trace["run_end"] - last
    else:
        makespan = report_write = 0.0
    out["cli.makespan_s"] = makespan
    out["cli.job_sum_s"] = job_sum
    out["cli.parallel_efficiency"] = _ratio(job_sum, makespan * threads)
    out["cli.critical_job_share"] = _ratio(max(durations, default=0.0),
                                           makespan)
    out["cli.report_write_s"] = report_write
    out["cli.cpu_s"] = trace["cpu_s"]

    in_jobs = sum(st["job_self_s"] for name, st in stats.items()
                  if not name.startswith("verify."))
    out["trace.coverage"] = _ratio(in_jobs, job_sum)
    return out


def metric_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("calls", "points", "nodes"):
        return "count"
    if last.endswith("_s"):
        return "s"
    return "log10" if last.endswith("log10") else "ratio"


def median_metrics(samples: list[dict]) -> dict:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
