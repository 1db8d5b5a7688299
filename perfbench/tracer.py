"""Outside-in tracer for ssflab's layers.

:class:`Tracer` replaces every public function of the layer modules with a
timing wrapper, in every ssflab module namespace that holds the same
function object (``ssf`` imports ``eig_hermitian`` by name, ``scattering``
imports ``track_determinant_phase`` by name, ``cli`` imports ``suite_all``),
and puts every original back on exit.  No ssflab source changes.

Each wrapper records, per thread, the call count, the inclusive time and the
self time (inclusive minus the time of directly nested wrapped calls).  A few
functions carry extra counters taken from their arguments or results; see
:meth:`Tracer.metrics`.  Spans stay in memory; nothing is written until the
caller asks for the metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict

import numpy as np

from workloads import DET_SIZES

LAYERS = ("spectral", "ssf", "doi", "dirac", "scattering", "suites", "reports")

# suite runner -> the subcommand name used in the metric
SUITES = {
    "suites.suite_trace_check": "trace-check",
    "suites.suite_doi_check": "doi-check",
    "suites.suite_rm_cert": "rm-cert",
    "suites.suite_dirac_schatten": "dirac-schatten",
    "suites.suite_birman_krein": "birman-krein",
}

# Outermost spans of a group cover part of the traced wall; nested members
# are not counted twice.  "dense" is eigh and SVD only: the solves, products
# and ord-2 norms inside `dirac` are not ssflab functions and stay outside it.
GROUPS = {
    "tracker": {
        "ssf.track_determinant_phase",
        "ssf.perturbation_determinant",
        "scattering.scattering_determinant",
        "spectral.det_id_plus",
    },
    "dense": {"spectral.eig_hermitian", "spectral.singular_values"},
}

__all__ = ["GROUPS", "LAYERS", "SUITES", "Tracer"]


class _ThreadState:
    def __init__(self, is_main: bool):
        self.is_main = is_main
        self.stack = []  # frames: [name, time of nested wrapped calls]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.n3 = defaultdict(int)
        self.group_depth = defaultdict(int)
        self.group_time = defaultdict(float)
        self.busy_cpu = 0.0
        self.tracker_evals = 0
        self.tracker_refinements = 0
        self.collisions = 0
        self.payload_bytes = 0
        self.det_ms = defaultdict(list)


def _matrix_work(matrix) -> int:
    """Σ n³ work count of one dense factorisation (m·n·min(m, n) if rectangular)."""
    shape = getattr(matrix, "shape", None)
    if shape is None:  # HermitianOperator
        shape = matrix.entries.shape
    m, n = shape[-2], shape[-1]
    return int(m) * int(n) * min(int(m), int(n))


class Tracer:
    """Context manager that traces ssflab's layer modules while active."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states = []
        self._patches = []
        self._main = threading.get_ident()

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    @staticmethod
    def _modules() -> list:
        importlib.import_module("ssflab")
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "ssflab" or name.startswith("ssflab."))
        ]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = self._modules()
        try:
            for layer in LAYERS:
                mod = importlib.import_module(f"ssflab.{layer}")
                public = getattr(mod, "__all__", None) or [
                    n for n in vars(mod) if not n.startswith("_")
                ]
                for attr in public:
                    fn = getattr(mod, attr)
                    if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                        self._patch_everywhere(modules, fn, self._wrap(f"{layer}.{attr}", fn))
            reports = importlib.import_module("ssflab.reports")
            cls = reports.ExperimentReport
            original = cls.__dict__["json_text"]
            self._patches.append((cls, "json_text", original))
            setattr(cls, "json_text", self._wrap("reports.json_text", original))
        except BaseException:
            self.restore()
            raise

    def _patch_everywhere(self, modules: list, fn, wrapper) -> None:
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, key, fn))
                    setattr(mod, key, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    @property
    def patched(self) -> list:
        """``(owner, attribute, original)`` for every binding replaced."""
        return list(self._patches)

    # -- recording ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState(threading.get_ident() == self._main)
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    def _wrap(self, name: str, fn):
        groups = tuple(g for g, members in GROUPS.items() if name in members)
        n3_arg = name in ("spectral.eig_hermitian", "spectral.singular_values")
        is_tracker = name == "ssf.track_determinant_phase"
        is_sdet = name == "ssf.ssf_via_determinant"
        is_doi = name == "doi.doi_identity_residual"
        is_json = name == "reports.json_text"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            parent = stack[-1] if stack else None
            # busy time for suites.fanout.efficiency: work a suite hands out,
            # either inline under the suite span or at the top of a pool thread
            fanned = (parent is None and not st.is_main) or (
                parent is not None and parent[0] in SUITES
            )
            heights = None
            if is_tracker:
                heights = []
                args, kwargs = _record_heights(args, kwargs, heights)
            for g in groups:
                st.group_depth[g] += 1
            frame = [name, 0.0]
            stack.append(frame)
            cpu0 = time.thread_time() if fanned else 0.0
            t0 = time.perf_counter()
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                dt = time.perf_counter() - t0
                if fanned:
                    st.busy_cpu += time.thread_time() - cpu0
                stack.pop()
                if parent is not None:
                    parent[1] += dt
                st.calls[name] += 1
                st.total[name] += dt
                st.self_time[name] += dt - frame[1]
                for g in groups:
                    st.group_depth[g] -= 1
                    if st.group_depth[g] == 0:
                        st.group_time[g] += dt
                if n3_arg:
                    st.n3[name] += _matrix_work(args[0])
                if heights is not None:
                    st.tracker_evals += len(heights)
                    st.tracker_refinements += sum(
                        1 for a, b in zip(heights, heights[1:]) if b > a
                    )
                if is_sdet:
                    st.det_ms[args[0].dim].append(1e3 * dt)
                if is_doi and raised:
                    st.collisions += 1
                if is_json and not raised:
                    st.payload_bytes += len(result.encode("utf-8"))

        return wrapper

    # -- results -----------------------------------------------------------

    def _merged(self):
        with self._lock:
            states = list(self._states)
        merged = _ThreadState(True)
        for st in states:
            for field in ("calls", "total", "self_time", "n3", "group_time"):
                target = getattr(merged, field)
                for k, v in getattr(st, field).items():
                    target[k] += v
            for k, v in st.det_ms.items():
                merged.det_ms[k].extend(v)
            for field in ("busy_cpu", "tracker_evals", "tracker_refinements",
                          "collisions", "payload_bytes"):
                setattr(merged, field, getattr(merged, field) + getattr(st, field))
        return merged

    def metrics(self, wall_s: float, jobs: int) -> dict:
        """Per-layer metrics of everything traced so far: name -> (value, unit).

        ``wall_s`` is the traced wall of the same work and ``jobs`` the
        `suites` fan-out width.  Times are summed over threads.
        """
        m = self._merged()
        out = {}

        def put(key, value, unit):
            out[key] = (value, unit)

        for fn in ("ssf.perturbation_determinant", "ssf.track_determinant_phase",
                   "scattering.ssf_scattering"):
            put(f"{fn}.calls", m.calls[fn], "count")
            put(f"{fn}.self_s", m.self_time[fn], "s")
        for fn in ("spectral.det_id_plus", "spectral.resolvent_power",
                   "scattering.scattering_determinant", "dirac.free_decomposition"):
            put(f"{fn}.calls", m.calls[fn], "count")
            put(f"{fn}.s", m.total[fn], "s")
        for fn in ("spectral.eig_hermitian", "spectral.singular_values"):
            put(f"{fn}.calls", m.calls[fn], "count")
            put(f"{fn}.s", m.total[fn], "s")
            put(f"{fn}.n3", m.n3[fn], "count")

        evals = m.tracker_evals
        accepted = evals - m.calls["ssf.track_determinant_phase"] - m.tracker_refinements
        put("ssf.tracker.evals", evals, "count")
        put("ssf.tracker.refinements", m.tracker_refinements, "count")
        put("ssf.tracker.accept_ratio", accepted / evals if evals else 0.0, "ratio")
        for n, _ in DET_SIZES:
            samples = m.det_ms.get(n)
            for q in (50, 90):
                value = float(np.percentile(samples, q)) if samples else 0.0
                put(f"ssf.ssf_via_determinant.ms.n{n}.p{q}", value, "ms")

        put("scattering.bound_state_count_below.s",
            m.total["scattering.bound_state_count_below"], "s")
        put("dirac.weighted_resolvent_schatten.self_s",
            m.self_time["dirac.weighted_resolvent_schatten"], "s")
        for fn in ("dirac.resolvent_power_difference", "dirac.commutator_identity_residual",
                   "dirac.weighted_factorization_report", "ssf.ssf_via_invariance",
                   "ssf.trace_formula_sides", "doi.kernel_hypotheses_report",
                   "doi.cofactor_lower_bound_cert", "doi.doi_identity_residual",
                   "doi.resolvent_cutoff_split"):
            put(f"{fn}.s", m.total[fn], "s")
        put("dirac.calls", sum(v for k, v in m.calls.items() if k.startswith("dirac.")), "count")
        trials = m.calls["doi.doi_identity_residual"] - m.collisions
        put("doi.collision_regenerations_ratio", m.collisions / trials if trials else 0.0, "ratio")

        suite_wall = 0.0
        for fn, sub in SUITES.items():
            put(f"suites.{sub}.s", m.total[fn], "s")
            suite_wall += m.total[fn]
        put("suites.fanout.efficiency",
            m.busy_cpu / (jobs * suite_wall) if suite_wall else 0.0, "ratio")
        put("reports.json_text.s", m.total["reports.json_text"], "s")
        put("reports.payload_bytes", m.payload_bytes, "bytes")

        put("trace.wall_s", wall_s, "s")
        put("trace.tracker_share", m.group_time["tracker"] / wall_s, "ratio")
        put("trace.dense_share", m.group_time["dense"] / wall_s, "ratio")
        return out


def _record_heights(args: tuple, kwargs: dict, heights: list):
    """Swap ``det_fn`` for a wrapper that logs every height it is asked for.

    The tracker evaluates ``h_start`` first and then steps down; a rejected
    step shows as the next evaluated height being higher than the last one.
    """
    if args:
        det_fn, rest = args[0], args[1:]
    else:
        det_fn, rest = kwargs.pop("det_fn"), ()

    def logged(h):
        heights.append(float(h))
        return det_fn(h)

    return (logged,) + tuple(rest), kwargs

