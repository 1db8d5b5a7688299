"""The benchmark's workloads: seeded inputs, one timed pass, and its checks.

Each workload has a ``prepare(seed)`` step, timed as part of set-up, that
builds every input from the seed, and a ``run(inputs)`` step, the timed pass,
that calls ssflab's public API and checks every output.  A pass returns an
:class:`Outcome`: operations attempted, the ones that failed, the accuracy
headroom left by the ``<=`` checks, and a digest of the outputs that every
later pass of the same run must reproduce bit for bit.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

from ssflab import cli, dirac, scattering, ssf
from ssflab.spectral import eig_hermitian
from ssflab.utils import random_hermitian

__all__ = ["Outcome", "WORKLOADS"]

#: Smallest distance from a det_route point to either spectrum.  Far above
#: ``ssf_via_determinant``'s default ``jump_margin`` (1e-6), so no generated
#: point is ever a jump point.
MIN_GAP = 1e-3

# (size, points) of the det_route pairs: n=8 is Python-overhead bound, n=64
# is BLAS bound, n=32 sits between.
DET_SIZES = ((8, 16), (32, 6), (64, 3))
DET_TOL = 1e-6
# The two centered 5-site potentials of the birman-krein suite's default
# config.  They are fixed, not drawn from the seed: the band sweep's worst
# residual sits at the band edge and depends on the potential's shape, and
# seeded shapes moved headroom_decades by about 15% (interquartile range over
# 16 seeds), too much for a metric with a bound.  The seed draws the pairs.
BAND_POTENTIALS = ((0.3, -0.2, 0.5, 0.1, -0.4), (-0.3, 0.2, -0.5, -0.1, 0.4))
BAND_POINTS = 40
BAND_MARGIN = 0.05
BAND_RESIDUAL_TOL = 1e-5
BAND_UNITARITY_TOL = 1e-8

LATTICE_N_LIST = (128, 256, 384)
LATTICE_N = 256
LATTICE_Z = 1j
LATTICE_MASS = 1.0

# separate streams per workload, so one workload's inputs never shift another's
_DET_TAG = 101
_LATTICE_TAG = 102


@dataclass(frozen=True)
class Outcome:
    ops: int
    failures: tuple
    headroom: float
    digest: str


class _Tally:
    """Collects check results of one pass."""

    def __init__(self):
        self.ops = 0
        self.failures = []
        self.headroom = math.inf
        self.values = []

    def le(self, name: str, value: float, bound: float, new_op: bool = True) -> None:
        """``value <= bound``; ``new_op=False`` adds a check to the last operation."""
        value = float(value)
        self.ops += int(new_op)
        self.values.append(value)
        if value > 0.0 and bound > 0.0:
            self.headroom = min(self.headroom, math.log10(bound / value))
        if not value <= bound:
            self.failures.append(f"{name}: {value!r} > {bound!r}")

    def flag(self, name: str, ok) -> None:
        self.ops += 1
        self.values.append(float(bool(ok)))
        if not ok:
            self.failures.append(f"{name}: flag is {ok!r}")

    def error(self, name: str, exc: Exception, ops: int = 1) -> None:
        self.ops += ops
        self.failures.append(f"{name}: {type(exc).__name__}: {exc}")

    def outcome(self) -> Outcome:
        digest = hashlib.sha256(np.asarray(self.values, dtype=float).tobytes()).hexdigest()
        return Outcome(self.ops, tuple(self.failures), self.headroom, digest)


# ---------------------------------------------------------------------------
# all_serial / all_parallel: the headline `ssflab all` run


def prepare_all(seed: int, jobs: int) -> list:
    return ["all", "--seed", str(seed), "--jobs", str(jobs)]


def run_all(argv: list) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    payload = out.getvalue()
    records = json.loads(payload)["records"]
    failures, headroom = check_records(records, code)
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return Outcome(len(records), tuple(failures), headroom, digest)


def check_records(records: list, code: int) -> tuple:
    """Failures and headroom of the check records and exit code of `ssflab all`.

    Headroom is taken over ``<=`` records with a positive threshold and value
    only: a threshold of 0 (``invariance.step_mismatches``) has no
    logarithmic margin, and a value above it is a failure, listed as such.
    """
    failures = [
        f"{r['name']}: {r['value']!r} {r['op']} {r['threshold']!r} failed"
        for r in records
        if not r["passed"]
    ]
    if code != (1 if failures else 0):
        failures.append(f"ssflab all exited with {code}")
    headroom = min(
        (
            math.log10(r["threshold"] / r["value"])
            for r in records
            if r["op"] == "<=" and r["threshold"] > 0.0 and r["value"] > 0.0
        ),
        default=math.inf,
    )
    return failures, headroom


# ---------------------------------------------------------------------------
# det_route: the determinant-phase tracker through the public API


@dataclass(frozen=True)
class DetPoint:
    d0: object
    v: np.ndarray
    lam: float
    expected: int


def pick_lambda(rng: np.random.Generator, d0, d) -> float:
    """Midpoint between counting breakpoints, at least MIN_GAP from both spectra.

    Only midpoints whose gap lies between the quartiles of all admissible
    gaps are drawn from.  The tracker's work grows with log(1/gap), so this
    keeps the work of a point nearly the same from seed to seed.
    """
    bps = ssf.ssf_counting(d0, d).breakpoints
    mids = 0.5 * (bps[:-1] + bps[1:])
    spectra = np.concatenate([d0.eigenvalues, d.eigenvalues])
    gaps = np.abs(spectra[None, :] - mids[:, None]).min(axis=1)
    ok = gaps >= MIN_GAP
    if not np.any(ok):
        raise ValueError("no breakpoint midpoint is far enough from both spectra")
    mids, gaps = mids[ok], gaps[ok]
    lo, hi = np.quantile(gaps, [0.25, 0.75])
    central = mids[(gaps >= lo) & (gaps <= hi)]
    return float(central[rng.integers(central.size)])


def prepare_det_route(seed: int) -> tuple:
    rng = np.random.default_rng([seed, _DET_TAG])
    points = []
    for n, count in DET_SIZES:
        for _ in range(count):
            a0 = random_hermitian(rng, n)
            v = 0.4 * random_hermitian(rng, n)
            d0 = eig_hermitian(a0)
            d = eig_hermitian(a0 + v)
            lam = pick_lambda(rng, d0, d)
            points.append(DetPoint(d0, v, lam, ssf.ssf_counting(d0, d)(lam)))
    models = [scattering.LatticeScatteringModel.centered(v) for v in BAND_POTENTIALS]
    return points, models


def run_det_route(inputs: tuple) -> Outcome:
    points, models = inputs
    tally = _Tally()
    for i, p in enumerate(points):
        name = f"det.n{p.d0.dim}.point{i}"
        try:
            xi = ssf.ssf_via_determinant(p.d0, p.v, p.lam)
        except (ssf.BranchTrackingError, ValueError) as exc:
            tally.error(name, exc)
            continue
        tally.le(name, abs(xi - p.expected), DET_TOL)
    for j, model in enumerate(models):
        name = f"band.potential{j}"
        try:
            recs = scattering.band_sweep(model, BAND_POINTS, BAND_MARGIN)
        except (ssf.BranchTrackingError, ValueError) as exc:
            tally.error(name, exc, ops=BAND_POINTS)
            continue
        for rec in recs:
            here = f"{name}.lam{rec.lam:.4f}"
            tally.le(f"{here}.residual", rec.residual, BAND_RESIDUAL_TOL)
            tally.le(f"{here}.unitarity", rec.unitarity, BAND_UNITARITY_TOL, new_op=False)
    return tally.outcome()


# ---------------------------------------------------------------------------
# lattice_refinement: dense eigh/SVD of the lattice Dirac layer


def prepare_lattice(seed: int) -> tuple:
    rng = np.random.default_rng([seed, _LATTICE_TAG])
    model = dirac.LatticeModel(
        d=1, n=LATTICE_N, h=dirac.balanced_spacing(LATTICE_N), mass=LATTICE_MASS
    )
    v0 = dirac.random_bounded_potential(model, rng, 0.3)
    v = dirac.random_decaying_potential(model, rng, 1.0, 4.0)
    v4 = dirac.random_decaying_potential(model, rng, 1.0, 4.0)
    return model, v0, v, v4


def run_lattice(inputs: tuple) -> Outcome:
    model, v0, v, v4 = inputs
    tally = _Tally()
    study = dirac.schatten_refinement_study(
        1, 2.0, 2, LATTICE_Z, [1.5], LATTICE_N_LIST, mass=LATTICE_MASS
    )
    tally.values.extend(study.norms_by_p[1.5])
    tally.flag("r2k2.p1_5_stabilizes", study.stabilized[1.5])
    study = dirac.schatten_refinement_study(
        1, 1.0, 1, LATTICE_Z, [1.0], LATTICE_N_LIST, mass=LATTICE_MASS
    )
    tally.values.extend(study.norms_by_p[1.0])
    tally.flag("r1k1.p1_grows", study.grows[1.0])
    rep = dirac.resolvent_power_difference(model, v0, v, LATTICE_Z, 3)
    tally.le("power_expansion.rel", rep.relative_residual, 1e-9)
    comm = dirac.commutator_identity_residual(model, v0, v, 1.0, 2, LATTICE_Z)
    tally.le("weight_commutator.rel", comm, 1e-10)
    fact = dirac.weighted_factorization_report(model, v4, 2, 3, LATTICE_Z)
    tally.flag("factorization.feasible", fact.feasible)
    tally.flag("factorization.holder_ok", fact.holder_ok)
    tally.le(
        "factorization.residual_rel",
        fact.factorization_residual / max(fact.direct_trace_norm, 1e-30),
        1e-9,
    )
    return tally.outcome()


@dataclass(frozen=True)
class Workload:
    prepare: object
    run: object
    #: `suites` fan-out width, the denominator of suites.fanout.efficiency
    jobs: int = 1
    #: inputs, made from the seed, whose pass must give this workload's digest
    cross_check: object = None


WORKLOADS = {
    "all_serial": Workload(lambda seed: prepare_all(seed, 1), run_all),
    "all_parallel": Workload(
        lambda seed: prepare_all(seed, 2),
        run_all,
        jobs=2,
        cross_check=lambda seed: prepare_all(seed, 1),
    ),
    "det_route": Workload(prepare_det_route, run_det_route),
    "lattice_refinement": Workload(prepare_lattice, run_lattice),
}
