"""Acceptance gate: one test per shipped guarantee, at the stated tolerances.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
the captured output) and then asserts, so a red run names the guarantee that
broke and the measured value that broke it.
"""

import json
import time

import numpy as np
import pytest

from ssflab import functions
from ssflab.cli import main as cli_main
from ssflab.dirac import (
    LatticeModel,
    balanced_spacing,
    commutator_identity_residual,
    random_bounded_potential,
    random_decaying_potential,
    resolvent_power_difference,
    schatten_refinement_study,
    weighted_factorization_report,
    weighted_resolvent_schatten,
)
from ssflab.doi import (
    AntidiagonalCollisionError,
    BoundedRegion,
    CofactorPolynomial,
    ExteriorRegion,
    cofactor_lower_bound_cert,
    doi_identity_residual,
    kernel_hypotheses_report,
    resolvent_kernel,
)
from ssflab.scattering import LatticeScatteringModel, band_sweep
from ssflab.spectral import eig_hermitian
from ssflab.ssf import (
    PowerChangeOfVariable,
    ssf_counting,
    ssf_via_determinant,
    ssf_via_invariance,
    steps_equal,
    trace_formula_sides,
)
from ssflab.utils import random_hermitian, rng_from

_SEED = 20260814


def _verdict(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _families(rng):
    return [
        functions.polynomial(rng.normal(size=4)),
        functions.gaussian_bump(0.2, 0.8, 1.5),
        functions.squared_lorentzian(),
        functions.resolvent_function(0.5 + 1.0j, m=1, part="re"),
        functions.bump_c2(1.5),
    ]


def _pair(rng, dim, scale=0.4):
    a0 = random_hermitian(rng, dim)
    v = random_hermitian(rng, dim, scale=scale)
    return eig_hermitian(a0), eig_hermitian(a0 + v), v


def test_criterion_01_trace_formula_exact():
    t0 = time.monotonic()
    worst = 0.0
    for trial in range(200):
        rng = rng_from(_SEED, 1, trial)
        dim = 2 + trial % 31  # sweeps 2..32
        d0, d, _ = _pair(rng, dim)
        for f in _families(rng):
            lhs, rhs = trace_formula_sides(d0, d, f)
            scale = max(abs(lhs), abs(rhs), 1.0)
            worst = max(worst, abs(lhs - rhs) / scale)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed <= 60.0
    _verdict(
        1,
        ok,
        f"trace formula on 200 pairs x 5 families: worst relative residual "
        f"{worst:.3e} (<= 1e-10), {elapsed:.1f}s (<= 60s)",
    )


def test_criterion_02_invariance_principle_exact():
    t0 = time.monotonic()
    mismatches = 0
    for m in (3, 5):
        phi = PowerChangeOfVariable(m, 1.0)
        for trial in range(100):
            rng = rng_from(_SEED, 2, m, trial)
            dim = 2 + trial % 15
            d0, d, _ = _pair(rng, dim, scale=0.5)
            if not steps_equal(ssf_counting(d0, d), ssf_via_invariance(d0, d, phi), bp_tol=1e-9):
                mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed <= 60.0
    _verdict(
        2,
        ok,
        f"invariance principle, m in (3, 5), 100 pairs each: {mismatches} mismatches "
        f"(values exact, breakpoints <= 1e-9), {elapsed:.1f}s (<= 60s)",
    )


def test_criterion_03_determinant_route_matches_counting():
    worst = 0.0
    for trial in range(20):
        rng = rng_from(_SEED, 3, trial)
        d0, d, v = _pair(rng, 8, scale=0.5)
        xi = ssf_counting(d0, d)
        lo = float(min(d0.eigenvalues.min(), d.eigenvalues.min())) - 1.0
        hi = float(max(d0.eigenvalues.max(), d.eigenvalues.max())) + 1.0
        points = []
        attempts = 0
        while len(points) < 50 and attempts < 5000:
            attempts += 1
            lam = float(rng.uniform(lo, hi))
            gap = min(
                float(np.min(np.abs(d0.eigenvalues - lam))),
                float(np.min(np.abs(d.eigenvalues - lam))),
            )
            if gap >= 1e-3:
                points.append(lam)
        assert len(points) == 50
        for lam in points:
            worst = max(worst, abs(ssf_via_determinant(d0, v, lam) - xi(lam)))
    ok = worst <= 1e-6
    _verdict(
        3,
        ok,
        f"determinant phase vs counting, 20 trials x 50 points: worst deviation "
        f"{worst:.3e} (<= 1e-6)",
    )


def test_criterion_04_doi_identity_with_collision_guard():
    f = functions.gaussian_bump(0.0, 1.2, 1.0)
    worst = 0.0
    regenerated = 0
    for m, z in ((3, 2j), (5, 3j)):
        done = 0
        idx = 0
        while done < 100:
            assert idx < 2000, "collision regeneration failed to converge"
            for attempt in range(50):
                rng = rng_from(_SEED, 4, m, idx, attempt)
                a0 = random_hermitian(rng, 12)
                v = random_hermitian(rng, 12, scale=0.5)
                try:
                    res = doi_identity_residual(
                        eig_hermitian(a0), eig_hermitian(a0 + v), f, m, z
                    )
                    break
                except AntidiagonalCollisionError:
                    regenerated += 1
            else:
                raise AssertionError("50 regeneration attempts exhausted")
            worst = max(worst, res)
            done += 1
            idx += 1
    # a constructed collision must raise, not degrade the identity silently
    lam = np.sqrt(3.0)
    try:
        doi_identity_residual(
            eig_hermitian(np.diag([lam, 5.0])),
            eig_hermitian(np.diag([-lam, 6.0])),
            f,
            3,
            1j,
        )
        collision_caught = False
    except AntidiagonalCollisionError:
        collision_caught = True
    ok = worst <= 1e-8 and collision_caught
    _verdict(
        4,
        ok,
        f"kernel identity on 100 pairs per (m, z) config: worst residual {worst:.3e} "
        f"(<= 1e-8), {regenerated} collisions regenerated, constructed collision "
        f"{'raised' if collision_caught else 'missed'}",
    )


def test_criterion_05_lower_bound_certificates():
    certs = [
        cofactor_lower_bound_cert(CofactorPolynomial(3, 10j), BoundedRegion(1.0)),
        cofactor_lower_bound_cert(CofactorPolynomial(5, 20j), BoundedRegion(1.0)),
        cofactor_lower_bound_cert(CofactorPolynomial(3, 0.01j), ExteriorRegion(1.0)),
    ]
    controls = [
        cofactor_lower_bound_cert(CofactorPolynomial(3, 0.01j), BoundedRegion(1.0)),
        cofactor_lower_bound_cert(CofactorPolynomial(3, 10j), ExteriorRegion(1.0)),
    ]
    bounds = [c.lower_bound for c in certs]
    ok = all(c.passed for c in certs) and all(b > 0 for b in bounds)
    ok = ok and not any(c.passed for c in controls)
    _verdict(
        5,
        ok,
        f"closed-form certificates (3,1,10), (5,1,20), unbounded exterior (3,1,0.01): "
        f"lower bounds {', '.join(f'{b:.3e}' for b in bounds)} (all > 0); "
        f"controls (3,1,0.01) bounded and (3,1,10) exterior fail",
    )


def test_criterion_06_kernel_hypotheses():
    k = resolvent_kernel(functions.bump_c2(1.0), 3, 10j, mode="factored")
    tail = np.logspace(1.0, 5.0, 160)
    axis = np.sort(np.concatenate([np.linspace(-10.0, 10.0, 401), tail, -tail]))
    rep = kernel_hypotheses_report(k, axis, axis)
    growing = kernel_hypotheses_report(
        resolvent_kernel(functions.identity(), 3, 1j, mode="factored"), axis, axis
    )
    ok = (
        rep.sup_abs_rise <= 0.0
        and rep.sup_weighted_dlambda_rise <= 0.0
        and rep.limit_mismatch <= 1e-6
        and growing.sup_abs_rise > 0.0
        and growing.sup_weighted_dlambda_rise > 0.0
    )
    _verdict(
        6,
        ok,
        f"kernel hypotheses: sup|K| = {rep.sup_abs:.3e} and "
        f"sup (1+x^2)|dK/dx| = {rep.sup_weighted_dlambda:.3e} settled inside "
        f"|x|, |y| <= 1e4 (rises {rep.sup_abs_rise:.3g}, "
        f"{rep.sup_weighted_dlambda_rise:.3g} <= 0), infinite-limit mismatch "
        f"{rep.limit_mismatch:.3e} (<= 1e-6); f(x) = x rises "
        f"{growing.sup_abs_rise:.3g}, {growing.sup_weighted_dlambda_rise:.3g} (> 0)",
    )


def test_criterion_07_lattice_expansion_and_commutator():
    worst_exp = 0.0
    worst_comm = 0.0
    for n in (32, 64):
        model = LatticeModel(d=1, n=n, h=balanced_spacing(n), mass=1.0)
        for seed in range(20):
            rng = rng_from(_SEED, 7, n, seed)
            v0 = random_bounded_potential(model, rng, bound=0.3)
            v = random_decaying_potential(model, rng, c=1.0, rho=4.0)
            rep = resolvent_power_difference(model, v0, v, 1j, 3)
            worst_exp = max(worst_exp, rep.relative_residual)
            worst_comm = max(
                worst_comm, commutator_identity_residual(model, v0, v, 1.0, 2, 1j)
            )
    ok = worst_exp <= 1e-9 and worst_comm <= 1e-10
    _verdict(
        7,
        ok,
        f"d=1, N in (32, 64), 20 seeds: expansion residual {worst_exp:.3e} (<= 1e-9), "
        f"commutator residual {worst_comm:.3e} (<= 1e-10)",
    )


def test_criterion_08_schatten_threshold():
    above = schatten_refinement_study(1, 2.0, 2, 1j, [1.5], [128, 256])
    step = abs(above.norms_by_p[1.5][-1] - above.norms_by_p[1.5][-2]) / above.norms_by_p[1.5][-1]
    model = LatticeModel(d=1, n=64, h=balanced_spacing(64), mass=1.0)
    try:
        weighted_resolvent_schatten(model, 2.0, 2, 1j, [0.5])
        p_half_rejected = False
    except ValueError:
        p_half_rejected = True
    at_threshold = schatten_refinement_study(1, 1.0, 1, 1j, [1.0], [64, 128, 256])
    ok = above.stabilized[1.5] and p_half_rejected and at_threshold.grows[1.0]
    _verdict(
        8,
        ok,
        f"(r,k)=(2,2): p=1.5 moves {100 * step:.2f}% at N=128->256 (<= 5%); p=0.5 "
        f"rejected (orders below 1 are not Schatten norms); (1,1) p=1 strictly grows "
        f"over N in (64, 128, 256)",
    )


def test_criterion_09_holder_factorization():
    model = LatticeModel(d=1, n=32, h=balanced_spacing(32), mass=1.0)
    holder_all = True
    budget = None
    for seed in range(20):
        v = random_decaying_potential(model, rng_from(_SEED, 9, seed), c=1.0, rho=4.0)
        rep = weighted_factorization_report(model, v, 2, 3, 1j)
        budget = rep.budget
        holder_all = holder_all and rep.feasible and bool(rep.holder_ok)
    v_crit = random_decaying_potential(model, rng_from(_SEED, 9, 999), c=1.0, rho=1.0)
    crit = weighted_factorization_report(model, v_crit, 2, 3, 1j)
    ok = holder_all and budget > 1.0 and not crit.feasible and crit.budget == 1.0
    _verdict(
        9,
        ok,
        f"Hoelder pairing holds on all 20 seeds with budget {budget:.3f} > 1 "
        f"(rho=4, mpow=3, d=1); rho=d gives budget {crit.budget:.3f} and is "
        f"rejected as infeasible",
    )


def test_criterion_10_band_identity():
    t0 = time.monotonic()
    base = (0.3, -0.2, 0.5, 0.1, -0.4)
    models = [
        LatticeScatteringModel.single_site(0.7),
        LatticeScatteringModel.single_site(-0.7),
        LatticeScatteringModel.centered(base),
        LatticeScatteringModel.centered(tuple(-x for x in base)),
        LatticeScatteringModel.centered((0.25, 0.5, 0.75, 0.5, 0.25)),
    ]
    worst_res = 0.0
    worst_uni = 0.0
    for model in models:
        for rec in band_sweep(model, 50):
            worst_res = max(worst_res, rec.residual)
            worst_uni = max(worst_uni, rec.unitarity)
    elapsed = time.monotonic() - t0
    ok = worst_res <= 1e-5 and worst_uni <= 1e-8 and elapsed <= 60.0
    _verdict(
        10,
        ok,
        f"det S vs determinant phase at 50 band points x 5 potentials: worst residual "
        f"{worst_res:.3e} (<= 1e-5), worst unitarity defect {worst_uni:.3e} (<= 1e-8), "
        f"{elapsed:.1f}s (<= 60s)",
    )


def test_criterion_11_deterministic_reports(tmp_path):
    out1 = tmp_path / "run1.json"
    out2 = tmp_path / "run2.json"
    rc1 = cli_main(["all", "--seed", "7", "--out", str(out1)])
    rc2 = cli_main(["all", "--seed", "7", "--out", str(out2)])
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    payload = json.loads(b1)
    ok = rc1 == 0 and rc2 == 0 and b1 == b2 and payload["aggregate_pass"] is True
    _verdict(
        11,
        ok,
        f"repeated 'all --seed 7': exit codes ({rc1}, {rc2}), payloads "
        f"{'bit-identical' if b1 == b2 else 'DIFFER'}, "
        f"{len(payload['records'])} checks all passing",
    )
