"""Seeded verification suites behind the command-line subcommands.

Every suite takes a seed and a validated parameter dict, and returns an
:class:`~ssflab.reports.ExperimentReport`.  All randomness derives from
``(seed, suite tag, trial index)`` streams, so reports are deterministic for
fixed configuration.

Threads only pay for work that releases the GIL, and ssflab uses them at one
level: with ``jobs >= 2``, :func:`suite_all` runs dirac-schatten (dense
LAPACK work) on one worker thread while the calling thread runs the other
four suites, whose trials are pure-Python work that holds the GIL.  Nothing
else starts a thread.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import time

import numpy as np

from . import dirac, doi, functions, scattering, ssf
from .reports import (
    ExperimentReport,
    check_flag,
    check_gt,
    check_info,
    check_le,
    merge_reports,
)
from .spectral import eig_hermitian
from .utils import random_hermitian, rng_from

__all__ = [
    "SUITE_RUNNERS",
    "suite_all",
    "suite_birman_krein",
    "suite_dirac_schatten",
    "suite_doi_check",
    "suite_rm_cert",
    "suite_trace_check",
]

_TRACE_TAG = 11
_DOI_TAG = 12
_CERT_TAG = 13
_DIRAC_TAG = 14
_BK_TAG = 15


def _random_pair(rng, dim: int, scale: float):
    a0 = random_hermitian(rng, dim)
    v = scale * random_hermitian(rng, dim)
    return eig_hermitian(a0), eig_hermitian(a0 + v), v


def _function_families(rng) -> list:
    """Five scalar test families with randomized parameters."""
    cubic = functions.polynomial(rng.uniform(-1.0, 1.0, size=4))
    bump = functions.gaussian_bump(
        center=float(rng.uniform(-1.0, 1.0)),
        width=float(rng.uniform(0.5, 1.5)),
        height=float(rng.uniform(0.5, 2.0)),
    )
    lorentz = functions.squared_lorentzian()
    resolvent = functions.resolvent_function(
        complex(rng.uniform(-1.0, 1.0), rng.uniform(1.0, 2.0)), 1, part="re"
    )
    compact = functions.bump_c2(float(rng.uniform(1.0, 3.0)))
    return [cubic, bump, lorentz, resolvent, compact]


# ---------------------------------------------------------------------------
# trace-check


def suite_trace_check(seed: int, params: dict) -> ExperimentReport:
    t0 = time.perf_counter()
    dims = params["dims"]
    trials = params["trials"]
    det_trials = params["det_trials"]
    det_points = params["det_points"]
    maps = {m: ssf.PowerChangeOfVariable(m, 1.0) for m in (3, 5)}

    def one_trial(idx: int):
        rng = rng_from(seed, _TRACE_TAG, idx)
        dim = int(dims[idx % len(dims)])
        d0, d, _ = _random_pair(rng, dim, 0.4)
        worst = 0.0
        for f in _function_families(rng):
            lhs, rhs = ssf.trace_formula_sides(d0, d, f)
            scale_ref = max(abs(lhs), abs(rhs), 1.0)
            worst = max(worst, abs(lhs - rhs) / scale_ref)
        counting = ssf.ssf_counting(d0, d)
        mismatches = 0
        for m in (3, 5):
            got = ssf.ssf_via_invariance(d0, d, maps[m])
            if not ssf.steps_equal(counting, got, bp_tol=1e-9):
                mismatches += 1
        return worst, mismatches

    results = [one_trial(idx) for idx in range(trials)]
    worst_trace = max(r[0] for r in results)
    total_mismatch = sum(r[1] for r in results)

    def one_det_trial(idx: int):
        rng = rng_from(seed, _TRACE_TAG, 10_000 + idx)
        d0, d, v = _random_pair(rng, 8, 0.4)
        counting = ssf.ssf_counting(d0, d)
        bps = counting.breakpoints
        lo = bps[0] - 1.0
        hi = bps[-1] + 1.0
        candidates = np.concatenate(
            [[lo, hi], 0.5 * (bps[:-1] + bps[1:]), bps[:-1] + 0.75 * np.diff(bps)]
        )
        worst = 0.0
        used = 0
        for lam in candidates:
            if used >= det_points:
                break
            gap = np.abs(
                np.concatenate([d0.eigenvalues, d.eigenvalues]) - lam
            ).min()
            if gap < 1e-3:
                continue
            xi = ssf.ssf_via_determinant(d0, v, float(lam))
            worst = max(worst, abs(xi - counting(float(lam))))
            used += 1
        return worst

    det_results = [one_det_trial(idx) for idx in range(det_trials)]
    records = (
        check_le("trace_formula.max_relative_residual", worst_trace, 1e-10),
        check_le("invariance.step_mismatches", float(total_mismatch), 0.0),
        check_le("determinant.max_counting_deviation", max(det_results), 1e-6),
    )
    config = dict(params)
    return ExperimentReport(
        subcommand="trace-check",
        seed=seed,
        config=config,
        records=records,
        timings={"total_s": time.perf_counter() - t0},
    )


# ---------------------------------------------------------------------------
# doi-check


def suite_doi_check(seed: int, params: dict) -> ExperimentReport:
    t0 = time.perf_counter()
    dim = params["dim"]
    trials = params["trials"]
    split_trials = params["split_trials"]
    configs = [(int(c["m"]), complex(c["z"][0], c["z"][1])) for c in params["mz_list"]]

    records = []
    for m, z in configs:
        tag = f"m{m}"

        def one_trial(idx: int, m=m, z=z):
            regenerations = 0
            for attempt in range(50):
                rng = rng_from(seed, _DOI_TAG, m, idx, attempt)
                d0, d, _ = _random_pair(rng, dim, 0.3)
                f = functions.gaussian_bump(
                    center=float(rng.uniform(-0.5, 0.5)),
                    width=float(rng.uniform(0.8, 1.5)),
                )
                try:
                    return doi.doi_identity_residual(d0, d, f, m, z), regenerations
                except doi.AntidiagonalCollisionError:
                    regenerations += 1
            raise RuntimeError("exhausted regeneration attempts for a DOI pair")

        results = [one_trial(idx) for idx in range(trials)]
        records.append(
            check_le(
                f"identity.{tag}.max_residual", max(r[0] for r in results), 1e-8
            )
        )
        records.append(
            check_info(
                f"identity.{tag}.collision_regenerations",
                float(sum(r[1] for r in results)),
            )
        )

    # direct vs factored agreement away from the coincidence band
    rng = rng_from(seed, _DOI_TAG, 999)
    f = functions.gaussian_bump(0.1, 1.0, 1.0)
    kd = doi.resolvent_kernel(f, 3, 2j, mode="direct")
    kf = doi.resolvent_kernel(f, 3, 2j, mode="factored")
    lam = rng.uniform(-5.0, 5.0, size=400)
    mu = rng.uniform(-5.0, 5.0, size=400)
    keep = np.abs(lam - mu) > 2e-5 * (1.0 + np.abs(lam))
    vd = doi.kernel_eval(kd, lam[keep], mu[keep])
    vf = doi.kernel_eval(kf, lam[keep], mu[keep])
    agree = float((np.abs(vd - vf) / np.maximum(np.abs(vd), 1e-30)).max())
    records.append(check_le("kernel.direct_vs_factored_rel", agree, 1e-9))

    def one_split(idx: int):
        rng = rng_from(seed, _DOI_TAG, 5000 + idx)
        d0, d, _ = _random_pair(rng, 10, 0.3)
        return doi.resolvent_cutoff_split(d0, d, 3, 1.0).residual

    split_results = [one_split(idx) for idx in range(split_trials)]
    records.append(check_le("cutoff_split.max_residual", max(split_results), 1e-10))

    return ExperimentReport(
        subcommand="doi-check",
        seed=seed,
        config=dict(params),
        records=tuple(records),
        timings={"total_s": time.perf_counter() - t0},
    )


# ---------------------------------------------------------------------------
# rm-cert


def _hypotheses_grid(inner: float, outer: float, n_inner: int, n_tail: int):
    pos = np.geomspace(inner, outer, n_tail + 1)[1:]
    return np.concatenate([-pos[::-1], np.linspace(-inner, inner, n_inner), pos])


def suite_rm_cert(seed: int, params: dict) -> ExperimentReport:
    t0 = time.perf_counter()
    records = []

    for kind, region_type in (("bounded", doi.BoundedRegion), ("exterior", doi.ExteriorRegion)):
        for m, r, a in params[f"{kind}_certs"]:
            p = doi.CofactorPolynomial(int(m), complex(0.0, a))
            cert = doi.cofactor_lower_bound_cert(p, region_type(r))
            records.append(
                check_gt(f"{kind}.m{int(m)}_r{r:g}_a{a:g}.lower_bound", cert.lower_bound, 0.0)
            )

    # violated largeness/smallness conditions must visibly fail
    ctrl_b = doi.cofactor_lower_bound_cert(
        doi.CofactorPolynomial(3, 0.01j), doi.BoundedRegion(1.0)
    )
    records.append(check_flag("control.bounded_small_a_fails", ctrl_b.passed, False))
    ctrl_e = doi.cofactor_lower_bound_cert(
        doi.CofactorPolynomial(3, 10.0j), doi.ExteriorRegion(1.0)
    )
    records.append(check_flag("control.exterior_large_a_fails", ctrl_e.passed, False))

    axis = _hypotheses_grid(3.0, params["grid_edge"], 401, 160)
    compact = doi.resolvent_kernel(
        functions.bump_c2(1.0), 3, 10.0j, mode="factored"
    )
    tail = doi.resolvent_kernel(
        functions.product(
            functions.smoothstep_cutoff(1.0), functions.power_shift_inverse(3)
        ),
        3,
        0.01j,
        mode="factored",
    )
    for name, kernel in (("compact_support", compact), ("tail_power", tail)):
        rep = doi.kernel_hypotheses_report(kernel, axis, axis)
        records.append(check_le(f"hypotheses.{name}.sup_abs_settled", rep.sup_abs_rise, 0.0))
        records.append(
            check_le(
                f"hypotheses.{name}.weighted_dlambda_settled",
                rep.sup_weighted_dlambda_rise,
                0.0,
            )
        )
        records.append(
            check_le(f"hypotheses.{name}.limit_mismatch", rep.limit_mismatch, 1e-6)
        )
        records.append(
            check_info(f"hypotheses.{name}.dlambda_tail_exponent", rep.dlambda_tail_exponent)
        )
    # f(x) = x gives K = -(x - z)^3 (y - z)^3 / p, unbounded: both sups must
    # keep rising through the outer decade
    growing = doi.resolvent_kernel(functions.identity(), 3, 1j, mode="factored")
    rep = doi.kernel_hypotheses_report(growing, axis, axis)
    either_settles = rep.sup_abs_rise <= 0.0 or rep.sup_weighted_dlambda_rise <= 0.0
    records.append(
        check_flag("control.hypotheses_growing_kernel_fails", either_settles, False)
    )

    return ExperimentReport(
        subcommand="rm-cert",
        seed=seed,
        config=dict(params),
        records=tuple(records),
        timings={"total_s": time.perf_counter() - t0},
    )


# ---------------------------------------------------------------------------
# dirac-schatten


def suite_dirac_schatten(seed: int, params: dict) -> ExperimentReport:
    t0 = time.perf_counter()
    z = complex(params["z"][0], params["z"][1])
    mass = params["mass"]
    mpow = params["mpow"]
    records = []

    def one_identity(n: int, idx: int):
        rng = rng_from(seed, _DIRAC_TAG, n, idx)
        model = dirac.LatticeModel(d=1, n=n, h=dirac.balanced_spacing(n), mass=mass)
        v0 = dirac.random_bounded_potential(model, rng, params["v0_bound"])
        v = dirac.random_decaying_potential(model, rng, params["decay_c"], params["rho"])
        rep = dirac.resolvent_power_difference(model, v0, v, z, mpow)
        comm = dirac.commutator_identity_residual(
            model, v0, v, params["r"], params["k"], z
        )
        return rep.relative_residual, comm

    cases = [(n, i) for n in params["identity_n_list"] for i in range(params["seeds"])]
    results = [one_identity(n, i) for n, i in cases]
    records.append(
        check_le(
            "identity.power_expansion.max_rel",
            max(r[0] for r in results),
            1e-9,
        )
    )
    records.append(
        check_le(
            "identity.weight_commutator.max_rel",
            max(r[1] for r in results),
            1e-10,
        )
    )

    # six refinement studies as (r, k, p_list, h): r=2,k=2 and r=1,k=1 at
    # balanced spacing, then the threshold law across (r, k) pairs at fixed
    # spacing (volume refinement), each with the p that must stabilize first
    n_list = params["refinement_n_list"]
    specs = [(2.0, 2, [1.5], None), (1.0, 1, [1.0], None)]
    for r_law, k_law in ((1.0, 1), (2.0, 1), (1.0, 2), (2.0, 3)):
        p_star = 1.0 / min(r_law, float(k_law))
        p_stab = max(1.0, 1.25 * p_star)
        p_list = [p_stab] + ([p_star] if p_star >= 1.0 and p_star != p_stab else [])
        specs.append((r_law, k_law, p_list, params["law_h"]))

    study_22, study_11, *law_studies = [
        dirac.schatten_refinement_study(1, r_s, k_s, z, p_list, n_list, mass=mass, h=h)
        for r_s, k_s, p_list, h in specs
    ]
    records.append(
        check_flag("threshold.r2k2.p1_5_stabilizes", study_22.stabilized[1.5])
    )
    records.append(check_flag("threshold.r1k1.p1_grows", study_11.grows[1.0]))
    for (r_law, k_law, (p_stab, *p_grow), _), study in zip(specs[2:], law_studies):
        tag = f"law.r{r_law:g}k{k_law}"
        records.append(check_flag(f"{tag}.p{p_stab:g}_stabilizes", study.stabilized[p_stab]))
        for p in p_grow:
            records.append(check_flag(f"{tag}.p{p:g}_grows", study.grows[p]))

    n_fact = params["factorization_n"]
    model = dirac.LatticeModel(d=1, n=n_fact, h=dirac.balanced_spacing(n_fact), mass=mass)
    rng = rng_from(seed, _DIRAC_TAG, 777)
    v4 = dirac.random_decaying_potential(model, rng, params["decay_c"], params["rho"])
    rep4 = dirac.weighted_factorization_report(model, v4, params["k"], mpow, z)
    records.append(check_flag("factorization.rho4.feasible", rep4.feasible))
    records.append(check_flag("factorization.rho4.holder_ok", bool(rep4.holder_ok)))
    records.append(
        check_le(
            "factorization.rho4.residual_rel",
            rep4.factorization_residual / max(rep4.direct_trace_norm, 1e-30),
            1e-9,
        )
    )
    v1 = dirac.random_decaying_potential(model, rng, params["decay_c"], 1.0)
    rep1 = dirac.weighted_factorization_report(model, v1, params["k"], mpow, z)
    records.append(check_flag("factorization.rho_eq_d.infeasible", rep1.feasible, False))

    sups, stable = dirac.commutator_decay_study(
        1, params["r"], params["decay_n_list"], mass=mass
    )
    records.append(check_flag("commutator_decay.sup_stable", stable))
    records.append(check_info("commutator_decay.sup_constant", sups[-1]))

    return ExperimentReport(
        subcommand="dirac-schatten",
        seed=seed,
        config=dict(params),
        records=tuple(records),
        timings={"total_s": time.perf_counter() - t0},
    )


# ---------------------------------------------------------------------------
# birman-krein


def _build_potential(spec: dict) -> scattering.LatticeScatteringModel:
    if spec["kind"] == "single":
        return scattering.LatticeScatteringModel.single_site(
            spec["value"], spec.get("site", 0)
        )
    return scattering.LatticeScatteringModel.centered(spec["values"])


def suite_birman_krein(seed: int, params: dict) -> ExperimentReport:
    t0 = time.perf_counter()
    eps_schedule = params["eps_schedule"]
    models = [_build_potential(s) for s in params["potentials"]]

    rows = []
    worst_residual = 0.0
    worst_unitarity = 0.0
    for idx, model in enumerate(models):
        recs = scattering.band_sweep(
            model, params["band_points"], params["band_margin"], eps_schedule
        )
        for rec in recs:
            worst_residual = max(worst_residual, rec.residual)
            worst_unitarity = max(worst_unitarity, rec.unitarity)
            rows.append(
                {
                    "potential": idx,
                    "lam": rec.lam,
                    "det_re": rec.det_s.real,
                    "det_im": rec.det_s.imag,
                    "xi": rec.xi,
                    "residual": rec.residual,
                }
            )

    records = [
        check_le("band.max_residual", worst_residual, 1e-5),
        check_le("band.max_unitarity_defect", worst_unitarity, 1e-8),
    ]

    attractive = scattering.LatticeScatteringModel.single_site(-1.5)
    for lam in (-2.25, -2.75):
        xi = scattering.ssf_scattering(attractive, lam, eps_schedule)
        count = scattering.bound_state_count_below(attractive, lam, l_trunc=2000)
        records.append(
            check_le(
                f"below_band.lam{lam:g}.count_deviation",
                abs(xi + count),
                1e-6,
            )
        )

    return ExperimentReport(
        subcommand="birman-krein",
        seed=seed,
        config=dict(params),
        records=tuple(records),
        tables={"band_sweep": rows},
        timings={"total_s": time.perf_counter() - t0},
    )


# ---------------------------------------------------------------------------


def suite_all(seed: int, all_params: dict, jobs: int = 1) -> ExperimentReport:
    """Every suite, merged in fixed order; ``total_s`` is the wall of the call.

    With ``jobs >= 2`` dirac-schatten runs on one worker thread beside the
    other four on the calling thread.  rm-cert stays on the calling thread:
    on a pool thread its kernel grids land in another malloc arena and raise
    the peak RSS.  The runners are read by their module-level names, not
    from :data:`SUITE_RUNNERS`, so a wrapper set on the module sees each call.
    """
    t0 = time.perf_counter()

    def run(runner, name):
        return runner(seed, all_params[name])

    if jobs <= 1:
        parts = {
            "trace": run(suite_trace_check, "trace-check"),
            "doi": run(suite_doi_check, "doi-check"),
            "cert": run(suite_rm_cert, "rm-cert"),
            "dirac": run(suite_dirac_schatten, "dirac-schatten"),
            "bk": run(suite_birman_krein, "birman-krein"),
        }
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as ex:
            dirac_part = ex.submit(run, suite_dirac_schatten, "dirac-schatten")
            try:
                parts = {
                    "trace": run(suite_trace_check, "trace-check"),
                    "doi": run(suite_doi_check, "doi-check"),
                    "cert": run(suite_rm_cert, "rm-cert"),
                    "bk": run(suite_birman_krein, "birman-krein"),
                }
            finally:
                # read the result even when a suite above raised, so an
                # error on the worker thread is never dropped
                dirac = dirac_part.result()
            parts["dirac"] = dirac
    merged = merge_reports("all", seed, parts)
    return dataclasses.replace(merged, timings={"total_s": time.perf_counter() - t0})


SUITE_RUNNERS = {
    "trace-check": suite_trace_check,
    "doi-check": suite_doi_check,
    "rm-cert": suite_rm_cert,
    "dirac-schatten": suite_dirac_schatten,
    "birman-krein": suite_birman_krein,
}
