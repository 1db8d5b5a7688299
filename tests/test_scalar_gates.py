"""The scalar-argument gates: every gated public parameter, fed bad values.

Each rejection is a ``ValueError`` whose message reads ``<name> must be
<rule>, got <name>=<value>``.  A bool is never read as 0 or 1.
"""

import re

import numpy as np
import pytest

from ssflab import dirac, doi, functions, scattering, spectral, ssf
from ssflab.utils import rng_from

from helpers import zero_potential

NAN, INF = float("nan"), float("inf")
# an integer past the float range: float() of it overflows
HUGE = 10**400
# integers also refuse a non-integral number; a finite real takes 0 and -1
INTEGER = (True, NAN, INF, 0, -1, 2.5)
POSITIVE = (True, NAN, INF, 0, -1, HUGE)
FINITE = (True, NAN, INF, -INF, HUGE)
NONNEGATIVE = (True, NAN, INF, -INF, -1.0, HUGE)
SCHATTEN = (True, NAN, 0, -1, 0.5, HUGE)

MODEL = dirac.LatticeModel(d=1, n=4, h=1.0, mass=1.0)
V0 = zero_potential(MODEL)
DECAYING = dirac.random_decaying_potential(MODEL, rng_from(5), 1.0, 4.0)
D = spectral.eig_hermitian(np.diag([0.0, 1.0]))
PERTURBATION = np.diag([0.5, 0.0])
BAND = scattering.LatticeScatteringModel.single_site(0.5)
BELOW = scattering.LatticeScatteringModel.single_site(-1.5)
CERT_POLY = doi.CofactorPolynomial(3, 1j)
XI = ssf.StepFunction([0.0, 1.0], [0, 1, 0])
NEXT_MARGIN = float(np.nextafter(scattering.BAND_EDGE_MARGIN, 1.0))


def _lattice(**field):
    return dirac.LatticeModel(**{"d": 1, "n": 4, "h": 1.0, "mass": 1.0, **field})


def _decay(**field):
    s = MODEL.spinor_dim
    mats = np.zeros((MODEL.n_sites, s, s), dtype=complex)
    return dirac.MatrixPotential(MODEL, mats, **{"decay_c": 1.0, "decay_rho": 2.0, **field})


# (module.function parameter, parameter name in the message, call, bad values)
GATED = [
    ("spectral.resolvent_power.k", "k", lambda x: spectral.resolvent_power(D, 1j, x), INTEGER),
    (
        "spectral.schatten_norm.p",
        "p",
        lambda x: spectral.schatten_norm(spectral.singular_values(np.eye(2)), x),
        SCHATTEN,
    ),
    ("dirac.LatticeModel.d", "d", lambda x: _lattice(d=x), INTEGER + (4,)),
    ("dirac.LatticeModel.n", "n", lambda x: _lattice(n=x), INTEGER + (5,)),
    ("dirac.LatticeModel.h", "h", lambda x: _lattice(h=x), POSITIVE),
    ("dirac.LatticeModel.mass", "mass", lambda x: _lattice(mass=x), POSITIVE),
    ("dirac.MatrixPotential.decay_c", "decay_c", lambda x: _decay(decay_c=x), POSITIVE),
    ("dirac.MatrixPotential.decay_rho", "decay_rho", lambda x: _decay(decay_rho=x), POSITIVE),
    (
        "dirac.weighted_resolvent_schatten.r",
        "r",
        lambda x: dirac.weighted_resolvent_schatten(MODEL, x, 1, 1j, [2.0]),
        POSITIVE,
    ),
    (
        "dirac.weighted_resolvent_schatten.p_list",
        "p",
        lambda x: dirac.weighted_resolvent_schatten(MODEL, 1.0, 1, 1j, [2.0, x]),
        SCHATTEN,
    ),
    (
        "dirac.schatten_refinement_study.h",
        "h",
        lambda x: dirac.schatten_refinement_study(1, 1.0, 1, 1j, [2.0], [4, 8], h=x),
        POSITIVE,
    ),
    (
        "dirac.resolvent_power_difference.mpow",
        "mpow",
        lambda x: dirac.resolvent_power_difference(MODEL, V0, V0, 1j, x),
        INTEGER + (2,),
    ),
    (
        "dirac.weighted_factorization_report.k",
        "k",
        lambda x: dirac.weighted_factorization_report(MODEL, DECAYING, x, 3, 1j),
        INTEGER + (4,),
    ),
    (
        "dirac.commutator_identity_residual.k",
        "k",
        lambda x: dirac.commutator_identity_residual(MODEL, V0, V0, 1.0, x, 1j),
        tuple(v for v in INTEGER if v != 0),
    ),
    (
        "dirac.commutator_identity_residual.r",
        "r",
        lambda x: dirac.commutator_identity_residual(MODEL, V0, V0, x, 1, 1j),
        POSITIVE,
    ),
    (
        "dirac.random_bounded_potential.bound",
        "bound",
        lambda x: dirac.random_bounded_potential(MODEL, rng_from(1), x),
        POSITIVE,
    ),
    (
        "dirac.random_decaying_potential.c",
        "c",
        lambda x: dirac.random_decaying_potential(MODEL, rng_from(1), x, 4.0),
        POSITIVE,
    ),
    (
        "dirac.random_decaying_potential.rho",
        "rho",
        lambda x: dirac.random_decaying_potential(MODEL, rng_from(1), 1.0, x),
        POSITIVE,
    ),
    (
        "ssf.ssf_via_invariance.powers",
        "powers[1]",
        lambda x: ssf.ssf_via_invariance(np.eye(2), np.eye(2), [1, x]),
        INTEGER + (2,),
    ),
    (
        "ssf.compare_at_resolved_points.radius",
        "radius",
        lambda x: ssf.compare_at_resolved_points(XI, XI, x),
        NONNEGATIVE,
    ),
    (
        "ssf.ssf_via_determinant.lam",
        "lam",
        lambda x: ssf.ssf_via_determinant(D, PERTURBATION, x),
        FINITE,
    ),
    (
        "ssf.ssf_via_determinant.jump_margin",
        "jump_margin",
        lambda x: ssf.ssf_via_determinant(D, PERTURBATION, 0.25, jump_margin=x),
        POSITIVE,
    ),
    ("doi.CofactorPolynomial.m", "m", lambda x: doi.CofactorPolynomial(x, 1j), INTEGER + (2,)),
    (
        "doi.BoundedRegion.r",
        "r",
        lambda x: doi.cofactor_lower_bound_cert(CERT_POLY, doi.BoundedRegion(x)),
        POSITIVE,
    ),
    (
        "doi.ExteriorRegion.r",
        "r",
        lambda x: doi.cofactor_lower_bound_cert(CERT_POLY, doi.ExteriorRegion(x)),
        POSITIVE,
    ),
    ("functions.smoothstep_cutoff.r", "r", functions.smoothstep_cutoff, POSITIVE),
    ("functions.bump_c2.r", "r", functions.bump_c2, POSITIVE),
    (
        "functions.gaussian_bump.width",
        "width",
        lambda x: functions.gaussian_bump(width=x),
        POSITIVE,
    ),
    ("functions.gaussian_bump.center", "center", lambda x: functions.gaussian_bump(x), FINITE),
    (
        "functions.gaussian_bump.height",
        "height",
        lambda x: functions.gaussian_bump(height=x),
        FINITE,
    ),
    ("functions.power_shift_inverse.m", "m", functions.power_shift_inverse, INTEGER),
    (
        "functions.resolvent_function.m",
        "m",
        lambda x: functions.resolvent_function(1j, x),
        INTEGER,
    ),
    (
        "scattering.band_sweep.n_points",
        "n_points",
        lambda x: scattering.band_sweep(BAND, x),
        INTEGER,
    ),
    (
        "scattering.band_sweep.margin",
        "margin",
        lambda x: scattering.band_sweep(BAND, 3, margin=x),
        # one rounding step above the band-edge guard leaves the same grid end
        (True, NAN, INF, scattering.BAND_EDGE_MARGIN, NEXT_MARGIN, 2.0),
    ),
    (
        "scattering.LatticeScatteringModel.sites",
        "sites[0]",
        lambda x: scattering.LatticeScatteringModel.single_site(0.5, x),
        # any integer below 2**62 in magnitude is a site, so every distance
        # between two sites fits an int64: an integral float is not
        tuple(v for v in INTEGER if v not in (0, -1)) + (3.0, 10**30, 2**62, -(2**62)),
    ),
    (
        "scattering.LatticeScatteringModel.values",
        "values[0]",
        scattering.LatticeScatteringModel.single_site,
        # a value past the strength rule used to crash the scattering route
        FINITE + (1e307, -1e307),
    ),
    (
        "scattering.LatticeScatteringModel.centered.values",
        "values[1]",
        lambda x: scattering.LatticeScatteringModel.centered([0.5, x, 0.5]),
        FINITE + (1e307,),
    ),
    ("scattering.s_matrix.lam", "lam", lambda x: scattering.s_matrix(BAND, x), FINITE),
    ("scattering.ssf_scattering.lam", "lam", lambda x: scattering.ssf_scattering(BAND, x), FINITE),
    (
        "scattering.bound_state_count_below.lam",
        "lam",
        lambda x: scattering.bound_state_count_below(BELOW, x),
        FINITE,
    ),
]

CASES = [
    pytest.param(name, call, value, id=f"{label}={'10**400' if value is HUGE else repr(value)}")
    for label, name, call, bad in GATED
    for value in bad
]


@pytest.mark.parametrize("name, call, value", CASES)
def test_gate_rejects_and_names_the_parameter(name, call, value):
    # the message names the parameter, then the value exactly as given
    match = re.escape(f"{name} must be ") + ".*" + re.escape(f", got {name}={value!r}")
    with pytest.raises(ValueError, match=match):
        call(value)
