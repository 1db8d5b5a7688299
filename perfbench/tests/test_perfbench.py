"""Tests of the benchmark itself: tracer bindings, determinism, inputs, exit paths.

Run from the repository root with ``python -m pytest perfbench/tests``.  The
traced-run tests start the benchmark as a user would and take a few minutes.
"""

import inspect
import json
import shutil
import subprocess
import sys

import pytest

import workloads
from conftest import BENCH, ROOT
from ssflab import cli, dirac, doi, reports, scattering, spectral, ssf, suites
from tracer import Tracer


def test_tracer_patches_every_binding_and_restores():
    by_name = {
        (spectral, "eig_hermitian"): spectral.eig_hermitian,
        (ssf, "eig_hermitian"): spectral.eig_hermitian,
        (dirac, "eig_hermitian"): spectral.eig_hermitian,
        (suites, "eig_hermitian"): spectral.eig_hermitian,
        (doi, "singular_values"): spectral.singular_values,
        (dirac, "singular_values"): spectral.singular_values,
        (ssf, "track_determinant_phase"): ssf.track_determinant_phase,
        (scattering, "track_determinant_phase"): ssf.track_determinant_phase,
        (suites, "check_le"): reports.check_le,
        (cli, "suite_all"): suites.suite_all,
        (reports.ExperimentReport, "json_text"): reports.ExperimentReport.json_text,
    }
    modules = [m for n, m in sys.modules.items() if n == "ssflab" or n.startswith("ssflab.")]
    with Tracer() as tracer:
        for (owner, attr), original in by_name.items():
            wrapped = getattr(owner, attr)
            assert wrapped is not original, f"{owner.__name__}.{attr} not wrapped"
            assert wrapped.__wrapped__ is original
        replaced = {id(orig) for _, _, orig in tracer.patched}
        for mod in modules:
            for key, value in vars(mod).items():
                assert id(value) not in replaced, f"{mod.__name__}.{key} left unwrapped"
        patched = tracer.patched
        assert len(patched) > len(by_name)
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{attr} not restored"
    for (owner, attr), original in by_name.items():
        assert getattr(owner, attr) is original


def test_tracer_counts_calls_made_through_imported_names():
    model = scattering.LatticeScatteringModel.single_site(0.7)
    with Tracer() as tracer:
        scattering.birman_krein_point(model, 0.5)
    m = tracer.metrics(wall_s=1.0, jobs=1)
    assert m["scattering.ssf_scattering.calls"][0] == 1
    assert m["ssf.track_determinant_phase.calls"][0] == 1
    evals = m["ssf.tracker.evals"][0]
    assert evals == m["scattering.scattering_determinant.calls"][0] > 1
    assert m["dirac.calls"][0] == 0


def test_traced_and_untraced_payloads_are_identical():
    argv = workloads.prepare_all(7, 1)
    plain = workloads.run_all(argv)
    with Tracer():
        traced = workloads.run_all(argv)
    assert not plain.failures
    assert traced.digest == plain.digest


def test_zero_threshold_failure_is_counted_not_raised():
    records = [
        {"name": "tight", "op": "<=", "value": 1e-7, "threshold": 1e-6, "passed": True},
        {"name": "invariance.step_mismatches", "op": "<=", "value": 2.0,
         "threshold": 0.0, "passed": False},
        {"name": "count", "op": ">=", "value": 3.0, "threshold": 1.0, "passed": True},
    ]
    failures, headroom = workloads.check_records(records, 1)
    assert failures == ["invariance.step_mismatches: 2.0 <= 0.0 failed"]
    assert headroom == pytest.approx(1.0)
    tally = workloads._Tally()
    tally.le("zero_bound", 2.0, 0.0)
    outcome = tally.outcome()
    assert outcome.failures == ("zero_bound: 2.0 > 0.0",)
    assert outcome.headroom == float("inf")


@pytest.mark.parametrize("seed", [0, 3, 17, 123, 2024])
def test_det_route_inputs_avoid_jumps_and_pass(seed):
    jump_margin = inspect.signature(ssf.ssf_via_determinant).parameters["jump_margin"].default
    assert workloads.MIN_GAP > jump_margin
    points, models = workloads.prepare_det_route(seed)
    assert [p.d0.dim for p in points].count(64) == 3
    for p in points:
        d = spectral.eig_hermitian(p.d0.reconstruct() + p.v)
        gap = min(abs(p.d0.eigenvalues - p.lam).min(), abs(d.eigenvalues - p.lam).min())
        assert gap >= workloads.MIN_GAP
    outcome = workloads.run_det_route((points, models))
    assert outcome.failures == ()
    assert outcome.ops == 25 + len(workloads.BAND_POTENTIALS) * workloads.BAND_POINTS


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "det_route", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


#: eigh + SVD share of lattice_refinement's traced wall.  It measured 0.67-0.69
#: on a 2-vCPU x86_64 machine with 2 BLAS threads.  The rest is solves,
#: products and ord-2 norms inside `dirac`, which are not eigh/SVD calls.
DENSE_SHARE_FLOOR = 0.5

TRACED = ("all_serial", "all_parallel", "det_route", "lattice_refinement")


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced runs per workload, same seed, one pass pair each."""
    out = {}
    for name in TRACED:
        runs = []
        for _ in range(2):
            proc = _bench(ROOT, "--workload", name, "--seed", "5", "--seconds", "0", "--trace", "1")
            assert proc.returncode == 0, proc.stderr
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        out[name] = runs
    return out


@pytest.mark.parametrize("name", TRACED)
def test_traced_runs_are_correct_and_counts_repeat_exactly(traced_runs, name):
    first, second = traced_runs[name]
    assert first["correct"] and second["correct"]
    counts = [k for k, m in first["metrics"].items() if m["unit"] in ("count", "bytes")]
    assert "ssf.tracker.evals" in counts and "ssf.tracker.refinements" in counts
    for key in counts:
        assert first["metrics"][key] == second["metrics"][key], key
    assert "trace.overhead_frac" in first["metrics"]


def test_trace_separates_the_layers(traced_runs):
    for det in traced_runs["det_route"]:
        m = {k: v["value"] for k, v in det["metrics"].items()}
        assert m["trace.tracker_share"] >= 0.8
        assert m["dirac.calls"] == 0
    for lattice in traced_runs["lattice_refinement"]:
        m = {k: v["value"] for k, v in lattice["metrics"].items()}
        assert m["trace.dense_share"] >= DENSE_SHARE_FLOOR
        assert m["ssf.track_determinant_phase.calls"] == 0
