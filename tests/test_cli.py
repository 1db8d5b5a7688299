"""Tests for report serialization and the command-line entry point."""

import importlib
import json
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from ssflab import cli, dirac, suites
from ssflab.cli import main
from ssflab.reports import (
    CheckRecord,
    ExperimentReport,
    check_flag,
    check_gt,
    check_info,
    check_le,
    merge_reports,
)

# ---------------------------------------------------------------------------
# records


class TestCheckRecord:
    def test_comparisons(self):
        assert check_le("a", 1.0, 1.0).passed
        assert not check_le("a", 1.1, 1.0).passed
        assert check_gt("a", 1.1, 1.0).passed
        assert not check_gt("a", 1.0, 1.0).passed
        assert check_flag("a", True).passed
        assert check_flag("a", False, expected=False).passed
        assert not check_flag("a", True, expected=False).passed
        assert check_info("a", 42.0).passed

    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            CheckRecord("", 1.0, 1.0, "<=", True)
        with pytest.raises(ValueError, match="op"):
            CheckRecord("a", 1.0, 1.0, "<", True)
        with pytest.raises(ValueError, match="threshold"):
            CheckRecord("a", 1.0, None, "<=", True)


class TestExperimentReport:
    def _report(self, **kw):
        records = kw.pop(
            "records",
            (check_le("b", 0.0, 1.0), check_le("a", 0.0, 1.0)),
        )
        return ExperimentReport(
            subcommand=kw.pop("subcommand", "demo"),
            seed=kw.pop("seed", 0),
            config=kw.pop("config", {"x": 1}),
            records=records,
            **kw,
        )

    def test_records_sorted_and_aggregate(self):
        rep = self._report()
        assert [r.name for r in rep.records] == ["a", "b"]
        assert rep.aggregate_pass
        failing = self._report(records=(check_le("a", 2.0, 1.0),))
        assert not failing.aggregate_pass

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            self._report(
                records=(check_le("a", 0.0, 1.0), CheckRecord("a", 0.0, 0.0, ">=", True))
            )

    def test_timings_not_serialized(self):
        rep = self._report(timings={"total_s": 1.23})
        assert "timings" not in rep.to_json()
        assert "1.23" in rep.summary_text()

    def test_json_text_deterministic(self):
        a = self._report(timings={"total_s": 1.0}).json_text()
        b = self._report(timings={"total_s": 999.0}).json_text()
        assert a == b
        assert a.endswith("\n")
        json.loads(a)

    def test_json_rejects_nan(self):
        rep = self._report(records=(check_info("a", float(np.nan)),))
        with pytest.raises(ValueError):
            rep.json_text()

    def test_csv_records_mode(self):
        text = self._report().csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "# schema_version=1"
        assert lines[1] == "name,value,threshold,op,passed"
        assert len(lines) == 4

    def test_csv_single_table_mode(self):
        rows = [{"x": 1.0, "flag": True}, {"x": 2.5, "flag": False}]
        rep = self._report(tables={"sweep": rows})
        lines = rep.csv_text().strip().split("\n")
        assert lines[1] == "x,flag"
        assert lines[2] == "1.0,1"
        assert lines[3] == "2.5,0"

    def test_summary_lines(self):
        text = self._report().summary_text()
        assert text.count("PASS") == 3  # two records plus the verdict
        assert "demo: 2/2 checks" in text

    def test_merge_prefixes(self):
        part = self._report(tables={"t": [{"x": 1}]})
        merged = merge_reports("all", 7, {"left": part, "right": part})
        names = [r.name for r in merged.records]
        assert "left.a" in names and "right.b" in names
        assert set(merged.tables) == {"left.t", "right.t"}
        assert merged.config == {"left": {"x": 1}, "right": {"x": 1}}
        assert merged.seed == 7
        assert merged.aggregate_pass


# ---------------------------------------------------------------------------
# command line


def _write_config(tmp_path, payload, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


TINY_TRACE = {
    "seed": 3,
    "trace-check": {"trials": 3, "dims": [2, 3], "det_trials": 1, "det_points": 2},
}

TINY_DIRAC = {
    "seed": 7,
    "dirac-schatten": {
        "refinement_n_list": [16, 32],
        "identity_n_list": [8],
        "seeds": 2,
        "decay_n_list": [16, 32],
    },
}

TINY_DOI = {
    "doi-check": {
        "dim": 8,
        "trials": 4,
        "split_trials": 2,
        "mz_list": [{"m": 3, "z": [0.0, 2.0]}],
    }
}


class TestCliRuns:
    def test_passing_run_writes_json(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, TINY_TRACE)
        out = tmp_path / "report.json"
        rc = main(["trace-check", "--config", cfg, "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["aggregate_pass"] is True
        assert payload["subcommand"] == "trace-check"
        assert payload["seed"] == 3
        err = capsys.readouterr().err
        assert "PASS trace-check" in err

    def test_payload_to_stdout_without_out(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, TINY_TRACE)
        rc = main(["trace-check", "--config", cfg])
        assert rc == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["aggregate_pass"] is True
        assert "checks" in captured.err

    def test_seed_flag_wins_over_config(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, TINY_TRACE)
        rc = main(["trace-check", "--config", cfg, "--seed", "5"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 5

    def test_csv_format(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, TINY_TRACE)
        rc = main(["trace-check", "--config", cfg, "--format", "csv"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("# schema_version=1\n")
        assert "name,value,threshold,op,passed" in out

    def test_failing_suite_returns_one(self, tmp_path, capsys):
        # a near-real shift puts cofactor zeros inside the square, so the
        # bounded certificate cannot pass
        cfg = _write_config(
            tmp_path,
            {"rm-cert": {"bounded_certs": [[3, 1.0, 0.01]]}},
        )
        rc = main(["rm-cert", "--config", cfg])
        assert rc == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["aggregate_pass"] is False
        assert "FAIL" in captured.err

    # a single subcommand takes `jobs` from the config file only, and must
    # produce the same payload whatever its value

    def test_jobs_do_not_change_payload(self, tmp_path):
        outs = []
        for jobs in (1, 2):
            cfg = _write_config(tmp_path, {**TINY_DOI, "jobs": jobs}, f"doi_{jobs}.json")
            out = tmp_path / f"doi_{jobs}.json.out"
            assert main(["doi-check", "--config", cfg, "--seed", "7", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_jobs_do_not_change_dirac_payload(self, tmp_path):
        outs = []
        for jobs in (1, 2):
            cfg = _write_config(tmp_path, {**TINY_DIRAC, "jobs": jobs}, f"dirac_{jobs}.json")
            out = tmp_path / f"dirac_{jobs}.json.out"
            rc = main(["dirac-schatten", "--config", cfg, "--out", str(out)])
            assert rc in (0, 1)
            outs.append(out.read_bytes())
        assert json.loads(outs[0])["subcommand"] == "dirac-schatten"
        assert outs[0] == outs[1]

    def test_repeat_run_bit_identical(self, tmp_path):
        cfg = _write_config(tmp_path, TINY_TRACE)
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        main(["trace-check", "--config", cfg, "--out", str(out1)])
        main(["trace-check", "--config", cfg, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


TINY_ALL = {
    **TINY_TRACE,
    **TINY_DOI,
    **TINY_DIRAC,
    "birman-krein": {
        "band_points": 4,
        "potentials": [{"kind": "single", "value": 0.7, "site": 0}],
    },
}

_SUITE_NAMES = (
    "suite_trace_check",
    "suite_doi_check",
    "suite_rm_cert",
    "suite_dirac_schatten",
    "suite_birman_krein",
)


class TestAllScheduling:
    def test_payload_identical_for_one_and_two_jobs(self, tmp_path):
        cfg = _write_config(tmp_path, TINY_ALL)
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"all_{jobs}.json"
            rc = main(["all", "--config", cfg, "--jobs", jobs, "--out", str(out)])
            assert rc in (0, 1)
            outs.append(out.read_bytes())
        payload = json.loads(outs[0])
        assert payload["subcommand"] == "all"
        assert set(payload["config"]) == {"bk", "cert", "dirac", "doi", "trace"}
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_threads_of_suites_and_refinement_studies(self, tmp_path, monkeypatch, jobs):
        calls = []  # (what, thread ident)
        lock = threading.Lock()

        def recorded(what, fn):
            def wrapper(*args, **kwargs):
                with lock:
                    calls.append((what, threading.get_ident()))
                return fn(*args, **kwargs)

            return wrapper

        for name in _SUITE_NAMES:
            monkeypatch.setattr(suites, name, recorded(name, getattr(suites, name)))
        for name in ("resolvent_power_difference", "schatten_refinement_study"):
            monkeypatch.setattr(dirac, name, recorded(name, getattr(dirac, name)))
        cfg = _write_config(tmp_path, TINY_ALL)
        assert main(["all", "--config", cfg, "--jobs", str(jobs)]) in (0, 1)

        main_ident = threading.get_ident()
        suite_calls = [(w, t) for w, t in calls if w in _SUITE_NAMES]
        identities = [t for w, t in calls if w == "resolvent_power_difference"]
        studies = [t for w, t in calls if w == "schatten_refinement_study"]
        assert sorted(w for w, _ in suite_calls) == sorted(_SUITE_NAMES)
        assert len(identities) == 2 and len(studies) == 6
        (dirac_ident,) = [t for w, t in suite_calls if w == "suite_dirac_schatten"]
        others = {t for w, t in suite_calls if w != "suite_dirac_schatten"}
        assert others == {main_ident}
        # dirac-schatten's identity cases and studies run on its own thread
        assert set(identities) | set(studies) == {dirac_ident}
        if jobs == 1:
            assert [w for w, _ in suite_calls] == list(_SUITE_NAMES)
            assert {t for _, t in calls} == {main_ident}
        else:
            assert dirac_ident != main_ident
            assert {t for _, t in calls} == {main_ident, dirac_ident}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_elapsed_is_at_most_the_wall_of_the_call(self, tmp_path, monkeypatch, capsys, jobs):
        seen = {}

        def timed(seed, sections, jobs):
            t0 = time.perf_counter()
            seen["report"] = suites.suite_all(seed, sections, jobs)
            seen["wall"] = time.perf_counter() - t0
            return seen["report"]

        monkeypatch.setattr(cli, "suite_all", timed)
        cfg = _write_config(tmp_path, TINY_ALL)
        assert main(["all", "--config", cfg, "--jobs", str(jobs)]) in (0, 1)
        total = seen["report"].timings["total_s"]
        assert 0.0 < total <= seen["wall"]
        assert f"elapsed: {total:.2f} s" in capsys.readouterr().err

    def test_elapsed_counts_overlapping_suites_once(self, monkeypatch):
        # every suite sleeps 0.1 s; at jobs=2 dirac-schatten's sleep overlaps
        # the other four, so the parts' total_s add up to more than the wall
        parts = []
        for name in _SUITE_NAMES:
            monkeypatch.setattr(suites, name, _fake_suite(name, parts))
        t0 = time.perf_counter()
        report = suites.suite_all(0, _EMPTY_SECTIONS, 2)
        wall = time.perf_counter() - t0
        assert len(report.records) == 5
        assert report.timings["total_s"] <= wall < sum(parts)

    @pytest.mark.parametrize("also_failing", [None, "suite_rm_cert"])
    def test_worker_thread_error_is_raised(self, monkeypatch, also_failing):
        failing = {"suite_dirac_schatten", also_failing}
        for name in _SUITE_NAMES:
            monkeypatch.setattr(suites, name, _fake_suite(name, [], fail=name in failing))
        with pytest.raises(RuntimeError, match="suite_dirac_schatten failed"):
            suites.suite_all(0, _EMPTY_SECTIONS, 2)


_EMPTY_SECTIONS = dict.fromkeys(
    ("trace-check", "doi-check", "rm-cert", "dirac-schatten", "birman-krein"), {}
)


def _fake_suite(name, elapsed, fail=False):
    """A suite runner that sleeps 0.1 s, then raises or returns one record."""

    def run(seed, params):
        t0 = time.perf_counter()
        time.sleep(0.1)
        if fail:
            raise RuntimeError(f"{name} failed")
        dt = time.perf_counter() - t0
        elapsed.append(dt)
        return ExperimentReport(
            subcommand=name,
            seed=seed,
            config={},
            records=(check_info("slept", 0.1),),
            timings={"total_s": dt},
        )

    return run


class TestCliConfigErrors:
    def test_bad_value_names_field(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path, {"trace-check": {"dims": [2, -3], "trials": 1}}
        )
        rc = main(["trace-check", "--config", cfg])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "trace-check.dims[1]" in err

    def test_unknown_section(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"trace-chek": {}})
        rc = main(["trace-check", "--config", cfg])
        assert rc == 2
        assert "trace-chek" in capsys.readouterr().err

    def test_unknown_key_in_section(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"trace-check": {"trails": 5}})
        rc = main(["trace-check", "--config", cfg])
        assert rc == 2
        assert "trace-check.trails" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        rc = main(["trace-check", "--config", str(p)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["trace-check", "--config", str(tmp_path / "absent.json")])
        assert rc == 2

    def test_bad_seed_flag(self, capsys):
        rc = main(["trace-check", "--seed", "-1"])
        assert rc == 2
        assert "seed" in capsys.readouterr().err

    def test_bad_mz_entry(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path, {"doi-check": {"mz_list": [{"m": 2, "z": [0.0, 1.0]}]}}
        )
        rc = main(["doi-check", "--config", cfg])
        assert rc == 2
        assert "mz_list" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, given, field",
        [
            ("dirac-schatten", {"k": 5}, "dirac-schatten.k"),
            # exterior rows are [m, r, a] like bounded rows: a second row in
            # the old [m, r, a, lam_max] form is named
            (
                "rm-cert",
                {"exterior_certs": [[3, 1.0, 0.01], [3, 5.0, 0.01, 2.0]]},
                "rm-cert.exterior_certs[1]",
            ),
        ],
    )
    def test_inconsistent_fields_name_the_field(self, tmp_path, capsys, section, given, field):
        cfg = _write_config(tmp_path, {section: given})
        rc = main([section, "--config", cfg])
        assert rc == 2
        assert f"field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "given, field",
        [
            ({"grid_n": 501}, "rm-cert.grid_n"),
            ({"exterior_certs": [[3, 1.0, 0.01, 100.0]]}, "rm-cert.exterior_certs[0]"),
        ],
    )
    def test_legacy_grid_certificate_config_names_the_field(self, tmp_path, capsys, given, field):
        # the certificates are closed-form: no grid size, no exterior cap
        cfg = _write_config(tmp_path, {"rm-cert": given})
        assert main(["rm-cert", "--config", cfg]) == 2
        assert f"field '{field}'" in capsys.readouterr().err

    def test_jobs_belongs_to_all_only(self, tmp_path, capsys):
        # --jobs is a flag of `all` alone; the config file's `jobs` is still
        # validated for every subcommand, as each section is
        cfg = _write_config(tmp_path, {"jobs": 0})
        for name in ("trace-check", "doi-check", "rm-cert", "dirac-schatten", "birman-krein"):
            with pytest.raises(SystemExit) as exc:
                main([name, "--jobs", "2"])
            assert exc.value.code == 2
            assert "--jobs" in capsys.readouterr().err
            assert main([name, "--config", cfg]) == 2
            assert "field 'jobs'" in capsys.readouterr().err
        assert main(["all", "--config", cfg]) == 2
        assert "field 'jobs'" in capsys.readouterr().err

    def test_unknown_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main(["not-a-suite"])


def test_module_entry_point(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY_TRACE))
    proc = subprocess.run(
        [sys.executable, "-m", "ssflab.cli", "trace-check", "--config", str(cfg)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["aggregate_pass"] is True
    assert "PASS" in proc.stderr


@pytest.mark.parametrize(
    "module", ["cli", "dirac", "doi", "functions", "scattering", "spectral", "ssf", "suites"]
)
def test_public_names_resolve(module):
    # a stale __all__ entry breaks `from ssflab.<module> import *`
    mod = importlib.import_module(f"ssflab.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, missing
    exec(f"from ssflab.{module} import *", {})
