"""Command-line entry point.

Subcommands map one-to-one onto the verification suites.  Configuration
merges three layers: built-in defaults, an optional JSON config file, and
command-line flags (flags win).  Exit status is 0 when every check passed,
1 when any check failed, and 2 for configuration errors; validation
messages always name the offending field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial

from .suites import _DET_POINTS_MAX, _HYPOTHESES_EDGE_MAX, SUITE_RUNNERS, ConfigError, suite_all

__all__ = ["main"]


# ---------------------------------------------------------------------------
# per-field validators


def _expect_int(field, value, low=None, high=None, even=False, odd=False):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(field, f"expected an integer, got {value!r}")
    if low is not None and value < low:
        raise ConfigError(field, f"expected an integer >= {low}, got {value}")
    if high is not None and value > high:
        raise ConfigError(field, f"expected an integer <= {high}, got {value}")
    if even and value % 2 != 0:
        raise ConfigError(field, f"expected an even integer, got {value}")
    if odd and value % 2 != 1:
        raise ConfigError(field, f"expected an odd integer, got {value}")
    return value


def _expect_real(field, value, low=None, low_open=None, high=None, high_open=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(field, f"expected a number, got {value!r}")
    value = float(value)
    if value != value or value in (float("inf"), float("-inf")):
        raise ConfigError(field, "expected a finite number")
    if low is not None and value < low:
        raise ConfigError(field, f"expected a number >= {low}, got {value}")
    if low_open is not None and value <= low_open:
        raise ConfigError(field, f"expected a number > {low_open}, got {value}")
    if high is not None and value > high:
        raise ConfigError(field, f"expected a number <= {high:.4g}, got {value}")
    if high_open is not None and value >= high_open:
        raise ConfigError(field, f"expected a number < {high_open}, got {value}")
    return value


def _expect_list(field, value, min_len=1):
    if not isinstance(value, (list, tuple)):
        raise ConfigError(field, f"expected a list, got {value!r}")
    if len(value) < min_len:
        raise ConfigError(field, f"expected at least {min_len} entries")
    return list(value)


def _int_list(low=None, even=False, min_len=1):
    def check(field, value):
        out = _expect_list(field, value, min_len)
        return [
            _expect_int(f"{field}[{i}]", v, low=low, even=even)
            for i, v in enumerate(out)
        ]

    return check


def _complex_pair(field, value):
    out = _expect_list(field, value, 2)
    if len(out) != 2:
        raise ConfigError(field, "expected a [real, imag] pair")
    re = _expect_real(f"{field}[0]", out[0])
    im = _expect_real(f"{field}[1]", out[1])
    if im == 0.0:
        raise ConfigError(f"{field}[1]", "imaginary part must be nonzero")
    return [re, im]


def _mz_list(field, value):
    out = _expect_list(field, value)
    parsed = []
    for i, entry in enumerate(out):
        if not isinstance(entry, dict):
            raise ConfigError(f"{field}[{i}]", "expected an object with 'm' and 'z'")
        extra = set(entry) - {"m", "z"}
        if extra:
            raise ConfigError(f"{field}[{i}]", f"unknown key {sorted(extra)[0]!r}")
        m = _expect_int(f"{field}[{i}].m", entry.get("m"), low=1, odd=True)
        z = _complex_pair(f"{field}[{i}].z", entry.get("z"))
        parsed.append({"m": m, "z": z})
    return parsed


# each certificate row is [m, r, a]
_CERT_ARITY = 3


def _cert_list(field, value):
    out = _expect_list(field, value)
    parsed = []
    for i, entry in enumerate(out):
        row = _expect_list(f"{field}[{i}]", entry, _CERT_ARITY)
        if len(row) != _CERT_ARITY:
            raise ConfigError(f"{field}[{i}]", f"expected {_CERT_ARITY} entries")
        m = _expect_int(f"{field}[{i}][0]", row[0], low=1, odd=True)
        rest = [
            _expect_real(f"{field}[{i}][{j}]", row[j], low_open=0.0)
            for j in range(1, _CERT_ARITY)
        ]
        parsed.append([m] + rest)
    return parsed


def _potential_list(field, value):
    out = _expect_list(field, value)
    parsed = []
    for i, entry in enumerate(out):
        here = f"{field}[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(here, "expected an object with a 'kind' key")
        kind = entry.get("kind")
        if kind == "single":
            extra = set(entry) - {"kind", "value", "site"}
            if extra:
                raise ConfigError(here, f"unknown key {sorted(extra)[0]!r}")
            val = _expect_real(f"{here}.value", entry.get("value"))
            if val == 0.0:
                raise ConfigError(f"{here}.value", "potential must be nonzero")
            site = _expect_int(f"{here}.site", entry.get("site", 0))
            parsed.append({"kind": "single", "value": val, "site": site})
        elif kind == "centered":
            extra = set(entry) - {"kind", "values"}
            if extra:
                raise ConfigError(here, f"unknown key {sorted(extra)[0]!r}")
            vals = _expect_list(f"{here}.values", entry.get("values"))
            vals = [
                _expect_real(f"{here}.values[{j}]", v) for j, v in enumerate(vals)
            ]
            parsed.append({"kind": "centered", "values": vals})
        else:
            raise ConfigError(f"{here}.kind", "expected 'single' or 'centered'")
    return parsed


# ---------------------------------------------------------------------------
# schema: defaults plus validators, per subcommand


_SCHEMA = {
    "trace-check": {
        "dims": ([2, 3, 4, 6, 8, 12, 16], _int_list(low=2)),
        "trials": (100, partial(_expect_int, low=1)),
        "det_trials": (10, partial(_expect_int, low=1)),
        "det_points": (8, partial(_expect_int, low=1, high=_DET_POINTS_MAX)),
    },
    "doi-check": {
        "dim": (12, partial(_expect_int, low=2)),
        "trials": (50, partial(_expect_int, low=1)),
        "split_trials": (10, partial(_expect_int, low=1)),
        "mz_list": (
            [{"m": 3, "z": [0.0, 2.0]}, {"m": 5, "z": [0.0, 3.0]}],
            _mz_list,
        ),
    },
    "rm-cert": {
        "grid_edge": (1e5, partial(_expect_real, low=1e3, high=_HYPOTHESES_EDGE_MAX)),
        "bounded_certs": (
            [[3, 1.0, 10.0], [3, 5.0, 50.0], [5, 1.0, 20.0]],
            _cert_list,
        ),
        "exterior_certs": ([[3, 1.0, 0.01]], _cert_list),
    },
    "dirac-schatten": {
        "identity_n_list": ([32, 64], _int_list(low=2, even=True)),
        "seeds": (5, partial(_expect_int, low=1)),
        "z": ([0.0, 1.0], _complex_pair),
        "mass": (1.0, partial(_expect_real, low_open=0.0)),
        "mpow": (3, partial(_expect_int, low=1, odd=True)),
        "k": (2, partial(_expect_int, low=1)),
        "r": (1.0, partial(_expect_real, low_open=0.0)),
        "decay_c": (1.0, partial(_expect_real, low_open=0.0)),
        "rho": (4.0, partial(_expect_real, low_open=0.0)),
        "v0_bound": (0.3, partial(_expect_real, low_open=0.0)),
        "refinement_n_list": ([64, 128, 256], _int_list(low=2, even=True, min_len=2)),
        "law_h": (1.5, partial(_expect_real, low_open=0.0)),
        "factorization_n": (32, partial(_expect_int, low=2, even=True)),
        "decay_n_list": ([64, 128], _int_list(low=2, even=True, min_len=2)),
    },
    "birman-krein": {
        "band_points": (20, partial(_expect_int, low=1)),
        "band_margin": (0.05, partial(_expect_real, low_open=2e-3, high_open=2.0)),
        "potentials": (
            [
                {"kind": "single", "value": 0.7, "site": 0},
                {"kind": "single", "value": -0.7, "site": 0},
                {"kind": "centered", "values": [0.3, -0.2, 0.5, 0.1, -0.4]},
                {"kind": "centered", "values": [-0.3, 0.2, -0.5, -0.1, 0.4]},
                {"kind": "centered", "values": [0.25, 0.5, 0.75, 0.5, 0.25]},
            ],
            _potential_list,
        ),
    },
}

_SUBCOMMANDS = tuple(_SCHEMA) + ("all",)


def _validate_section(name: str, given: dict) -> dict:
    schema = _SCHEMA[name]
    unknown = set(given) - set(schema)
    if unknown:
        raise ConfigError(f"{name}.{sorted(unknown)[0]}", "unknown parameter")
    merged = {}
    for key, (default, validator) in schema.items():
        if key in given:
            merged[key] = validator(f"{name}.{key}", given[key])
        else:
            merged[key] = default
    # the Hoelder factorization splits R^(mpow+1) as R^k R0^(mpow+1-k)
    if name == "dirac-schatten" and merged["k"] > merged["mpow"]:
        k, mpow = merged["k"], merged["mpow"]
        raise ConfigError(f"{name}.k", f"expected k <= mpow = {mpow}, got {k}")
    return merged


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {path}: {exc}")
    if not isinstance(obj, dict):
        raise ConfigError("config", "top level must be a JSON object")
    allowed = {"seed", "jobs"} | set(_SCHEMA)
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown configuration section")
    for section in set(obj) & set(_SCHEMA):
        if not isinstance(obj[section], dict):
            raise ConfigError(section, "expected a JSON object")
    return obj


def _resolve(args) -> tuple:
    file_cfg = _load_config(args.config) if args.config else {}
    seed = args.seed
    if seed is None:
        seed = file_cfg.get("seed", 0)
    seed = _expect_int("seed", seed, low=0)
    jobs = getattr(args, "jobs", None)  # only `all` has the flag
    if jobs is None:
        jobs = file_cfg.get("jobs", 1)
    jobs = _expect_int("jobs", jobs, low=1)
    sections = {
        name: _validate_section(name, file_cfg.get(name, {})) for name in _SCHEMA
    }
    return seed, jobs, sections


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssflab",
        description="Finite-dimensional spectral shift laboratory.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    descriptions = {
        "trace-check": "trace formula, invariance and determinant routes",
        "doi-check": "double operator integral identities and cutoff splits",
        "rm-cert": "cofactor lower-bound certificates and kernel hypotheses",
        "dirac-schatten": "lattice Dirac resolvent-power and Schatten checks",
        "birman-krein": "scattering determinant versus spectral shift on the band",
        "all": "every suite in sequence, merged into one report",
    }
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name, help=descriptions[name])
        p.add_argument("--config", default=None, help="JSON configuration file")
        p.add_argument("--seed", type=int, default=None, help="master seed")
        if name == "all":
            jobs_help = "2 or more runs dirac-schatten on a worker thread (default 1)"
            p.add_argument("--jobs", type=int, default=None, help=jobs_help)
        p.add_argument("--out", default=None, help="write the payload to this path")
        p.add_argument(
            "--format",
            choices=("json", "csv"),
            default="json",
            help="payload format (default json)",
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        seed, jobs, sections = _resolve(args)
        t0 = time.perf_counter()
        # a suite finds some values out of reach only as it runs
        if args.subcommand == "all":
            report = suite_all(seed, sections, jobs)
        else:
            report = SUITE_RUNNERS[args.subcommand](seed, sections[args.subcommand])
        elapsed = time.perf_counter() - t0
    except ConfigError as exc:
        print(f"ssflab: config error: {exc}", file=sys.stderr)
        return 2

    payload = report.json_text() if args.format == "json" else report.csv_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    print(f"{report.summary_text()}elapsed: {elapsed:.2f} s", file=sys.stderr)
    return 0 if report.aggregate_pass else 1


if __name__ == "__main__":
    sys.exit(main())
