"""Command-line entry point.

Subcommands map one-to-one onto the verification suites.  Configuration
merges three layers: built-in defaults, an optional JSON config file, and
command-line flags (flags win).  Exit status is 0 when every check passed,
1 when any check failed, and 2 for configuration errors, whose messages
always name the offending field, or for an ``--out`` path it cannot write.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial

from .dirac import _check_refinement
from .scattering import _check_band_margin, _check_site, _check_value
from .spectral import _check_finite, _check_int, _check_positive
from .suites import SUITE_RUNNERS, _check_grid_edge, suite_all
from .suites import _cert_tag, _mz_tag

__all__ = ["main"]


class ConfigError(ValueError):
    """Invalid configuration value, tagged with the field path."""

    def __init__(self, field: str, message: str):
        super().__init__(f"field '{field}': {message}")
        self.field = field


# ---------------------------------------------------------------------------
# per-field validators


def _gated(gate, field, value, **rule):
    """``value`` through the library's scalar gate ``gate``, named by the last
    key of ``field``; a rejection becomes a ``ConfigError`` for ``field``."""
    try:
        return gate(value, field.rsplit(".", 1)[-1], **rule)
    except ValueError as exc:
        raise ConfigError(field, str(exc)) from None


def _expect_list(field, value, min_len=1):
    if not isinstance(value, (list, tuple)):
        raise ConfigError(field, f"expected a list, got {value!r}")
    if len(value) < min_len:
        raise ConfigError(field, f"expected at least {min_len} entries")
    return list(value)


def _int_list(low, even=False):
    def check(field, value):
        out = _expect_list(field, value)
        return [
            _gated(_check_int, f"{field}[{i}]", v, low=low, even=even)
            for i, v in enumerate(out)
        ]

    return check


def _refinement_list(field, value):
    """Lattice sizes, each through the size gate, then the studies' refinement rule."""
    return _gated(_check_refinement, field, _int_list(low=2, even=True)(field, value))


def _complex_pair(field, value):
    out = _expect_list(field, value, 2)
    if len(out) != 2:
        raise ConfigError(field, "expected a [real, imag] pair")
    re = _gated(_check_finite, f"{field}[0]", out[0])
    im = _gated(_check_finite, f"{field}[1]", out[1])
    if im == 0.0:
        raise ConfigError(f"{field}[1]", "imaginary part must be nonzero")
    return [re, im]


def _no_unknown_keys(field, entry, known):
    extra = set(entry) - known
    if extra:
        raise ConfigError(field, f"unknown key {sorted(extra)[0]!r}")


def _mz_list(field, value):
    out = _expect_list(field, value)
    parsed = []
    for i, entry in enumerate(out):
        if not isinstance(entry, dict):
            raise ConfigError(f"{field}[{i}]", "expected an object with 'm' and 'z'")
        _no_unknown_keys(f"{field}[{i}]", entry, {"m", "z"})
        m = _gated(_check_int, f"{field}[{i}].m", entry.get("m"), low=1, odd=True)
        if any(_mz_tag(m) == _mz_tag(e["m"]) for e in parsed):
            raise ConfigError(f"{field}[{i}].m", f"repeats the record tag {_mz_tag(m)!r}")
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
        m = _gated(_check_int, f"{field}[{i}][0]", row[0], low=1, odd=True)
        rest = [
            _gated(_check_positive, f"{field}[{i}][{j}]", row[j])
            for j in range(1, _CERT_ARITY)
        ]
        if any(_cert_tag(m, *rest) == _cert_tag(*e) for e in parsed):
            raise ConfigError(f"{field}[{i}]", f"repeats the record tag {_cert_tag(m, *rest)!r}")
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
            _no_unknown_keys(here, entry, {"kind", "value", "site"})
            val = _gated(_check_value, f"{here}.value", entry.get("value"), n_sites=1, gap=1)
            if val == 0.0:
                raise ConfigError(f"{here}.value", "potential must be nonzero")
            site = _gated(_check_site, f"{here}.site", entry.get("site", 0))
            parsed.append({"kind": "single", "value": val, "site": site})
        elif kind == "centered":
            _no_unknown_keys(here, entry, {"kind", "values"})
            vals = _expect_list(f"{here}.values", entry.get("values"))
            vals = [
                _gated(_check_value, f"{here}.values[{j}]", v, n_sites=len(vals), gap=1)
                for j, v in enumerate(vals)
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
        "trials": (100, partial(_gated, _check_int, low=1)),
        "det_trials": (10, partial(_gated, _check_int, low=1)),
    },
    "doi-check": {
        "dim": (12, partial(_gated, _check_int, low=2)),
        "trials": (50, partial(_gated, _check_int, low=1)),
        "mz_list": (
            [{"m": 3, "z": [0.0, 2.0]}, {"m": 5, "z": [0.0, 3.0]}],
            _mz_list,
        ),
    },
    "rm-cert": {
        "grid_edge": (1e5, partial(_gated, _check_grid_edge)),
        "bounded_certs": (
            [[3, 1.0, 10.0], [3, 5.0, 50.0], [5, 1.0, 20.0]],
            _cert_list,
        ),
        "exterior_certs": ([[3, 1.0, 0.01]], _cert_list),
    },
    "dirac-schatten": {
        "identity_n_list": ([32, 64], _int_list(low=2, even=True)),
        "seeds": (5, partial(_gated, _check_int, low=1)),
        "z": ([0.0, 1.0], _complex_pair),
        "mass": (1.0, partial(_gated, _check_positive)),
        "mpow": (3, partial(_gated, _check_int, low=1, odd=True)),
        "k": (2, partial(_gated, _check_int, low=1)),
        "r": (1.0, partial(_gated, _check_positive)),
        "decay_c": (1.0, partial(_gated, _check_positive)),
        "rho": (4.0, partial(_gated, _check_positive)),
        "v0_bound": (0.3, partial(_gated, _check_positive)),
        "refinement_n_list": ([64, 128, 256], _refinement_list),
        "law_h": (1.5, partial(_gated, _check_positive)),
        "factorization_n": (32, partial(_gated, _check_int, low=2, even=True)),
        "decay_n_list": ([64, 128], _refinement_list),
    },
    "birman-krein": {
        "band_points": (20, partial(_gated, _check_int, low=1)),
        "band_margin": (0.05, partial(_gated, _check_band_margin)),
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
    allowed = {"seed"} | set(_SCHEMA)
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
    seed = _gated(_check_int, "seed", seed, low=0)
    # only `all` has --jobs; it selects nothing, but a bad value is still an error
    _gated(_check_int, "jobs", getattr(args, "jobs", 1), low=1)
    sections = {
        name: _validate_section(name, file_cfg.get(name, {})) for name in _SCHEMA
    }
    return seed, sections


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssflab",
        description="Finite-dimensional spectral shift laboratory.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    descriptions = {
        "trace-check": "trace formula, invariance and determinant routes",
        "doi-check": "double operator integral identities and kernels",
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
            p.add_argument("--jobs", type=int, default=1, help="has no effect (default 1)")
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
        seed, sections = _resolve(args)
    except ConfigError as exc:
        print(f"ssflab: config error: {exc}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    if args.subcommand == "all":
        report = suite_all(seed, sections)
    else:
        report = SUITE_RUNNERS[args.subcommand](seed, sections[args.subcommand])
    elapsed = time.perf_counter() - t0

    payload = report.json_text() if args.format == "json" else report.csv_text()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"ssflab: cannot write --out {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload)
    print(f"{report.summary_text()}elapsed: {elapsed:.2f} s", file=sys.stderr)
    return 0 if report.aggregate_pass else 1


if __name__ == "__main__":
    sys.exit(main())
