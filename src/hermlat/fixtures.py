"""Fixture file formats and the shipped test fields.

Field fixture (JSON object):
    poly          coefficient list, constant term first, monic integral
    basis         optional integral basis, row-major, entries as "p/q" strings
                  (each row = power-basis coordinates of one basis element)
    expected_disc optional integer; validated against the computed value

Bundle fixture (JSON object):
    field         inline field fixture object, or a path string to one
    rank          module rank N
    grams         object keyed by embedding index ("0" .. "r-1"); each value
                  is an N x N matrix of [re, im] pairs of numbers, row-major

Curve-invariants fixture (JSON object):
    g, r, omega_sq, residual_C, and either disc (nonzero integer) or log_disc

Unknown keys are rejected.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from .bundles import HermitianBundle, make_bundle
from .heights import CurveInvariants
from .numberfield import FieldError, NumberField, build_field


class FixtureError(ValueError):
    """Malformed fixture file."""


def _load_json(path: str | Path) -> object:
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise FixtureError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}") from None


def _require_keys(obj: dict, allowed: set[str], required: set[str], what: str):
    unknown = set(obj) - allowed
    if unknown:
        raise FixtureError(f"{what}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise FixtureError(f"{what}: missing keys {sorted(missing)}")


def _is_json_int(value) -> bool:
    """Whether a parsed JSON value is an integer: a bool is not, nor is 2.0."""
    return isinstance(value, int) and not isinstance(value, bool)


def _json_number(value, what: str) -> float:
    """``value`` as a float; FixtureError naming ``what`` unless it is a JSON
    number: a bool or a string is not, nor is an integer beyond the float range."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise FixtureError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise FixtureError(f"{what} must be finite") from None


def parse_field_fixture(obj: dict) -> NumberField:
    _require_keys(obj, {"poly", "basis", "expected_disc"}, {"poly"}, "field fixture")
    poly = obj["poly"]
    if not isinstance(poly, list) or not all(_is_json_int(c) for c in poly):
        raise FixtureError("field fixture: poly must be a list of integers")
    basis = None
    if obj.get("basis") is not None:
        try:
            basis = [[Fraction(str(e)) for e in row] for row in obj["basis"]]
        except (ValueError, TypeError):
            raise FixtureError("field fixture: basis entries must be rationals like '1/2'") from None
    expected = obj.get("expected_disc")
    if expected is not None and not _is_json_int(expected):
        raise FixtureError(f"field fixture: expected_disc must be an integer, got {expected!r}")
    nf = build_field(poly, integral_basis=basis)
    if expected is not None and expected != nf.discriminant:
        raise FixtureError(
            f"field fixture: expected_disc {expected} != computed {nf.discriminant}"
        )
    return nf


def load_field(path: str | Path) -> NumberField:
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise FixtureError(f"{path}: field fixture must be a JSON object")
    return parse_field_fixture(obj)


def parse_bundle_fixture(obj: dict, base_dir: Path | None = None) -> HermitianBundle:
    _require_keys(obj, {"field", "rank", "grams"}, {"field", "rank", "grams"}, "bundle fixture")
    fld = obj["field"]
    if isinstance(fld, str):
        path = Path(fld)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        nf = load_field(path)
    elif isinstance(fld, dict):
        nf = parse_field_fixture(fld)
    else:
        raise FixtureError("bundle fixture: field must be an object or a path string")
    rank = obj["rank"]
    if not _is_json_int(rank) or rank < 1:
        raise FixtureError("bundle fixture: rank must be a positive integer")
    grams_obj = obj["grams"]
    if not isinstance(grams_obj, dict):
        raise FixtureError("bundle fixture: grams must be an object keyed by embedding index")
    expected_keys = {str(s) for s in range(nf.degree)}
    if set(grams_obj) != expected_keys:
        raise FixtureError(
            f"bundle fixture: gram keys {sorted(grams_obj)} != embedding indices {sorted(expected_keys)}"
        )
    grams = []
    for s in range(nf.degree):
        rows = grams_obj[str(s)]
        try:  # each entry unpacks to exactly two JSON numbers
            h = np.array(
                [[complex(_json_number(re, "re"), _json_number(im, "im")) for re, im in row]
                 for row in rows],
                dtype=complex,
            )
        except (TypeError, ValueError):  # FixtureError is a ValueError
            raise FixtureError(
                f"bundle fixture: gram {s} must be a matrix of [re, im] pairs"
            ) from None
        grams.append(h)
    return make_bundle(nf, rank, grams)


def load_bundle(path: str | Path) -> HermitianBundle:
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise FixtureError(f"{path}: bundle fixture must be a JSON object")
    return parse_bundle_fixture(obj, base_dir=Path(path).parent)


def load_invariants(path: str | Path) -> CurveInvariants:
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise FixtureError(f"{path}: invariants fixture must be a JSON object")
    _require_keys(
        obj,
        {"g", "r", "disc", "log_disc", "omega_sq", "residual_C"},
        {"g", "omega_sq"},
        "invariants fixture",
    )
    if "disc" in obj and "log_disc" in obj:
        raise FixtureError("invariants fixture: give disc or log_disc, not both")
    log_disc = 0.0
    if "disc" in obj:
        disc = obj["disc"]
        if not _is_json_int(disc) or disc == 0:
            raise FixtureError(f"invariants fixture: disc must be a nonzero integer, got {disc!r}")
        log_disc = math.log(abs(disc))
    elif "log_disc" in obj:
        log_disc = _json_number(obj["log_disc"], "invariants fixture: log_disc")
    for key in ("g", "r"):
        if key in obj and not _is_json_int(obj[key]):
            raise FixtureError(f"invariants fixture: {key} must be an integer, got {obj[key]!r}")
    try:
        return CurveInvariants(
            g=obj["g"],
            r=obj.get("r", 1),
            log_disc=log_disc,
            omega_sq=_json_number(obj["omega_sq"], "invariants fixture: omega_sq"),
            residual_c=_json_number(obj.get("residual_C", 0.0), "invariants fixture: residual_C"),
        )
    except ValueError as e:
        raise FixtureError(f"invariants fixture: {e}") from None


# -- shipped test fields ------------------------------------------------------
# All six have monogenic maximal orders, so the power basis is integral.

_FIELD_POLYS = {
    "q": [0, 1],
    "gaussian": [1, 0, 1],
    "sqrt2": [-2, 0, 1],
    "sqrt_minus2": [2, 0, 1],
    "sqrt_minus3": [1, -1, 1],
    "zeta5": [1, 1, 1, 1, 1],
}

_FIELD_DISCS = {
    "q": 1,
    "gaussian": -4,
    "sqrt2": 8,
    "sqrt_minus2": -8,
    "sqrt_minus3": -3,
    "zeta5": 125,
}

_cache: dict[str, NumberField] = {}


def shipped_field(name: str) -> NumberField:
    if name not in _FIELD_POLYS:
        raise KeyError(f"unknown shipped field {name!r}; have {sorted(_FIELD_POLYS)}")
    if name not in _cache:
        nf = build_field(_FIELD_POLYS[name])
        if nf.discriminant != _FIELD_DISCS[name]:
            raise FieldError(
                f"shipped field {name!r}: discriminant {nf.discriminant} != {_FIELD_DISCS[name]}"
            )
        _cache[name] = nf
    return _cache[name]


def shipped_field_names() -> list[str]:
    return list(_FIELD_POLYS)


def fuzz_corpus_fields() -> list[NumberField]:
    """The four fields of the randomized acceptance corpus."""
    return [shipped_field(n) for n in ("q", "gaussian", "sqrt2", "sqrt_minus3")]
