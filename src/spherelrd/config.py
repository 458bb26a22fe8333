"""JSON configuration documents for models and experiments.

A config document has two sections::

    {
      "model": {
        "generator": "reference",        # or "example1".."example4", or null
        "degrees": [1, 8],
        "phi": [[...]], "psi": [[...]],  # explicit per-degree ARMA coefficients
        "innov": 1.0,
        "alpha": {"endpoints": [0.47, 0.27]}  # or "values", or "peak"
      },
      "experiment": {
        "T": [1000], "R": 500, "beta": 0.25, "level": 0.05,
        "directions": 8, "seed": 20260825,
        "betas": [0.2, 0.55, 0.9]           # read by mc-sweep only
      }
    }

``generator`` expands the canonical closed-form models; explicit fields
override nothing when a generator is named (mixing the two is an error,
except that an explicit ``alpha`` section may be attached to "reference").
``load_config`` rejects any key outside ``_KEYS``, so a misspelt option
fails at load instead of being ignored.  A known key that the command reads
and whose value does not convert fails as the config is built, with a
``SpherelrdError`` naming the key; a known key it does not read is left alone.
Numbers are finite JSON numbers: a string, a boolean, NaN or an infinity
where one is expected fails, in the model section at any depth of a nested
list, and ``extended`` is ``true`` or ``false``.  An alpha section sets
exactly one of ``values``, ``endpoints`` and ``peak`` (see ``alpha_profile``).
Each value is checked once: the integers (``degrees``, ``T``, ``R``,
``directions``, ``seed``) where they are stored, by ``DegreeRange`` and
``ExperimentConfig``, and a model by ``build_spharma``.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import SpherelrdError
from .harmonics import DegreeRange
from .models import (
    AlphaProfile,
    SpectralModel,
    alpha_profile,
    build_spharma,
    example_model,
    reference_spharma11,
)
from .harness import EXPERIMENT_FIELDS, ExperimentConfig

_GENERATORS = ("reference", "example1", "example2", "example3", "example4")

# Every key some command reads, per section ("" is the top level); a key that
# names a section must hold a JSON object.
_KEYS = {
    "": {"model", "experiment"},
    "model": {"generator", "degrees", "phi", "psi", "innov", "alpha"},
    "alpha": {"values", "endpoints", "peak", "extended"},
    "experiment": set(EXPERIMENT_FIELDS),
}


def _check_keys(doc: dict, section: str = "") -> None:
    for key, value in doc.items():
        if key not in _KEYS[section]:
            where = f"section {section!r}" if section else "the top level"
            raise SpherelrdError(f"unknown key {key!r} in {where}")
        if key in _KEYS:
            if not isinstance(value, dict):
                raise SpherelrdError(f"{key!r} must be a JSON object")
            _check_keys(value, key)


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpherelrdError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpherelrdError("config document must be a JSON object")
    _check_keys(doc)
    return doc


def _field(section: str, key: str, value, convert):
    """``convert(value)``; a value it cannot convert is a SpherelrdError naming the key."""
    try:
        return convert(value)
    except (TypeError, ValueError, IndexError, OverflowError) as exc:
        raise SpherelrdError(f"invalid {key!r} in section {section!r}: {value!r} ({exc})") from None


def _real(value) -> float:
    """``value`` as a finite float; a string or a boolean is an error, not
    parsed, and so is the NaN or infinity ``json.load`` accepts."""
    if isinstance(value, (str, bool)):
        raise TypeError(f"{value!r} is not a number")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not finite")
    return number


def _reals(value):
    """``value`` with every number in it, at any depth of nested lists, checked by ``_real``."""
    return [_reals(v) for v in value] if isinstance(value, list) else _real(value)


def _pair(value) -> tuple:
    first, second = value
    return first, second


def _check_reals(section: str, spec: dict, keys: tuple) -> None:
    """Check each of ``keys`` that ``spec`` sets with ``_reals``."""
    for key in keys:
        if key in spec:
            _field(section, key, spec[key], _reals)


def _alpha_from_doc(doc: dict, n_degrees: int) -> AlphaProfile:
    _check_reals("alpha", doc, ("values", "endpoints", "peak"))
    extended = doc.get("extended", False)
    if not isinstance(extended, bool):
        raise SpherelrdError(
            f"'extended' in section 'alpha' must be true or false, got {extended!r}")
    try:
        return alpha_profile(
            n_degrees,
            values=doc.get("values"),
            endpoints=doc.get("endpoints"),
            peak=doc.get("peak"),
            extended=extended,
        )
    except (TypeError, ValueError) as exc:
        raise SpherelrdError(f"invalid section 'alpha': {doc!r} ({exc})") from None


def model_from_config(doc: dict) -> SpectralModel:
    spec = doc.get("model")
    if not isinstance(spec, dict):
        raise SpherelrdError("config is missing a 'model' object")
    n_min, n_max = _field("model", "degrees", spec.get("degrees", [1, 8]), _pair)
    gen = spec.get("generator")
    if gen is not None:
        if gen not in _GENERATORS:
            raise SpherelrdError(f"unknown model generator {gen!r}")
        # only "reference" takes an alpha section; the examples fix their own
        explicit = {"phi", "psi", "innov"} | ({"alpha"} if gen != "reference" else set())
        if explicit & spec.keys():
            raise SpherelrdError(
                f"generator {gen!r} does not accept explicit fields {sorted(explicit & spec.keys())}"
            )
    _check_reals("model", spec, ("phi", "psi", "innov"))
    try:
        if gen is not None and gen != "reference":
            return example_model(int(gen[len("example"):]), n_min, n_max)
        degrees = DegreeRange(n_min, n_max)
        n_deg = len(degrees.degrees)
        alpha = (
            _alpha_from_doc(spec["alpha"], n_deg) if "alpha" in spec else None
        )
        if gen == "reference":
            return reference_spharma11(n_min, n_max, alpha=alpha)
        return build_spharma(
            degrees,
            np.asarray(spec.get("phi", []), dtype=float),
            np.asarray(spec.get("psi", []), dtype=float),
            innov=spec.get("innov", 1.0),
            alpha=alpha,
        )
    except ValueError as exc:  # SpherelrdError, mismatched shapes
        raise SpherelrdError(f"invalid model config: {exc}") from exc


# The conversion of each experiment key that ExperimentConfig does not check
# itself (it checks every integer); EXPERIMENT_FIELDS names the field it fills.
_CONVERT = {"T": tuple, "beta": _real, "level": _real,
            "betas": lambda betas: tuple(map(_real, betas))}


def experiment_from_config(
    doc: dict,
    keys: tuple = tuple(EXPERIMENT_FIELDS),
    seed: int | None = None,
    T: int | None = None,
    threads: int = 1,
) -> ExperimentConfig:
    """Build an ExperimentConfig from the experiment ``keys`` a command reads
    (by default every key); each of them that the document sets is converted
    and checked, and the rest keep the ``ExperimentConfig`` defaults.  A key
    outside ``keys`` is neither converted nor checked.  CLI-level overrides
    win over the document."""
    model = model_from_config(doc)
    exp = doc.get("experiment", {})
    if not isinstance(exp, dict):
        raise SpherelrdError("'experiment' must be a JSON object")
    values = dict(exp)
    if seed is not None:
        values["seed"] = seed
    if T is not None:
        values["T"] = T
    if not isinstance(values.get("T", []), (list, tuple)):
        values["T"] = [values["T"]]  # a single sample length

    fields = {
        EXPERIMENT_FIELDS[key]:
            _field("experiment", key, values[key], _CONVERT.get(key, lambda v: v))
        for key in keys
        if key in values
    }
    try:
        return ExperimentConfig(model=model, threads=threads, **fields)
    except SpherelrdError as exc:
        raise SpherelrdError(f"invalid experiment config: {exc}") from exc

