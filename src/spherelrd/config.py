"""JSON configuration documents for models and experiments.

A config document has two sections::

    {
      "model": {
        "generator": "reference",        # or "example1".."example4", or null
        "degrees": [1, 8],
        "phi": [[...]], "psi": [[...]],  # explicit per-degree ARMA coefficients
        "innov": 1.0,
        "alpha": {"kind": "interpolated", "endpoints": [0.47, 0.27], ...}
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
``ConfigError`` naming the key; a known key it does not read is left alone.
"""

from __future__ import annotations

import json
import numpy as np

from .harmonics import DegreeRange
from .models import (
    AlphaProfile,
    SpectralModel,
    alpha_profile,
    build_spharma,
    example_model,
    reference_spharma11,
)
from .harness import ExperimentConfig, HarnessError
from .simulate import SimulationError


class ConfigError(ValueError):
    pass


_GENERATORS = ("reference", "example1", "example2", "example3", "example4")

# Every key some command reads, per section ("" is the top level); a key that
# names a section must hold a JSON object.
_KEYS = {
    "": {"model", "experiment"},
    "model": {"generator", "degrees", "phi", "psi", "innov", "alpha"},
    "alpha": {"kind", "values", "endpoints", "peak", "extended"},
    "experiment": {"T", "R", "beta", "level", "directions", "seed", "betas"},
}


def _check_keys(doc: dict, section: str = "") -> None:
    for key, value in doc.items():
        if key not in _KEYS[section]:
            where = f"section {section!r}" if section else "the top level"
            raise ConfigError(f"unknown key {key!r} in {where}")
        if key in _KEYS:
            if not isinstance(value, dict):
                raise ConfigError(f"{key!r} must be a JSON object")
            _check_keys(value, key)


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    _check_keys(doc)
    return doc


def _field(section: str, key: str, value, convert):
    """``convert(value)``; a value it cannot convert is a ConfigError naming the key."""
    try:
        return convert(value)
    except (TypeError, ValueError, IndexError, OverflowError) as exc:
        raise ConfigError(f"invalid {key!r} in section {section!r}: {value!r} ({exc})") from None


def _integer(value) -> int:
    """``value`` as an int; a number with a fractional part is an error, not truncated."""
    out = int(value)
    if out != value:
        raise ValueError(f"{value!r} is not an integer")
    return out


def _list_of(convert):
    """Converter of a JSON list to a tuple of its items, each ``convert``ed."""

    def to_tuple(value) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise TypeError("expected a list")
        return tuple(convert(v) for v in value)

    return to_tuple


def _degree_pair(value) -> tuple:
    n_min, n_max = _list_of(_integer)(value)
    return n_min, n_max


def _alpha_from_doc(doc: dict, n_degrees: int) -> AlphaProfile:
    kind = doc.get("kind", "explicit")
    if kind == "interpolated" and "endpoints" not in doc and "peak" not in doc:
        raise ConfigError("an interpolated alpha profile without a 'peak' needs 'endpoints'")
    peak = doc.get("peak")
    try:
        return alpha_profile(
            kind,
            n_degrees=n_degrees,
            values=doc.get("values"),
            endpoints=doc.get("endpoints"),
            peak=tuple(peak) if peak is not None else None,
            extended=bool(doc.get("extended", False)),
        )
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"invalid section 'alpha': {doc!r} ({exc})") from None


def model_from_config(doc: dict) -> SpectralModel:
    spec = doc.get("model")
    if not isinstance(spec, dict):
        raise ConfigError("config is missing a 'model' object")
    n_min, n_max = _field("model", "degrees", spec.get("degrees", [1, 8]), _degree_pair)
    gen = spec.get("generator")
    if gen is not None:
        if gen not in _GENERATORS:
            raise ConfigError(f"unknown model generator {gen!r}")
        # only "reference" takes an alpha section; the examples fix their own
        explicit = {"phi", "psi", "innov"} | ({"alpha"} if gen != "reference" else set())
        if explicit & spec.keys():
            raise ConfigError(
                f"generator {gen!r} does not accept explicit fields {sorted(explicit & spec.keys())}"
            )
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
    except ValueError as exc:  # ModelError, HarmonicsError, mismatched shapes
        raise ConfigError(f"invalid model config: {exc}") from exc


# Each experiment key ExperimentConfig reads: the field it fills, and its conversion.
_EXPERIMENT_FIELDS = {
    "T": ("T_values", _list_of(_integer)),
    "R": ("R", _integer),
    "beta": ("beta", float),
    "level": ("level", float),
    "directions": ("n_directions", _integer),
    "seed": ("seed", _integer),
}


def experiment_from_config(
    doc: dict,
    keys: tuple | None = None,
    seed: int | None = None,
    T: int | None = None,
    threads: int = 1,
) -> ExperimentConfig:
    """Build an ExperimentConfig from the experiment ``keys`` a command reads
    (None: every key); each of them that the document sets is converted and
    checked, and the rest keep the ``ExperimentConfig`` defaults.  A key
    outside ``keys`` is neither converted nor checked.  CLI-level overrides
    win over the document."""
    model = model_from_config(doc)
    exp = doc.get("experiment", {})
    if not isinstance(exp, dict):
        raise ConfigError("'experiment' must be a JSON object")
    values = dict(exp)
    if seed is not None:
        values["seed"] = seed
    if T is not None:
        values["T"] = [T]
    if isinstance(values.get("T"), (int, float)):
        values["T"] = [values["T"]]

    fields = {
        name: _field("experiment", key, values[key], convert)
        for key, (name, convert) in _EXPERIMENT_FIELDS.items()
        if key in values and (keys is None or key in keys)
    }
    try:
        return ExperimentConfig(model=model, threads=threads, **fields)
    except (HarnessError, SimulationError) as exc:
        raise ConfigError(f"invalid experiment config: {exc}") from exc


def _distinct(values: tuple) -> tuple:
    """``values`` if it is nonempty and lists no value twice, as 'T' must be."""
    if not values:
        raise ValueError("expected at least one value")
    if len(set(values)) < len(values):
        raise ValueError("lists a value more than once")
    return values


def sweep_betas(doc: dict) -> tuple:
    betas = doc.get("experiment", {}).get("betas", [0.2, 0.55, 0.9])
    return _field("experiment", "betas", betas, lambda v: _distinct(_list_of(float)(v)))
