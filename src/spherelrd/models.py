"""Spectral models: per-degree ARMA transfer functions and memory-exponent profiles.

A model assigns to each spherical-harmonic degree n a scalar ARMA(p, q)
transfer function with AR polynomial Phi_n(z) = 1 - sum phi_{n,i} z^i and MA
polynomial Psi_n(z) = 1 + sum psi_{n,l} z^l, an innovation variance, and a
memory exponent alpha(n).  The short-memory spectral eigenvalue, which
calibrates the test (``spectral_eigenvalue``), is

    f_n(w) = innov_n / (2 pi) * |Psi_n(e^{-iw})|^2 / |Phi_n(e^{-iw})|^2.

The memory exponent is the fractional differencing order d of
(1 - B)^(-alpha(n)), the filter the simulator applies, so under the
long-memory alternative the simulated degree n has f_n times
|1 - e^{-iw}|^(-2 alpha(n)) = (2 |sin(w/2)|)^(-2 alpha(n)) as its spectral
density.  The process is stationary for alpha(n) < 1/2; the pole at w = 0 is
integrable only there.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import SpherelrdError
from .harmonics import DegreeRange

_ROOT_TOL = 1e-9


@dataclass(frozen=True)
class AlphaProfile:
    """Memory exponents alpha(n), one per degree of the model's range.

    Each alpha(n) is a fractional differencing order d.  Values must lie in
    the stationary range [0, 1/2) unless ``extended`` is set, which admits
    d in [1/2, 1) as well; the simulator's truncated filter turns such a d
    into a nonstationary-looking panel.
    """

    values: np.ndarray
    extended: bool = False

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        hi = 1.0 if self.extended else 0.5
        if np.any(vals < 0) or np.any(vals >= hi):
            raise SpherelrdError(
                f"alpha values must lie in [0, {hi}); "
                "pass extended=True to allow exponents >= 1/2"
            )

    @property
    def is_null(self) -> bool:
        return bool(np.all(self.values == 0.0))


def alpha_profile(
    kind: str,
    *,
    n_degrees: int,
    values=None,
    endpoints=None,
    peak=None,
    extended: bool = False,
) -> AlphaProfile:
    """Build an exponent profile.

    kind "explicit": ``values`` gives alpha(n) for each degree in order.
    kind "interpolated": linear in n between ``endpoints`` (first, last degree);
    with ``peak=(position, height)`` a piecewise-linear peak profile instead.
    kind "constant": single value from ``values``.
    """
    if kind == "explicit":
        vals = np.asarray(values, dtype=float)
        if vals.shape != (n_degrees,):
            raise SpherelrdError(f"expected {n_degrees} alpha values, got {vals.shape}")
    elif kind == "constant":
        vals = np.full(n_degrees, float(values))
    elif kind == "interpolated":
        if peak is not None:
            pos, height = peak
            lo = float(endpoints[0]) if endpoints is not None else 0.0
            idx = np.arange(n_degrees, dtype=float)
            pos = float(pos)
            vals = np.where(
                idx <= pos,
                lo + (height - lo) * idx / max(pos, 1.0),
                height - (height - lo) / max(pos, 1.0) * (idx - pos),
            )
            vals = np.clip(vals, 0.0, None)
        else:
            first, last = float(endpoints[0]), float(endpoints[1])
            vals = np.linspace(first, last, n_degrees)
    else:
        raise SpherelrdError(f"unknown alpha profile kind {kind!r}")
    return AlphaProfile(values=vals, extended=extended)


@dataclass(frozen=True)
class SpectralModel:
    """Validated SPHARMA(p, q) model with an optional long-memory profile: one
    batched ``_roots`` call finds every degree's AR roots, and one the MA roots."""

    degrees: DegreeRange
    p: int
    q: int
    phi: np.ndarray    # shape (n_degrees, p)
    psi: np.ndarray    # shape (n_degrees, q)
    innov: np.ndarray  # shape (n_degrees,)
    alpha: AlphaProfile

    def __post_init__(self) -> None:
        n_deg = len(self.degrees.degrees)
        phi = np.asarray(self.phi, dtype=float).reshape(n_deg, self.p)
        psi = np.asarray(self.psi, dtype=float).reshape(n_deg, self.q)
        innov = np.asarray(self.innov, dtype=float).reshape(n_deg)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "innov", innov)
        if self.alpha.values.shape != (n_deg,):
            raise SpherelrdError("alpha profile length does not match degree range")
        for n, v, ar, ma in zip(self.degrees.degrees, innov, _roots(-phi), _roots(psi)):
            if v <= 0:
                raise SpherelrdError(f"innovation eigenvalue at degree {n} must be positive")
            if ar.size and np.min(np.abs(ar)) <= 1.0 + _ROOT_TOL:
                raise SpherelrdError(
                    f"AR polynomial for degree {n} has a root of modulus "
                    f"{np.min(np.abs(ar)):.6g} <= 1"
                )
            if ar.size and ma.size and np.min(np.abs(ma[:, None] - ar)) <= _ROOT_TOL:
                raise SpherelrdError(f"AR and MA polynomials share a root at degree {n}")

    @property
    def n_degrees(self) -> int:
        return len(self.degrees.degrees)

    def srd_part(self) -> "SpectralModel":
        """The same ARMA model with all memory exponents set to zero."""
        return replace(self, alpha=AlphaProfile(values=np.zeros(self.n_degrees)))

    def ar_root_moduli(self) -> list:
        """Sorted moduli of the AR roots, one array per degree."""
        return [np.sort(np.abs(r)) for r in _roots(-self.phi)]


def _roots(coeffs: np.ndarray) -> list:
    """Roots of 1 + c_1 z + ... + c_k z^k per row (c_1..c_k) of ``coeffs``, one
    array each.  The companions of the monic reversed polynomials, stacked, give
    the reciprocal roots in one eigenvalue call; a zero eigenvalue marks a
    trailing zero coefficient (a lower effective order) and is dropped."""
    n, k = coeffs.shape
    companion = np.zeros((n, k, k))
    companion[:, :1] = -coeffs[:, None]
    companion[:, np.arange(1, k), np.arange(k - 1)] = 1.0
    return [1.0 / mu[mu != 0] for mu in np.linalg.eigvals(companion)]


def build_spharma(
    degrees: DegreeRange,
    phi,
    psi,
    innov=1.0,
    alpha: AlphaProfile | None = None,
) -> SpectralModel:
    """Assemble and validate a model from per-degree coefficient arrays.

    ``phi``/``psi`` may be (n_degrees, p)/(n_degrees, q) arrays or empty for
    white noise; ``innov`` a scalar or per-degree sequence.
    """
    n_deg = len(degrees.degrees)
    phi = np.atleast_2d(np.asarray(phi, dtype=float)) if np.size(phi) else np.empty((n_deg, 0))
    psi = np.atleast_2d(np.asarray(psi, dtype=float)) if np.size(psi) else np.empty((n_deg, 0))
    if phi.shape[0] == 1 and n_deg > 1 and phi.size:
        phi = np.repeat(phi, n_deg, axis=0)
    if psi.shape[0] == 1 and n_deg > 1 and psi.size:
        psi = np.repeat(psi, n_deg, axis=0)
    innov_arr = np.broadcast_to(np.asarray(innov, dtype=float), (n_deg,)).copy()
    if alpha is None:
        alpha = AlphaProfile(values=np.zeros(n_deg))
    return SpectralModel(
        degrees=degrees, p=phi.shape[1], q=psi.shape[1],
        phi=phi, psi=psi, innov=innov_arr, alpha=alpha,
    )


def spectral_eigenvalue(model: SpectralModel, omega) -> np.ndarray:
    """Short-memory f_n(omega) at omega in [-pi, pi], one row per degree: shape
    (n_degrees, omega.size).  A row rounds as one degree alone would."""
    w = np.asarray(omega, dtype=float).reshape(-1)
    if np.any(np.abs(w) > np.pi + 1e-12):
        raise SpherelrdError("frequency outside [-pi, pi]")
    z = np.exp(-1j * w)
    num = np.ones((model.n_degrees, w.size), dtype=complex)
    for l in range(model.q):
        num = num + model.psi[:, l, None] * z ** (l + 1)
    den = np.ones_like(num)
    for k in range(model.p):
        den = den - model.phi[:, k, None] * z ** (k + 1)
    return model.innov[:, None] / (2 * np.pi) * np.abs(num) ** 2 / np.abs(den) ** 2


# --- canonical model generators -------------------------------------------

def reference_ar_eigenvalues(degrees: DegreeRange) -> np.ndarray:
    """lambda_n(phi_1) = 0.7 ((n+1)/n)^(-3/2)."""
    n = np.array([float(m) for m in degrees.degrees])
    return 0.7 * ((n + 1.0) / n) ** (-1.5)


def reference_ma_eigenvalues(degrees: DegreeRange) -> np.ndarray:
    """lambda_n(psi_1) = 0.4 ((n+1)/n)^(-5/1.95)."""
    n = np.array([float(m) for m in degrees.degrees])
    return 0.4 * ((n + 1.0) / n) ** (-5.0 / 1.95)


def reference_spharma11(
    n_min: int = 1, n_max: int = 8, alpha: AlphaProfile | None = None
) -> SpectralModel:
    """The canonical SPHARMA(1,1) model on degrees 1..8, short-memory unless
    an ``alpha`` profile is given; built and validated once."""
    degrees = DegreeRange(n_min, n_max)
    phi = reference_ar_eigenvalues(degrees)[:, None]
    psi = reference_ma_eigenvalues(degrees)[:, None]
    return build_spharma(degrees, phi, psi, innov=1.0, alpha=alpha)


_EXAMPLE_ALPHA = {
    # (kind-args) reconstructed from published endpoints; interior values are
    # linear interpolations and explicitly overridable via configs.
    1: dict(endpoints=(0.4733, 0.2678), extended=False, peak=None),
    2: dict(endpoints=(0.2550, 0.3327), extended=False, peak=None),
    3: dict(endpoints=(0.2753, None), extended=False, peak=(4, 0.4000)),
    4: dict(endpoints=(0.3041, None), extended=True, peak=(7, 0.9982)),
}


def example_alpha_profile(example: int, n_degrees: int = 8) -> AlphaProfile:
    """Exponent profiles for the four canonical long-memory examples."""
    try:
        spec = _EXAMPLE_ALPHA[example]
    except KeyError:
        raise SpherelrdError(f"unknown example number {example}") from None
    return alpha_profile("interpolated", n_degrees=n_degrees, **spec)


def example_model(example: int, n_min: int = 1, n_max: int = 8) -> SpectralModel:
    """Multifractionally integrated SPHARMA(1,1) models for Examples 1-4."""
    alpha = example_alpha_profile(example, n_degrees=len(DegreeRange(n_min, n_max).degrees))
    return reference_spharma11(n_min, n_max, alpha=alpha)
