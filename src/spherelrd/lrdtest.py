"""Long-range-dependence test in the harmonic spectral domain.

The statistic aggregates the smoothed periodogram over the low-frequency
window [-sqrt(B)/2, sqrt(B)/2]:

    S[a, b] = sqrt(B T) * (1 / sqrt(B)) * (2 pi / T)
              * sum_{w_s in window} f_hat_{w_s}[a, b].

Exchanging the window sum with the smoothing sum turns this into a single
weighted quadratic form over the Fourier ordinates,

    S[a, b] = sqrt(T) * (2 pi / T) * sum_{v=1}^{T-1} g_v * d_a(w_v) conj(d_b(w_v)),

with g_v = (2 pi / T) * sum_{s in window} W^(T)(w_s - w_v).  All null means
and (co)variances are evaluated on the same Fourier grid with the same g
weights, which removes the O(1/(T sqrt(B))) centering bias a continuous
approximation would leave at small T.  A continuous midpoint-quadrature mode
is kept for cross-checking.

Under a short-range null the standardized entries are asymptotically
standard normal; rejection is two-sided at level alpha by default.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .harmonics import DegreeRange
from .models import Hypothesis, SpectralModel, spectral_eigenvalue
from .spectral import (
    DftPanel,
    SmoothingSpec,
    epanechnikov_cdf,
    kernel_row,
    reduce_frequency,
)


class TestError(ValueError):
    pass


class DegenerateBandwidth(TestError):
    pass


class EmptyWindow(TestError):
    pass


class CalibrationUnderAlternative(TestError):
    pass


class ZeroVarianceDirection(TestError):
    pass


@dataclass(frozen=True)
class BandwidthRule:
    """Bandwidth B = T^(-beta), or an explicit value of B."""

    beta: float | None = None
    explicit: float | None = None

    def __post_init__(self) -> None:
        if (self.beta is None) == (self.explicit is None):
            raise TestError("give exactly one of beta or explicit bandwidth")
        if self.beta is not None and not 0.0 < self.beta < 1.0:
            raise DegenerateBandwidth(f"beta must lie in (0, 1), got {self.beta}")


def bandwidth(T: int, rule: BandwidthRule) -> float:
    """Resolve the rule to a bandwidth value, enforcing B < 1 and B * T > 1."""
    if T < 2:
        raise TestError("T must be at least 2")
    B = float(T) ** (-rule.beta) if rule.beta is not None else float(rule.explicit)
    if not 0.0 < B < 1.0:
        raise DegenerateBandwidth(f"bandwidth {B:.6g} outside (0, 1)")
    if B * T <= 1.0:
        raise DegenerateBandwidth(f"B * T = {B * T:.6g} <= 1 (window too narrow)")
    return B


def window_indices(T: int, B: float) -> np.ndarray:
    """Fourier indices s in 1..T-1 whose frequency lies in [-sqrt(B)/2, sqrt(B)/2].

    Frequencies with s > T/2 represent w_s - 2 pi.  Membership uses
    |w_s| <= sqrt(B)/2 with ties included; the boundary comparison is done
    on the integer index so results are platform-stable.
    """
    # s <= T sqrt(B) / (4 pi) on the positive side, symmetric on the negative
    smax = int(math.floor(T * math.sqrt(B) / (4 * math.pi) + 1e-9))
    if smax < 1:
        raise EmptyWindow(
            f"no nonzero Fourier frequency inside the window for T={T}, B={B:.4g}"
        )
    pos = np.arange(1, smax + 1)
    return np.concatenate([pos, T - pos[::-1]])


# Distinct (T, B) keys a process keeps; one experiment needs one per sample
# length.
_G_CACHE_SIZE = 32


@functools.lru_cache(maxsize=_G_CACHE_SIZE)
def g_weights(T: int, B: float) -> np.ndarray:
    """Aggregated smoothing weights g_v, v = 0..T-1 (g_0 reported but unused).

    g_v = (2 pi / T) * sum over window indices s of W^(T)(w_s - w_v).  The
    result depends on (T, B) only, so it is cached per process and returned
    read-only, shared by every caller.
    """
    win = window_indices(T, B)
    # kernel row over index differences k = (s - v) mod T
    kern = kernel_row(T, SmoothingSpec(bandwidth=B)) / B
    ind = np.zeros(T)
    ind[win] = 1.0
    # sum_{s in win} kern[(s - v) % T] as a circular convolution (kern is
    # circularly even, so correlation and convolution coincide)
    g = np.fft.irfft(np.fft.rfft(ind) * np.fft.rfft(kern), n=T).real
    g = (2 * np.pi / T) * g
    g.flags.writeable = False
    return g


@dataclass(frozen=True)
class StatisticCoeffs:
    """Matrix of statistic entries S[a, b] over all basis pairs, with metadata."""

    T: int
    B: float
    degrees: DegreeRange
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        D = self.degrees.dim
        if m.shape != (D, D):
            raise TestError(f"statistic matrix shape {m.shape} != ({D}, {D})")
        object.__setattr__(self, "matrix", m)


def statistic_matrix(dft: DftPanel, B: float) -> StatisticCoeffs:
    """Evaluate S[a, b] for every ordered pair of basis columns."""
    T = dft.T
    g = g_weights(T, B)[1:]
    A = dft.coeffs[1:]
    mat = math.sqrt(T) * (2 * np.pi / T) * ((A * g[:, None]).T @ np.conj(A))
    return StatisticCoeffs(T=T, B=B, degrees=dft.degrees, matrix=mat)


# --- null calibration -------------------------------------------------------

@dataclass(frozen=True)
class NullMoments:
    """Null mean of a diagonal entry and entry variances for a degree pair.

    ``second_moment`` is the shared quadratic kernel
    V2(n, h) = T (2 pi / T)^2 sum_v g_v^2 f_n(w_v) f_h(w_v); the variance of
    entry (a, b) is (1 + delta_ab) * V2(n_a, n_b), and the covariance between
    entries (a, b) and (c, d) is V2 * (delta_ac delta_bd + delta_ad delta_bc).
    """

    T: int
    B: float
    mean_diag: dict  # degree n -> E S[a, a] for any a in degree n
    second_moment: dict  # (n, h) -> V2(n, h)

    def mean(self, a: tuple[int, int], b: tuple[int, int]) -> float:
        return self.mean_diag[a[0]] if a == b else 0.0

    def variance(self, a: tuple[int, int], b: tuple[int, int]) -> float:
        v2 = self.second_moment[(a[0], b[0])]
        return (2.0 if a == b else 1.0) * v2


def null_moments(
    model: SpectralModel,
    T: int,
    B: float,
    mode: str = "grid",
    nodes: int = 256,
) -> NullMoments:
    """Null mean and variance kernel for all degrees of a short-memory model.

    ``mode="grid"`` evaluates the exact finite-T moments of the Gaussian
    quadratic form on the Fourier grid.  ``mode="continuous"`` integrates the
    limiting window profile G by midpoint quadrature with ``nodes`` nodes
    (cross-check only; it carries an O(1/(T sqrt(B))) centering offset).
    A long-memory model is rejected: calibrate against its ``srd_part()``.
    """
    if not model.alpha.is_null:
        raise CalibrationUnderAlternative(
            "model has nonzero memory exponents; calibrate against its "
            "short-range factor (srd_part())"
        )
    degs = list(model.degrees.degrees)
    if mode == "grid":
        g = g_weights(T, B)[1:]
        omegas = reduce_frequency(2 * np.pi * np.arange(1, T) / T)
        f = {n: spectral_eigenvalue(model, n, omegas, Hypothesis.NULL) for n in degs}
        mean_diag = {
            n: math.sqrt(T) * (2 * np.pi / T) * float(np.sum(g * f[n])) for n in degs
        }
        second = {
            (n, h): T * (2 * np.pi / T) ** 2 * float(np.sum(g * g * f[n] * f[h]))
            for n in degs
            for h in degs
        }
    elif mode == "continuous":
        half = math.sqrt(B) / 2.0
        lo, hi = -(half + B), half + B  # support of the window profile G
        w = lo + (hi - lo) * (np.arange(nodes) + 0.5) / nodes
        dw = (hi - lo) / nodes
        G = epanechnikov_cdf((half - w) / B) - epanechnikov_cdf((-half - w) / B)
        f = {n: spectral_eigenvalue(model, n, w, Hypothesis.NULL) for n in degs}
        mean_diag = {n: math.sqrt(T) * float(np.sum(G * f[n])) * dw for n in degs}
        second = {
            (n, h): 2 * np.pi * float(np.sum(G * G * f[n] * f[h])) * dw
            for n in degs
            for h in degs
        }
    else:
        raise TestError(f"unknown null-moment mode {mode!r}")
    for n in degs:
        if second[(n, n)] <= 0:
            raise TestError(f"nonpositive variance for degree {n}")
    return NullMoments(T=T, B=B, mean_diag=mean_diag, second_moment=second)


@functools.lru_cache(maxsize=16)
def critical_value(level: float, one_sided: bool = False) -> float:
    if not 0.0 < level < 1.0:
        raise TestError(f"level must lie in (0, 1), got {level}")
    q = 1.0 - level if one_sided else 1.0 - level / 2.0
    return float(stats.norm.ppf(q))


# --- reports ----------------------------------------------------------------

@dataclass(frozen=True)
class TestReport:
    """Per-pair or per-direction standardized statistics and decisions."""

    mode: str  # "projected" or "random-projection"
    level: float
    one_sided: bool
    rows: list = field(default_factory=list)
    crit: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "crit", critical_value(self.level, self.one_sided))

    def add(self, label: str, statistic: float, z: float) -> None:
        self.extend([label], [statistic], [z])

    def extend(self, labels, statistics, zs) -> None:
        """Append one row per label, deciding all of them in one vector call."""
        zs = np.asarray(zs, dtype=float)
        if self.one_sided:
            p = stats.norm.sf(zs)
            reject = zs > self.crit
        else:
            p = 2.0 * stats.norm.sf(np.abs(zs))
            reject = np.abs(zs) > self.crit
        self.rows.extend(
            {
                "label": label,
                "statistic": float(s),
                "z": float(z),
                "p": float(pv),
                "reject": bool(rej),
            }
            for label, s, z, pv, rej in zip(labels, statistics, zs, p, reject)
        )

    def rejections(self) -> list[bool]:
        return [r["reject"] for r in self.rows]

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "level": self.level,
            "one_sided": self.one_sided,
            "results": self.rows,
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["pair_or_direction", "statistic", "z", "p", "reject"])
            for r in self.rows:
                writer.writerow(
                    [
                        r["label"],
                        f"{r['statistic']:.10g}",
                        f"{r['z']:.10g}",
                        f"{r['p']:.10g}",
                        int(r["reject"]),
                    ]
                )


def default_pairs(degrees: DegreeRange, count: int | None = 8) -> list:
    """First ``count`` (default 8, None for all) diagonal pairs (n, j) = (h, l)
    with n >= 1, in lexicographic order."""
    pairs = [((n, j), (n, j)) for n, j in degrees.index_list() if n >= 1]
    return pairs[:count]


def pair_degrees(pairs) -> DegreeRange:
    """Smallest degree range holding every basis function the pairs name."""
    touched = [n for pair in pairs for n, _ in pair]
    return DegreeRange(min(touched), max(touched))


def projected_test(
    dft: DftPanel,
    moments: NullMoments,
    pairs=None,
    level: float = 0.05,
    one_sided: bool = False,
) -> TestReport:
    """Standardize selected entries of S against their null moments.

    Only the requested entries are formed, each from its two gathered DFT
    columns: S[a, b] = sqrt(T) (2 pi / T) sum_v g_v A[v, a] conj(A[v, b]).
    """
    if pairs is None:
        pairs = default_pairs(dft.degrees)
    T = dft.T
    g = g_weights(T, moments.B)[1:]
    A = dft.coeffs[1:]
    ia = [dft.degrees.column(*a) for a, _ in pairs]
    ib = [dft.degrees.column(*b) for _, b in pairs]
    s = math.sqrt(T) * (2 * np.pi / T) * (g @ (A[:, ia] * np.conj(A[:, ib]))).real
    mean = np.array([moments.mean(a, b) for a, b in pairs])
    sd = np.sqrt([moments.variance(a, b) for a, b in pairs])
    report = TestReport(mode="projected", level=level, one_sided=one_sided)
    labels = [f"({a[0]},{a[1]})x({b[0]},{b[1]})" for a, b in pairs]
    report.extend(labels, s, (s - mean) / sd)
    return report


# --- random directions ------------------------------------------------------

@dataclass(frozen=True)
class Direction:
    """Gaussian random direction Y over basis pairs, Y[a, b] ~ N(0, lambda_{n_a, n_b})."""

    degrees: DegreeRange
    lambdas: np.ndarray  # (n_deg, n_deg) variance table indexed by degree position
    coeffs: np.ndarray  # (D, D) draws

    def __post_init__(self) -> None:
        nd = len(list(self.degrees.degrees))
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.shape != (nd, nd):
            raise TestError(f"lambda table shape {lam.shape} != ({nd}, {nd})")
        if np.any(lam < 0):
            raise TestError("direction variances must be nonnegative")
        c = np.asarray(self.coeffs, dtype=float)
        D = self.degrees.dim
        if c.shape != (D, D):
            raise TestError(f"direction coefficient shape {c.shape} != ({D}, {D})")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "coeffs", c)


# Purpose bit in the second key word of every direction stream.
_DIRECTION_TAG = 1 << 63


def draw_direction(
    degrees: DegreeRange,
    seed: int,
    lambdas: np.ndarray | None = None,
    stream_id: int = 0,
) -> Direction:
    """Draw a Gaussian direction; deterministic given (seed, stream_id).

    The Philox key is (seed, _DIRECTION_TAG | stream_id).  Panel keys
    (``SeedSpec.generator``) keep their second word below 2^60, so the tag bit
    keeps every direction stream apart from every panel stream.
    """
    if not 0 <= stream_id < 2**40:
        raise TestError("stream_id must be a nonnegative 40-bit integer")
    degs = list(degrees.degrees)
    nd = len(degs)
    if lambdas is None:
        lam = np.ones((nd, nd))
    else:
        lam = np.asarray(lambdas, dtype=float)
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed, _DIRECTION_TAG | stream_id], dtype=np.uint64))
    )
    D = degrees.dim
    z = rng.standard_normal((D, D))
    sd = np.empty((D, D))
    for i, n in enumerate(degs):
        oi = degrees.column_offset(n)
        mi = 2 * n + 1
        for k, h in enumerate(degs):
            ok = degrees.column_offset(h)
            mk = 2 * h + 1
            sd[oi : oi + mi, ok : ok + mk] = math.sqrt(lam[i, k])
    return Direction(degrees=degrees, lambdas=lam, coeffs=z * sd)


def direction_from_pair(
    degrees: DegreeRange, a: tuple[int, int], b: tuple[int, int], value: float = 1.0
) -> Direction:
    """Deterministic direction supported on a single ordered pair."""
    nd = len(list(degrees.degrees))
    coeffs = np.zeros((degrees.dim, degrees.dim))
    coeffs[degrees.column(*a), degrees.column(*b)] = value
    return Direction(degrees=degrees, lambdas=np.ones((nd, nd)), coeffs=coeffs)


def _degree_of_column(degrees: DegreeRange) -> np.ndarray:
    return np.asarray([n for n, _ in degrees.index_list()])


def random_projection_test(
    dft: DftPanel,
    directions,
    moments: NullMoments,
    level: float = 0.05,
    one_sided: bool = False,
) -> TestReport:
    """Project S - E[S] onto each direction and standardize the projection.

    The projection <S - E[S], Y> = sum_ab Y[a, b] (S[a, b] - E S[a, b]) is a
    linear functional of jointly Gaussian entries, so its null variance is the
    bilinear form sum_ab Y[a, b] (Y[a, b] + Y[b, a]) V2(n_a, n_b).
    """
    if isinstance(directions, Direction):
        directions = [directions]
    coeffs = statistic_matrix(dft, moments.B)
    degrees = dft.degrees
    coln = _degree_of_column(degrees)
    v2 = np.asarray(
        [[moments.second_moment[(n, h)] for h in coln] for n in coln]
    )
    mean_mat = np.diag([moments.mean_diag[n] for n in coln])
    centered = coeffs.matrix.real - mean_mat
    report = TestReport(mode="random-projection", level=level, one_sided=one_sided)
    for k, direction in enumerate(directions):
        Y = direction.coeffs
        z_num = float(np.sum(Y * centered))
        var = float(np.sum(Y * (Y + Y.T) * v2))
        if var <= 0:
            raise ZeroVarianceDirection(f"direction {k} has zero projection variance")
        report.add(f"direction_{k}", z_num, z_num / math.sqrt(var))
    return report


# --- aggregate norms --------------------------------------------------------

def projected_hs_norm(coeffs: StatisticCoeffs, scale: str = "gridsum") -> float:
    """Frobenius norm of the statistic matrix.

    ``scale="statistic"`` uses the entries as defined here.  ``scale="gridsum"``
    multiplies every entry by T^2 / (2 pi)^4: both Riemann weights (one from
    the smoothing sum, one from the window sum) are replaced by plain grid
    sums and frequencies are expressed in cycles rather than radians.  This is
    the convention used when comparing divergence magnitudes across T.
    """
    norm = float(np.sqrt(np.sum(np.abs(coeffs.matrix) ** 2)))
    if scale == "statistic":
        return norm
    if scale == "gridsum":
        return norm * coeffs.T**2 / (2 * np.pi) ** 4
    raise TestError(f"unknown norm scale {scale!r}")
