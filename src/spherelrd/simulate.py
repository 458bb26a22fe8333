"""Sample-path generation for (multifractionally integrated) SPHARMA processes.

Each harmonic coefficient (n, j) follows a scalar ARMA(p, q) recursion driven
by Gaussian white noise with variance innov_n; the 2n+1 orders within a degree
are i.i.d. copies.  When alpha(n) > 0 the ARMA output is passed through the
truncated fractional-integration filter (1 - B)^(-alpha(n)), realized as an
MA convolution with the standard fractional-differencing weights (Hosking
1981).  Filtering with exponent a multiplies the spectral density by
|1 - e^{-iw}|^(-2a), so alpha(n) is the differencing order d.

The ARMA recursion starts in its stationary law, so no warm-up rows are
drawn and discarded.  Its r = max(p, q) state values s_t obey
s_t = F s_{t-1} + g e_t (direct form II transposed); the initial state is
drawn from N(0, innov_n P), where P = F P F' + g g' is the stationary state
covariance (Gardner, Harvey & Phillips 1980).  Started from that state, the
recursion is the banded lower-triangular system a(B) y = b(B) e + s, where
s holds the initial state in its first r rows and zeros below.  The MA terms
and the state are added to the scaled innovations in the row-major array the
stream filled, which is then copied once into the degree's columns, and one
LAPACK banded triangular solve (``dtbtrs``, unit diagonal, p subdiagonals
a_1..a_p) overwrites those columns with the path.  This is the recursion
``scipy.signal.lfilter`` runs in direct form II transposed from the state s,
up to float rounding.

Panels are column-major, so every degree's 2n+1 columns are one contiguous
block that LAPACK solves in place: a degree with no pre-sample is solved in
its own columns of the panel.  A long-memory degree is solved in one
column-major scratch buffer of pre-sample + T rows, whose columns the
fractional filter then transforms.

The convolution is computed only for the T kept output rows: it reads the
truncation + T ARMA rows and multiplies their real FFT by the weights'
spectrum, which depends only on (alpha, truncation, FFT length) and is cached
per process.  The FFT is at least truncation + T long and only rows with the
full filter depth are kept, so the circular wrap never reaches a kept row.

Randomness comes from one SFC64 stream per (base_seed, stream_id, degree),
keyed by ``SeedSequence(base_seed, spawn_key=(stream_id, degree))``, so panels
are bit-reproducible under any parallel decomposition.  Each degree first
draws its r x (2n+1) state normals (none for white noise), then its
(pre + T) x (2n+1) innovations, where the pre-sample is the filter truncation
when alpha(n) > 0 and empty otherwise.  The support sampler (``sampler``)
draws from streams keyed (stream_id, degree, T) instead, which no panel
stream shares.

A panel may cover a contiguous sub-range of the model's degrees.  Because a
degree's stream does not depend on which other degrees are drawn, the
sub-range panel equals the matching columns of the full panel bit for bit.

A panel of length T is the first T rows of the panel of any longer length
T' on the same seed: a degree's stream yields the same state normals and
then the same innovations in row order, the pre-sample is ``_TRUNCATION``
rows whatever T is, and both the ARMA recursion and the fractional filter
are causal.  White-noise and short-memory degrees match bit for bit; in a
long-memory degree only the FFT length of the filter changes with T, which
moves the rounding (about 1e-15 of the panel's scale).  The harness reads
every T of an experiment from one panel at the longest T.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from . import SpherelrdError, _integer
from .harmonics import DegreeRange
from .models import SpectralModel


@dataclass(frozen=True)
class SeedSpec:
    """Reproducible RNG identity: base seed plus replication stream index,
    each an integer (a boolean or a fractional number is an error)."""

    base_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("base_seed", "stream_id"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if not 0 <= self.base_seed < 2**64:
            raise SpherelrdError("base_seed must fit in 64 bits")
        if not 0 <= self.stream_id < 2**40:
            raise SpherelrdError("stream_id must be a nonnegative 40-bit integer")

    def generator(self, degree: int) -> np.random.Generator:
        """The panel stream of ``degree``, keyed (stream_id, degree)."""
        return self._stream(degree)

    def support_generator(self, degree: int, T: int) -> np.random.Generator:
        """The support sampler's stream of ``degree`` at sample length ``T``,
        keyed (stream_id, degree, T): a three-entry key, so no panel key equals it."""
        return self._stream(degree, T)

    def _stream(self, *key: int) -> np.random.Generator:
        seq = np.random.SeedSequence(self.base_seed, spawn_key=(self.stream_id, *key))
        return np.random.Generator(np.random.SFC64(seq))


# Names the streams of SeedSpec.generator and the stationary start of
# simulate_panel.  Every manifest hashes it, so a table drawn another way gets
# another config hash: change it with either of them.
STREAMS = "sfc64-seedsequence/stationary-start"


# Length of the truncated fractional filter psi_0..psi_K.
_TRUNCATION = 2000


@dataclass(frozen=True)
class CoefficientPanel:
    """T x D real matrix of harmonic coefficients, columns (n asc, j asc)."""

    T: int
    degrees: DegreeRange
    data: np.ndarray

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=float)
        if data.shape != (self.T, self.degrees.dim):
            raise SpherelrdError(
                f"panel shape {data.shape} != ({self.T}, {self.degrees.dim})"
            )
        if not np.all(np.isfinite(data)):
            raise SpherelrdError("panel contains non-finite entries")
        object.__setattr__(self, "data", data)


def fractional_weights(alpha: float, truncation: int) -> np.ndarray:
    """MA(inf) weights of (1 - B)^(-alpha), psi_0..psi_K, by stable recursion."""
    if not 0.0 <= alpha < 1.0:
        raise SpherelrdError(f"fractional exponent must lie in [0, 1), got {alpha}")
    psi = np.empty(truncation + 1)
    psi[0] = 1.0
    for k in range(1, truncation + 1):
        psi[k] = psi[k - 1] * (k - 1 + alpha) / k
    return psi


@functools.cache
def _fast_len(n: int) -> int:
    """Smallest 5-smooth length >= n, the real FFT's fastest (what
    ``scipy.fft.next_fast_len(n, real=True)`` returns)."""
    best = 1 << (n - 1).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            f = f35
            while f < n:
                f *= 2
            best = min(best, f)
            f35 *= 3
        f5 *= 5
    return best


# Distinct (alpha, truncation, FFT length) keys a process keeps; one
# experiment needs one per distinct alpha(n) and sample length.
_SPECTRUM_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_SPECTRUM_CACHE_SIZE)
def _weight_spectrum(alpha: float, truncation: int, nfft: int) -> np.ndarray:
    """Real FFT of psi_0..psi_K zero-padded to ``nfft``; read-only, shared by callers."""
    spectrum = np.fft.rfft(fractional_weights(alpha, truncation), nfft)
    spectrum.flags.writeable = False
    return spectrum


# Distinct ARMA (b, a) pairs a process keeps; a model has at most one per degree.
_STATE_CACHE_SIZE = 64


def _state_space(b: tuple, a: tuple) -> tuple:
    """(F, g) of the r = max(p, q) states of b(B) / a(B) in direct form II
    transposed: s_t = F s_{t-1} + g e_t and y_t = b_0 e_t + s_{t-1}[0]."""
    r = max(len(a), len(b)) - 1
    bb = np.zeros(r + 1)
    aa = np.zeros(r + 1)
    bb[: len(b)] = b
    aa[: len(a)] = a
    F = np.eye(r, k=1)
    F[:, 0] = -aa[1:]
    return F, bb[1:] - aa[1:] * bb[0]


@functools.lru_cache(maxsize=_STATE_CACHE_SIZE)
def _stationary_state_root(b: tuple, a: tuple) -> np.ndarray:
    """Square root L (L L' = P) of the stationary covariance of the r ARMA
    states of b(B) / a(B) driven by unit white noise; read-only, shared by callers.

    P may be singular: a degree whose AR and MA orders fall below the
    model's keeps a state at 0, and an MA factor that nearly cancels an AR
    factor leaves P singular up to rounding.  So the root comes from an
    eigendecomposition with negative rounding eigenvalues clipped to zero,
    not from a Cholesky factor.
    """
    F, g = _state_space(b, a)
    vals, vecs = np.linalg.eigh(linalg.solve_discrete_lyapunov(F, np.outer(g, g)))
    root = vecs * np.sqrt(np.clip(vals, 0.0, None))
    root.flags.writeable = False
    return root


# Distinct (a, rows) AR band matrices a process keeps; a model has at most one
# a per degree, and an experiment one row count per degree.
_BAND_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_BAND_CACHE_SIZE)
def _ar_band(a: tuple, rows: int) -> np.ndarray:
    """The rows x rows unit lower-triangular Toeplitz matrix of a(B) in LAPACK
    lower band storage: row k holds a_k (row 0, the unit diagonal, is not
    read); read-only, shared by callers."""
    band = np.empty((len(a), rows))
    band[:] = np.array(a)[:, None]
    band.flags.writeable = False
    return band


def _arma(out: np.ndarray, normals: np.ndarray, scale: float, b: tuple, a: tuple,
          zi: np.ndarray | None) -> None:
    """Overwrite the column-major ``out`` with the ARMA path a(B) y = b(B) e
    driven by e = scale * normals and started from the state ``zi`` (None
    for white noise), as ``lfilter(b, a, e, axis=0, zi=zi)[0]`` would.

    The right-hand side b(B) e + zi is built in the row-major ``normals``,
    which it overwrites, copied into ``out`` once and solved there by
    ``dtbtrs``; with an F-contiguous ``out`` LAPACK neither copies nor
    allocates the panel.
    """
    normals *= scale
    # every MA term reads the innovations before any term is added
    terms = [bk * normals[:-k] for k, bk in enumerate(b[1:], 1)]
    for k, term in enumerate(terms, 1):
        normals[k:] += term
    if zi is not None:
        rows = min(len(zi), len(normals))
        normals[:rows] += zi[:rows]
    np.copyto(out, normals)
    if len(a) > 1:
        y, info = linalg.lapack.dtbtrs(_ar_band(a, len(out)), out, uplo="L", diag="U",
                                       overwrite_b=1)
        if info != 0 or not np.shares_memory(y, out):
            raise SpherelrdError(f"banded ARMA solve failed in place (info {info})")


def simulate_panel(
    model: SpectralModel,
    T: int,
    seed: SeedSpec,
    degrees: DegreeRange | None = None,
) -> CoefficientPanel:
    """Draw one panel of length T from the model.

    Every degree's ARMA recursion starts from a state drawn from its
    stationary law, so the first kept row is already stationary.  Degrees
    with alpha(n) > 0 filter a pre-sample of ``_TRUNCATION`` ARMA rows before
    the T kept rows, so that every kept row sees the full filter depth.  Per
    degree the stream yields the state normals, then the innovations.
    ``degrees`` restricts the panel to a sub-range of ``model.degrees``
    (default: all).
    """
    if T < 2:
        raise SpherelrdError("sample length must be at least 2")
    full = model.degrees
    if degrees is None:
        degrees = full
    elif not full.n_min <= degrees.n_min <= degrees.n_max <= full.n_max:
        raise SpherelrdError(f"degrees {degrees} outside the model's {full}")
    r = max(model.p, model.q)
    data = np.empty((T, degrees.dim), order="F")
    widths = [2 * n + 1 for n in degrees.degrees if model.alpha.values[n - full.n_min] > 0]
    if widths:
        scratch = np.empty((_TRUNCATION + T, max(widths)), order="F")
    for n in degrees.degrees:
        i = n - full.n_min
        m = 2 * n + 1
        a = float(model.alpha.values[i])
        rng = seed.generator(n)
        scale = np.sqrt(model.innov[i])
        b = (1.0, *model.psi[i])
        aa = (1.0, *-model.phi[i])
        zi = _stationary_state_root(b, aa) @ rng.standard_normal((r, m)) * scale if r else None
        off = degrees.column_offset(n)
        x = scratch[:, :m] if a > 0 else data[:, off : off + m]
        _arma(x, rng.standard_normal(x.shape), scale, b, aa, zi)
        if a > 0:
            # conv[t] = sum_k psi_k x_{t-k} for the kept t >= K reads all of
            # x; rows K..K+T-1 of its circular convolution are exact
            K = _TRUNCATION
            nfft = _fast_len(K + T)
            xs = np.fft.rfft(x, nfft, axis=0)
            xs *= _weight_spectrum(a, K, nfft)[:, None]
            data[:, off : off + m] = np.fft.irfft(xs, nfft, axis=0)[K : K + T]
    return CoefficientPanel(T=T, degrees=degrees, data=data)
