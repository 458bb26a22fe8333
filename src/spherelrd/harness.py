"""Monte Carlo experiment drivers: size, power, null distribution, divergence,
bandwidth sweeps, and estimator-consistency decay.

Every experiment is a pure function of (config, seed): replications are keyed
by counter-based streams (stream_id = replication index), so results are
identical for any worker count.  Parallelism is replication-level via
``concurrent.futures.ProcessPoolExecutor``.

Replications are cut into at most four chunks whose boundaries depend on R
alone (``ceil(R / 4)`` replications each), never on the worker count.  The
chunk results are reduced in chunk order, so floating-point sums group the
same way at one worker and at many, and the tables agree bit for bit.

Rejection experiments (size, power) simulate only the degrees their pairs
touch and form only the entries those pairs name; per-degree streams make
this exact, not an approximation.

The consistency experiment reduces each replication to the diagonal smoothed
periodogram of every column at every Fourier frequency, a (D, T) array from
one ``smoothed_spectrum_grid`` call, and accumulates its sum and its sum of
squares.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from . import __version__
from .models import SpectralModel
from .simulate import SeedSpec, simulate_panel
from .spectral import SmoothingSpec, fdft_panel, reduce_frequency, smoothed_spectrum_grid
from .lrdtest import (
    BandwidthRule,
    NullMoments,
    TestError,
    bandwidth,
    default_pairs,
    g_weights,
    null_moments,
    pair_degrees,
    projected_hs_norm,
    projected_test,
    statistic_matrix,
)


class HarnessError(ValueError):
    pass


class InsufficientReplications(HarnessError):
    pass


def thread_count(requested: int | None = None) -> int:
    """Resolve the worker count: explicit arg, else SPHARMA_LRD_THREADS, else 1."""
    if requested is not None:
        n = int(requested)
    else:
        n = int(os.environ.get("SPHARMA_LRD_THREADS", "1"))
    if n < 1:
        raise HarnessError(f"thread count must be >= 1, got {n}")
    return n


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared experiment parameters.

    ``model`` is the data-generating model; ``calibration`` the null model used
    for standardization (defaults to the short-memory factor of ``model``).
    """

    model: SpectralModel
    T_values: tuple
    R: int = 500
    beta: float = 0.25
    level: float = 0.05
    n_directions: int = 8
    seed: int = 20260825
    calibration: SpectralModel | None = None
    threads: int | None = None

    def __post_init__(self) -> None:
        if self.R < 1:
            raise HarnessError("R must be >= 1")
        if not 0.0 < self.level < 1.0:
            raise HarnessError("level must lie in (0, 1)")
        available = len(default_pairs(self.model.degrees, count=None))
        if not 1 <= self.n_directions <= available:
            raise HarnessError(
                f"directions must lie in [1, {available}] for degrees "
                f"{self.model.degrees.n_min}..{self.model.degrees.n_max}, "
                f"got {self.n_directions}"
            )
        ts = tuple(int(t) for t in self.T_values)
        if not ts:
            raise HarnessError("need at least one sample length")
        for t in ts:
            if t < 64:
                warnings.warn(
                    f"sample length T={t} below 64; asymptotic calibration is rough",
                    stacklevel=2,
                )
        object.__setattr__(self, "T_values", ts)

    def null_model(self) -> SpectralModel:
        if self.calibration is not None:
            return self.calibration
        return self.model if self.model.is_null() else self.model.srd_part()

    def rule(self) -> BandwidthRule:
        return BandwidthRule(beta=self.beta)


@dataclass
class McTable:
    """Long-format result rows plus a reproducibility manifest."""

    experiment: str
    rows: list = field(default_factory=list)
    manifest: dict = field(default_factory=dict)

    def add(self, T: int, R: int, beta: float, key: str, value: float, se: float = float("nan")) -> None:
        self.rows.append(
            {
                "experiment": self.experiment,
                "T": int(T),
                "R": int(R),
                "beta": float(beta),
                "key": key,
                "value": float(value),
                "se": float(se),
            }
        )

    def values(self, key_prefix: str = "", T: int | None = None) -> list:
        return [
            r["value"]
            for r in self.rows
            if r["key"].startswith(key_prefix) and (T is None or r["T"] == T)
        ]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["experiment", "T", "R", "beta", "key", "value", "se"])
            for r in self.rows:
                writer.writerow(
                    [
                        r["experiment"],
                        r["T"],
                        r["R"],
                        f"{r['beta']:.10g}",
                        r["key"],
                        f"{r['value']:.10g}",
                        f"{r['se']:.10g}",
                    ]
                )

    def write_manifest(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.manifest, fh, indent=2)

    def to_dict(self) -> dict:
        return {"experiment": self.experiment, "manifest": self.manifest, "rows": self.rows}


def _model_manifest(model: SpectralModel) -> dict:
    """Every field of ``model`` as JSON values, so the config hash covers all of it."""
    return {
        "degrees": [model.degrees.n_min, model.degrees.n_max],
        "phi": model.phi.tolist(),
        "psi": model.psi.tolist(),
        "innov": model.innov.tolist(),
        "alpha": model.alpha.values.tolist(),
        "alpha_tail": float(model.alpha.tail_value),
        "alpha_extended": bool(model.alpha.extended),
    }


def _config_manifest(config: ExperimentConfig, experiment: str) -> dict:
    desc = {
        "experiment": experiment,
        "T_values": list(config.T_values),
        "R": config.R,
        "beta": config.beta,
        "level": config.level,
        "n_directions": config.n_directions,
        "seed": config.seed,
        **_model_manifest(config.model),
        "calibration": _model_manifest(config.null_model()),
    }
    digest = hashlib.sha256(json.dumps(desc, sort_keys=True).encode()).hexdigest()[:16]
    return {**desc, "config_hash": digest, "version": __version__}


def _binomial_se(rate: float, R: int) -> float:
    return math.sqrt(max(rate * (1.0 - rate), 0.0) / R)


# --- worker functions (top-level for pickling) ------------------------------

def _rejections_chunk(args) -> np.ndarray:
    model, degrees, moments, pairs, T, level, seed, streams = args
    counts = np.zeros(len(pairs))
    for r in streams:
        seed_r = SeedSpec(base_seed=seed, stream_id=r)
        panel = simulate_panel(model, T, seed_r, degrees=degrees)
        report = projected_test(fdft_panel(panel), moments, pairs=pairs, level=level)
        counts += np.array(report.rejections(), dtype=float)
    return counts


def _diag_z_chunk(args) -> np.ndarray:
    """Standardized diagonal statistics, shape (len(streams), D)."""
    model, moments, T, seed, streams = args
    degrees = model.degrees
    out = np.empty((len(streams), degrees.dim))
    means = np.array([moments.mean_diag[n] for n, _ in degrees.index_list()])
    sds = np.sqrt(
        [moments.variance((n, j), (n, j)) for n, j in degrees.index_list()]
    )
    for i, r in enumerate(streams):
        panel = simulate_panel(model, T, SeedSpec(base_seed=seed, stream_id=r))
        coeffs = statistic_matrix(fdft_panel(panel), moments.B)
        out[i] = (np.diag(coeffs.matrix).real - means) / sds
    return out


def _norm_chunk(args) -> np.ndarray:
    model, T, B, seed, streams = args
    out = np.empty((len(streams), 2))
    for i, r in enumerate(streams):
        panel = simulate_panel(model, T, SeedSpec(base_seed=seed, stream_id=r))
        coeffs = statistic_matrix(fdft_panel(panel), B)
        out[i, 0] = projected_hs_norm(coeffs, scale="statistic")
        out[i, 1] = projected_hs_norm(coeffs, scale="gridsum")
    return out


def _spectrum_moment_chunk(args) -> tuple:
    """Accumulate sums and squared sums of diagonal f_hat over the Fourier grid."""
    model, T, B, seed, streams = args
    spec = SmoothingSpec(bandwidth=B)
    acc = np.zeros((model.degrees.dim, T))
    acc2 = np.zeros_like(acc)
    for r in streams:
        panel = simulate_panel(model, T, SeedSpec(base_seed=seed, stream_id=r))
        vals = smoothed_spectrum_grid(fdft_panel(panel), spec)
        acc += vals
        acc2 += np.square(vals, out=vals)
    return acc, acc2


# Replication chunks per experiment and T.  A fixed count keeps the chunk
# boundaries, and with them the grouping of floating-point sums across
# chunks, the same for every worker count.
_N_CHUNKS = 4


def _chunks(R: int) -> list:
    per = math.ceil(R / _N_CHUNKS)
    return [list(range(i, min(i + per, R))) for i in range(0, R, per)]


def _map_reduce(worker, arg_builder, R: int, threads: int | None):
    n = thread_count(threads)
    chunks = _chunks(R)
    args = [arg_builder(c) for c in chunks]
    if n == 1:
        return [worker(a) for a in args]
    with ProcessPoolExecutor(max_workers=min(n, len(args))) as pool:
        return list(pool.map(worker, args))


# --- experiments ------------------------------------------------------------

def _calibrate(config: ExperimentConfig, calib: SpectralModel) -> list:
    """Null moments for every T, resolved before any replication runs, so a T
    with a degenerate bandwidth or an empty window fails first."""
    return [null_moments(calib, T, bandwidth(T, config.rule())) for T in config.T_values]


def run_size(config: ExperimentConfig) -> McTable:
    """Per-direction empirical rejection rate under the null model."""
    model = config.model
    if not model.is_null():
        raise HarnessError("run_size requires a short-memory (null) model")
    return _rejection_experiment(config, "size", model, model)


def run_power(config: ExperimentConfig) -> McTable:
    """Per-direction rejection rate under the alternative, null-calibrated."""
    if config.model.is_null():
        warnings.warn("run_power on a null model reduces to run_size", stacklevel=2)
    return _rejection_experiment(config, "power", config.model, config.null_model())


def _rejection_experiment(
    config: ExperimentConfig, name: str, model: SpectralModel, calib: SpectralModel
) -> McTable:
    table = McTable(name, manifest=_config_manifest(config, name))
    pairs = default_pairs(model.degrees, config.n_directions)
    degrees = pair_degrees(pairs)
    for T, moments in zip(config.T_values, _calibrate(config, calib)):
        results = _map_reduce(
            _rejections_chunk,
            lambda c: (model, degrees, moments, pairs, T, config.level, config.seed, c),
            config.R,
            config.threads,
        )
        counts = np.sum(results, axis=0)
        for i, rate in enumerate(counts / config.R):
            table.add(T, config.R, config.beta, f"direction_{i}", rate, _binomial_se(rate, config.R))
    return table


def run_distribution(config: ExperimentConfig, n_bins: int = 41) -> McTable:
    """Pooled standardized diagonal statistics per eigenspace: KS, variance, histogram."""
    model = config.model
    calib = config.null_model()
    table = McTable("distribution", manifest=_config_manifest(config, "distribution"))
    edges = np.linspace(-5.0, 5.0, n_bins + 1)
    for T, moments in zip(config.T_values, _calibrate(config, calib)):
        results = _map_reduce(
            _diag_z_chunk,
            lambda c: (model, moments, T, config.seed, c),
            config.R,
            config.threads,
        )
        z = np.vstack(results)  # (R, D)
        for n in model.degrees.degrees:
            off = model.degrees.column_offset(n)
            pooled = z[:, off : off + 2 * n + 1].ravel()
            ks = stats.kstest(pooled, "norm").statistic
            table.add(T, config.R, config.beta, f"ks_n{n}", ks)
            table.add(T, config.R, config.beta, f"mean_n{n}", float(pooled.mean()))
            table.add(T, config.R, config.beta, f"var_n{n}", float(pooled.var()))
            hist, _ = np.histogram(pooled, bins=edges, density=True)
            for b, h in enumerate(hist):
                table.add(T, config.R, config.beta, f"hist_n{n}_bin{b}", float(h))
    return table


def run_divergence(config: ExperimentConfig, mode: str = "single") -> McTable:
    """Projected Hilbert-Schmidt norms of the statistic over the T grid.

    ``mode="single"`` reports one seeded realization per T; ``mode="averaged"``
    the median over min(R, 20) replications.  Both the statistic-scale and the
    grid-sum (table-comparable) norms are reported.
    """
    if mode not in ("single", "averaged"):
        raise HarnessError(f"unknown divergence mode {mode!r}")
    R = 1 if mode == "single" else min(config.R, 20)
    table = McTable("divergence", manifest=_config_manifest(config, "divergence"))
    Bs = [bandwidth(T, config.rule()) for T in config.T_values]
    for T, B in zip(config.T_values, Bs):
        g_weights(T, B)  # an empty window fails here, before any replication
    for T, B in zip(config.T_values, Bs):
        results = _map_reduce(
            _norm_chunk,
            lambda c: (config.model, T, B, config.seed, c),
            R,
            config.threads,
        )
        norms = np.vstack(results)
        stat = float(np.median(norms[:, 0]))
        grid = float(np.median(norms[:, 1]))
        table.add(T, R, config.beta, "hs_norm_statistic", stat)
        table.add(T, R, config.beta, "hs_norm_gridsum", grid)
    return table


def run_bandwidth_sweep(config: ExperimentConfig, betas=(0.2, 0.55, 0.9), mode: str = "expected") -> McTable:
    """(T B_T)^(-1/2)-rescaled grid-sum norms over a beta x T grid.

    The default ``mode="expected"`` evaluates the norm of the expected
    statistic under the model's short-memory calibration, which is the
    deterministic quantity that is stable across bandwidth exponents (the
    rescaling cancels its sqrt(B T) growth exactly).  Realized-norm modes
    ``"single"`` and ``"averaged"`` are available for exploration; under long
    memory their low-frequency pole contribution does not scale with
    sqrt(B T), so they are not bandwidth-stable.
    """
    if mode not in ("expected", "single", "averaged"):
        raise HarnessError(f"unknown sweep mode {mode!r}")
    table = McTable("bandwidth_sweep", manifest=_config_manifest(config, "bandwidth_sweep"))
    calib = config.null_model()
    gridsum = lambda T: float(T) ** 2 / (2 * math.pi) ** 4
    for beta in betas:
        rule = BandwidthRule(beta=beta)
        for T in config.T_values:
            B = bandwidth(T, rule)
            if mode == "expected":
                # continuous window profile: exact sqrt(B T) mean scaling even
                # when B falls below the Fourier grid spacing
                moments = null_moments(calib, T, B, mode="continuous")
                dims = [2 * n + 1 for n in calib.degrees.degrees]
                norm = math.sqrt(
                    sum(d * moments.mean_diag[n] ** 2 for d, n in zip(dims, calib.degrees.degrees))
                ) * gridsum(T)
                R = 0
            else:
                R = 1 if mode == "single" else min(config.R, 20)
                results = _map_reduce(
                    _norm_chunk,
                    lambda c: (config.model, T, B, config.seed, c),
                    R,
                    config.threads,
                )
                norm = float(np.median(np.vstack(results)[:, 1]))
            table.add(T, R, beta, "rescaled_norm", norm / math.sqrt(B * T))
    return table


def run_consistency(config: ExperimentConfig) -> McTable:
    """Decay of the integrated Monte Carlo variance of the smoothed spectrum.

    For each T the quantity reported is the frequency-integrated, basis-summed
    pointwise variance (2 pi / T) sum_s sum_a Var_MC(f_hat_{w_s}[a, a]); its
    log-log slope against B_T T estimates the variance decay rate of the
    integrated weighted periodogram (expected -1).  Ordinates inside the
    low-frequency statistic window [-sqrt(B)/2, sqrt(B)/2] are excluded: under
    long memory the pointwise variance there is pole-dominated and does not
    follow the short-memory decay law.
    """
    if config.R < 2:
        raise InsufficientReplications("variance estimation requires R >= 2")
    table = McTable("consistency", manifest=_config_manifest(config, "consistency"))
    logx, logy = [], []
    for T in config.T_values:
        B = bandwidth(T, config.rule())
        results = _map_reduce(
            _spectrum_moment_chunk,
            lambda c: (config.model, T, B, config.seed, c),
            config.R,
            config.threads,
        )
        acc = sum(r[0] for r in results)
        acc2 = sum(r[1] for r in results)
        var = acc2 / config.R - (acc / config.R) ** 2
        omegas = np.abs(reduce_frequency(2 * np.pi * np.arange(T) / T))
        keep = omegas > math.sqrt(B) / 2.0
        keep[0] = False
        integrated = float((2 * np.pi / T) * var[:, keep].sum())
        table.add(T, config.R, config.beta, "integrated_variance", integrated)
        logx.append(math.log(B * T))
        logy.append(math.log(integrated))
    if len(logx) >= 2:
        slope = float(np.polyfit(logx, logy, 1)[0])
        table.add(0, config.R, config.beta, "loglog_slope", slope)
    return table
