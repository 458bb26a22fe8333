"""Monte Carlo experiment drivers: size, power, null distribution, divergence,
bandwidth sweeps, and estimator-consistency decay.

Every experiment runs on one replication engine.  It first builds one plan
per experiment (the model or the simulated degree sub-range, every sample
length T, the seed, and a reducer with each T's fixed arguments), which
resolves every T's bandwidth, window and null moments before any replication
runs.  One worker runs a chunk of replications: each simulates one panel at
the longest T, and each T reads that panel's first T rows, takes their DFT
and calls the reducer, which adds the replication into the chunk's running
sum or writes it as one row of a stacked array.  A shorter panel is the
prefix of a longer one on the same stream (see ``simulate``), so this equals
simulating every T on its own: bit for bit in null degrees, up to float
rounding in long-memory ones.  All chunks of an experiment go to one process
pool, or run inline at one worker.

Replications are keyed by per-degree seeded streams (stream_id = replication
index) and cut into at most four chunks whose boundaries depend on R alone,
never on the worker count.  Chunks are stacked, or added one by one into a
running total as they arrive, in chunk order, so the tables agree bit for bit
at any worker count.  Size and power simulate only the degrees their columns
touch; per-degree streams make this exact.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
import scipy
from scipy import special

from . import SpherelrdError, __version__, _integer
from .harmonics import DegreeRange
from .models import SpectralModel
from .simulate import STREAMS, SeedSpec, simulate_panel
from .spectral import fdft_panel, reduce_frequency, smoothed_spectrum_grid
from .lrdtest import (
    _entries,
    bandwidth,
    column_degrees,
    critical_value,
    g_weights,
    leading_columns,
    null_moments,
    profile_mean_diag,
    statistic_matrix,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared experiment parameters: ``model``, one field per key of a
    config's experiment section (``EXPERIMENT_FIELDS``), and ``threads``.

    ``model`` is the data-generating model; it is calibrated against its
    short-memory factor (see ``null_model``).  ``threads`` is the worker
    count.  The bandwidth sweep runs over the exponents ``betas``; every
    other experiment reads ``beta``.  Each integer field must hold an
    integer (a boolean, or a number with a fractional part, is an error
    naming its config key).  The worker count, the seed, R, and T and betas
    (each nonempty, none listed twice) are checked here, so a bad one fails
    before any run; ``level``, the range of ``n_directions`` and each
    exponent only where they are read (``critical_value``,
    ``leading_columns``, ``bandwidth``), also before.
    """

    model: SpectralModel
    T_values: tuple = (1000,)
    R: int = 500
    beta: float = 0.25
    level: float = 0.05
    n_directions: int = 8
    seed: int = 20260825
    betas: tuple = (0.2, 0.55, 0.9)
    threads: int = 1

    def __post_init__(self) -> None:
        ts = tuple(_integer("T", t) for t in self.T_values)
        for key, name in (("R", "R"), ("directions", "n_directions"), ("seed", "seed"),
                          ("threads", "threads")):
            object.__setattr__(self, name, _integer(key, getattr(self, name)))
        if self.threads < 1:
            raise SpherelrdError(f"thread count must be >= 1, got {self.threads}")
        SeedSpec(base_seed=self.seed)  # the range check every replication makes
        if self.R < 1:
            raise SpherelrdError("R must be >= 1")
        betas = tuple(self.betas)
        for key, values in (("T", ts), ("betas", betas)):
            if not values:
                raise SpherelrdError(f"{key!r} lists no value")
            if len(set(values)) < len(values):
                raise SpherelrdError(f"{key!r} lists a value more than once: {list(values)}")
        for t in ts:
            if t < 64:
                # level 3 skips this method and the generated __init__, so
                # the warning names the line that built the config
                warnings.warn(
                    f"sample length T={t} below 64; asymptotic calibration is rough",
                    stacklevel=3,
                )
        object.__setattr__(self, "T_values", ts)
        object.__setattr__(self, "betas", betas)

    def null_model(self) -> SpectralModel:
        """The model itself when null, else its short-memory factor: built on
        first call and kept, so a run validates it once."""
        kept = self.__dict__
        if "_null_model" not in kept:
            model = self.model
            kept["_null_model"] = model if model.alpha.is_null else model.srd_part()
        return kept["_null_model"]

    def rule(self) -> float:
        """``beta``, as ``bandwidth`` takes it; perfbench/child.py calls this."""
        return self.beta


@dataclass
class McTable:
    """Long-format result rows, each a dict keyed by ``COLUMNS`` in that
    order, plus a reproducibility manifest."""

    COLUMNS = ("experiment", "T", "R", "beta", "key", "value", "se")

    experiment: str
    rows: list = field(default_factory=list)
    manifest: dict = field(default_factory=dict)

    def add(self, T: int, R: int, beta: float, key: str, value: float, se: float = float("nan")) -> None:
        row = (self.experiment, int(T), int(R), float(beta), key, float(value), float(se))
        self.rows.append(dict(zip(self.COLUMNS, row)))


def _model_manifest(model: SpectralModel) -> dict:
    """Every field of ``model`` as JSON values, so the config hash covers all of it."""
    return {
        "degrees": [model.degrees.n_min, model.degrees.n_max],
        "phi": model.phi.tolist(),
        "psi": model.psi.tolist(),
        "innov": model.innov.tolist(),
        "alpha": model.alpha.values.tolist(),
        "alpha_extended": bool(model.alpha.extended),
    }


def _config_manifest(config: ExperimentConfig, experiment: str) -> dict:
    """The manifest of ``experiment`` on ``config``: the fields of the keys
    it reads (``EXPERIMENTS``), the model and the RNG when it replicates,
    and the null model when it calibrates, so only what it reads moves its
    hash; then, outside the hash, the package and library versions."""
    reads = EXPERIMENTS[experiment]
    replicates = "R" in reads.keys
    desc = {"experiment": experiment}
    for key in reads.keys:
        name = EXPERIMENT_FIELDS[key]
        value = getattr(config, name)
        desc[name] = list(value) if isinstance(value, tuple) else value
    if replicates:
        desc.update(_model_manifest(config.model))
    if reads.calibrates:
        desc["calibration"] = _model_manifest(config.null_model())
    if replicates:
        desc["rng"] = STREAMS
    digest = hashlib.sha256(json.dumps(desc, sort_keys=True).encode()).hexdigest()[:16]
    return {
        **desc,
        "config_hash": digest,
        "version": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _binomial_se(rate: float, R: int) -> float:
    return math.sqrt(max(rate * (1.0 - rate), 0.0) / R)


# --- the replication engine -------------------------------------------------

@dataclass(frozen=True)
class _Plan:
    """One experiment: what a replication simulates and how each T reduces it.

    A replication simulates one panel at the longest T; every T in
    ``T_values`` reads its first T rows, takes their DFT and calls
    ``reduce(dft, out, *args[k])`` for the k-th T.  The reducer writes into
    the chunk's running sum of shape ``shapes[k]``, or, with ``stack``, into
    that replication's row of a (replications, *shapes[k]) array.  ``reduce``
    is a top-level function, so a plan pickles as it is.
    """

    model: SpectralModel
    T_values: tuple
    seed: int
    reduce: Callable
    args: tuple
    shapes: tuple
    stack: bool = False
    degrees: DegreeRange | None = None


def _run_chunk(task) -> list:
    """Per T, the outputs of the replications ``streams`` of ``plan``."""
    plan, streams = task
    lead = (len(streams),) if plan.stack else ()
    outs = [np.zeros(lead + shape) for shape in plan.shapes]
    longest = max(plan.T_values)
    for i, r in enumerate(streams):
        seed = SeedSpec(base_seed=plan.seed, stream_id=r)
        panel = simulate_panel(plan.model, longest, seed, degrees=plan.degrees)
        for T, out, args in zip(plan.T_values, outs, plan.args):
            plan.reduce(fdft_panel(panel, T), out[i] if plan.stack else out, *args)
    return outs


# Replication chunks per experiment.  A fixed count keeps the chunk
# boundaries, and with them the grouping of floating-point sums across
# chunks, the same for every worker count.
_N_CHUNKS = 4


def _chunks(R: int) -> list:
    per = math.ceil(R / _N_CHUNKS)
    return [list(range(i, min(i + per, R))) for i in range(0, R, per)]


def _replicate(plan: _Plan, R: int, threads: int) -> list:
    """R replications of ``plan``: per T, its chunks summed or stacked in
    chunk order.  Every chunk goes to one pool."""
    tasks = [(plan, c) for c in _chunks(R)]
    workers = min(threads, len(tasks))
    if workers == 1:
        return _gather(plan, map(_run_chunk, tasks))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return _gather(plan, pool.map(_run_chunk, tasks))


def _gather(plan: _Plan, results) -> list:
    """Per T, the chunk outputs stacked, or summed as ((c0 + c1) + c2) + c3:
    each chunk is added to the running total as it arrives, so at most one
    chunk is held beside the total."""
    if plan.stack:
        return [np.concatenate(parts) for parts in zip(*results)]
    total = next(results)
    for part in results:
        for acc, add in zip(total, part):
            acc += add
    return total


# --- reducers: (dft, out, *args), top-level so that plans pickle --------------

def _column_entries(dft, row, B, idx) -> None:
    row[:] = _entries(dft, B, idx)


def _hs_norms(dft, norms, B) -> None:
    """Frobenius norm of the statistic matrix, on the statistic scale and on
    the grid-sum scale: times T^2 / (2 pi)^4, which replaces both Riemann
    weights by plain grid sums and expresses frequencies in cycles, the
    convention for comparing divergence magnitudes across T."""
    norm = np.sqrt(np.sum(np.abs(statistic_matrix(dft, B)) ** 2))
    norms[0] = norm
    norms[1] = norm * dft.T**2 / (2 * np.pi) ** 4


def _spectrum_moments(dft, acc, B) -> None:
    """Add the diagonal f_hat over the Fourier grid to acc[0], its square to acc[1]."""
    vals = smoothed_spectrum_grid(dft, B)
    acc[0] += vals
    acc[1] += np.square(vals, out=vals)


# --- experiments ------------------------------------------------------------

def _calibrate(config: ExperimentConfig) -> list:
    """Per T, its bandwidth and the null mean and sd of a diagonal entry per
    degree, resolved before any replication runs, so a T with a degenerate
    bandwidth or an empty window fails first."""
    calib = config.null_model()
    out = []
    for T in config.T_values:
        B = bandwidth(T, config.beta)
        out.append((B, *null_moments(calib, T, B)))
    return out


def _standardized_entries(config: ExperimentConfig, cols, R: int) -> list:
    """Per T, the (R, len(cols)) diagonal entries S[a, a] of the basis columns
    ``cols`` in replications 0..R-1, and the same entries standardized.

    Only the degrees the columns touch are simulated, so a column's index is
    its place in that sub-range.  Each replication stacks its raw entries;
    they are standardized once per table by their degree's null mean and sd,
    which gives the same floats as standardizing row by row.  Size and power
    read R = ``config.R``; ``spherelrd test`` reads replication 0 alone (R = 1).
    """
    degrees = column_degrees(cols)
    idx = [degrees.column(n, j) for n, j in cols]
    rows = [n - config.model.degrees.n_min for n, _ in cols]
    calibrations = _calibrate(config)
    plan = _Plan(config.model, config.T_values, config.seed, _column_entries,
                 tuple((B, idx) for B, _, _ in calibrations),
                 ((len(cols),),) * len(calibrations), stack=True, degrees=degrees)
    entries = _replicate(plan, R, config.threads)
    return [(s, (s - mean[rows]) / sd[rows]) for s, (_, mean, sd) in zip(entries, calibrations)]


def run_size(config: ExperimentConfig) -> McTable:
    """Per-direction empirical rejection rate under the null model."""
    if not config.model.alpha.is_null:
        raise SpherelrdError("run_size requires a short-memory (null) model")
    return _rejection_experiment(config, "size")


def run_power(config: ExperimentConfig) -> McTable:
    """Per-direction rejection rate under the alternative, null-calibrated."""
    if config.model.alpha.is_null:
        warnings.warn("run_power on a null model reduces to run_size", stacklevel=2)
    return _rejection_experiment(config, "power")


def _rejection_experiment(config: ExperimentConfig, name: str) -> McTable:
    table = McTable(name, manifest=_config_manifest(config, name))
    cols = leading_columns(config.model.degrees, config.n_directions)
    crit = critical_value(config.level)
    for T, (_, z) in zip(config.T_values, _standardized_entries(config, cols, config.R)):
        counts = (np.abs(z) > crit).sum(axis=0)
        for i, rate in enumerate(counts / config.R):
            table.add(T, config.R, config.beta, f"direction_{i}", rate, _binomial_se(rate, config.R))
    return table


def _ks_distance(x: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance sup |F_n - Phi| of the sample ``x`` from
    N(0, 1): the larger of D+ and D-, in the arithmetic of
    ``scipy.stats.kstest(x, "norm").statistic``."""
    x = np.sort(x)
    n = x.size
    cdf = special.ndtr(x)
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0.0, n) / n)
    return float(d_plus if d_plus > d_minus else d_minus)


# Histogram bins of the standardized statistic over [-5, 5].
_N_BINS = 41


def run_distribution(config: ExperimentConfig) -> McTable:
    """Pooled standardized diagonal statistics per eigenspace: KS, variance, histogram."""
    degrees = config.model.degrees
    table = McTable("distribution", manifest=_config_manifest(config, "distribution"))
    edges = np.linspace(-5.0, 5.0, _N_BINS + 1)
    cols = degrees.index_list()
    for T, (_, z) in zip(config.T_values, _standardized_entries(config, cols, config.R)):
        for n in degrees.degrees:
            off = degrees.column_offset(n)
            pooled = z[:, off : off + 2 * n + 1].ravel()
            table.add(T, config.R, config.beta, f"ks_n{n}", _ks_distance(pooled))
            table.add(T, config.R, config.beta, f"mean_n{n}", float(pooled.mean()))
            table.add(T, config.R, config.beta, f"var_n{n}", float(pooled.var()))
            counts, _ = np.histogram(pooled, bins=edges)
            # a density, as density=True gives, but zero where no value is in range
            hist = counts / np.diff(edges) / max(counts.sum(), 1)
            for b, h in enumerate(hist):
                table.add(T, config.R, config.beta, f"hist_n{n}_bin{b}", float(h))
    return table


def run_divergence(config: ExperimentConfig) -> McTable:
    """Hilbert-Schmidt (Frobenius) norms of the full statistic matrix over the T grid.

    Per T, the median over ``config.R`` replications of the statistic-scale
    norm and of the grid-sum (table-comparable) norm; at R = 1 that is the
    one seeded realization of stream 0.
    """
    table = McTable("divergence", manifest=_config_manifest(config, "divergence"))
    args = []
    for T in config.T_values:
        B = bandwidth(T, config.beta)
        g_weights(T, B)  # an empty window fails here, before any replication
        args.append((B,))
    plan = _Plan(config.model, config.T_values, config.seed, _hs_norms, tuple(args),
                 ((2,),) * len(args), stack=True)
    for T, norms in zip(config.T_values, _replicate(plan, config.R, config.threads)):
        stat, gridsum = np.median(norms, axis=0)
        table.add(T, config.R, config.beta, "hs_norm_statistic", stat)
        table.add(T, config.R, config.beta, "hs_norm_gridsum", gridsum)
    return table


def run_bandwidth_sweep(config: ExperimentConfig) -> McTable:
    """(T B_T)^(-1/2)-rescaled grid-sum norms over a beta x T grid.

    The norm is that of the expected statistic under the model's short-memory
    calibration, the deterministic quantity that is stable across bandwidth
    exponents (the rescaling cancels its sqrt(B T) growth exactly).  No
    replication runs, so the sweep reads only ``config.T_values``,
    ``config.betas`` and ``config.null_model()``.
    """
    calib = config.null_model()
    table = McTable("bandwidth_sweep", manifest=_config_manifest(config, "bandwidth_sweep"))
    for beta in config.betas:
        for T in config.T_values:
            B = bandwidth(T, beta)
            mean_diag = zip(calib.degrees.degrees, profile_mean_diag(calib, T, B).tolist())
            gridsum = float(T) ** 2 / (2 * math.pi) ** 4
            norm = math.sqrt(sum((2 * n + 1) * m**2 for n, m in mean_diag)) * gridsum
            table.add(T, 0, beta, "rescaled_norm", norm / math.sqrt(B * T))
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
        raise SpherelrdError("variance estimation requires R >= 2")
    table = McTable("consistency", manifest=_config_manifest(config, "consistency"))
    Bs = [bandwidth(T, config.beta) for T in config.T_values]
    plan = _Plan(config.model, config.T_values, config.seed, _spectrum_moments,
                 tuple((B,) for B in Bs),
                 tuple((2, config.model.degrees.dim, T) for T in config.T_values))
    logx, logy = [], []
    for T, B, (acc, acc2) in zip(config.T_values, Bs, _replicate(plan, config.R, config.threads)):
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


# --- what each experiment reads ---------------------------------------------

# The ExperimentConfig field each key of a config's experiment section fills.
EXPERIMENT_FIELDS = {"T": "T_values", "R": "R", "beta": "beta", "level": "level",
                     "directions": "n_directions", "seed": "seed", "betas": "betas"}


class Experiment(NamedTuple):
    """An experiment's runner, the experiment keys it reads (in manifest
    order), and whether it calibrates against ``null_model()``."""

    run: Callable
    keys: tuple
    calibrates: bool


# The one list of the keys each experiment reads.  Its manifest hashes their
# fields (see ``_config_manifest``); its mc-* command converts and checks
# them alone, and takes --T, --seed and --threads as it reads T, seed and R.
EXPERIMENTS = {
    "size": Experiment(run_size, ("T", "R", "beta", "level", "directions", "seed"), True),
    "power": Experiment(run_power, ("T", "R", "beta", "level", "directions", "seed"), True),
    "distribution": Experiment(run_distribution, ("T", "R", "beta", "seed"), True),
    "divergence": Experiment(run_divergence, ("T", "R", "beta", "seed"), False),
    "bandwidth_sweep": Experiment(run_bandwidth_sweep, ("T", "betas"), True),
    "consistency": Experiment(run_consistency, ("T", "R", "beta", "seed"), False),
}
