"""Command-line interface.

Subcommands map one-to-one onto library entry points:

    simulate        draw one coefficient panel and write it out
    spectrum        smoothed diagonal spectrum of a simulated panel
    test            the fixed-column test on one simulated panel
    mc-size         Monte Carlo empirical size table
    mc-power        Monte Carlo empirical power table
    mc-dist         null-distribution histograms and KS statistics
    mc-divergence   Hilbert-Schmidt norms of the statistic matrix over a T grid
    mc-sweep        bandwidth-rescaled norms over a beta x T grid
    mc-consistency  integrated-variance decay of the spectral estimator
    validate-model  per-degree stationarity and exponent diagnostics

Each command reads only the experiment keys its entry in ``_COMMANDS`` names
(an mc-* command, those its experiment lists in ``harness.EXPERIMENTS``),
and takes only the flags that follow from them; any other flag is a usage
error.  validate-model prints to stdout and takes --config alone; every
other command writes CSV files under --out (default: current directory),
each mc-* table with a ``*_manifest.json`` beside it.
Each warning prints as one line, ``warning: <message>``.  Exit codes: 0
success, 1 usage error or any package error (``SpherelrdError``: a bad
config, model, panel or argument), 2 any other failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import warnings
from functools import cache, partial
from typing import Callable, NamedTuple

import numpy as np
from scipy import special

from . import SpherelrdError
from .config import experiment_from_config, load_config, model_from_config
from .harness import EXPERIMENTS, _standardized_entries
from .lrdtest import bandwidth, critical_value, leading_columns
from .simulate import SeedSpec, simulate_panel
from .spectral import fdft_panel, smoothed_spectrum


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SpherelrdError(message)


_FLAG_SPECS = {
    "seed": dict(type=int, default=None, help="override base seed"),
    "out": dict(default=".", help="output directory"),
    "threads": dict(type=int, default=1, help="worker count (default: 1)"),
    "T": dict(type=int, default=None, help="override sample length"),
}


class _Command(NamedTuple):
    """A command's handler(doc, args), the experiment keys it reads and
    whether it writes files."""

    run: Callable
    keys: tuple
    writes: bool = True

    def flags(self) -> list:
        """The flags it takes besides --config, in ``_FLAG_SPECS`` order:
        --seed and --T with the key of that name, --threads with R and --out
        when it writes files."""
        takes = {
            "seed": "seed" in self.keys,
            "out": self.writes,
            "threads": "R" in self.keys,
            "T": "T" in self.keys,
        }
        return [flag for flag in _FLAG_SPECS if takes[flag]]


@cache
def _build_parser() -> tuple:
    """The top-level parser and each command's parser, built once: parses share no state."""
    parser = _Parser(prog="spherelrd", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config document")
        for flag in command.flags():
            p.add_argument(f"--{flag}", **_FLAG_SPECS[flag])
    return parser, sub.choices


def _out_path(args, filename: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, filename)


def _write_csv(args, filename: str, header, rows) -> None:
    with open(_out_path(args, filename), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _emit_table(table, args, name: str) -> None:
    """The table as ``name``.csv (floats in ``.10g``) and ``name``_manifest.json."""
    rows = ([f"{v:.10g}" if isinstance(v, float) else v for v in r.values()] for r in table.rows)
    _write_csv(args, f"{name}.csv", table.COLUMNS, rows)
    with open(_out_path(args, f"{name}_manifest.json"), "w") as fh:
        json.dump(table.manifest, fh, indent=2)


def _experiment(doc, args):
    """The document's experiment with the overrides this command takes."""
    overrides = {k: getattr(args, k) for k in ("seed", "T", "threads") if hasattr(args, k)}
    return experiment_from_config(doc, _COMMANDS[args.command].keys, **overrides)


def _one_T(config) -> int:
    if len(config.T_values) > 1:
        raise SpherelrdError(f"one panel needs one T, not {list(config.T_values)}: pass --T")
    return config.T_values[0]


def _single_panel(config):
    T = _one_T(config)
    return T, simulate_panel(config.model, T, SeedSpec(base_seed=config.seed, stream_id=0))


def _cmd_simulate(doc, args) -> None:
    """panel.csv: a ``t`` column, then one ``a_n_j`` column per basis
    function, each value in ``.17g`` (exact for a float64)."""
    _, panel = _single_panel(_experiment(doc, args))
    header = ["t"] + [f"a_{n}_{j}" for n, j in panel.degrees.index_list()]
    rows = ([t] + [f"{v:.17g}" for v in row] for t, row in enumerate(panel.data))
    _write_csv(args, "panel.csv", header, rows)


def _cmd_spectrum(doc, args) -> None:
    """spectrum.csv: the smoothed diagonal f_hat_omega[a, a] of every basis
    column a = (n, j) at 65 frequencies omega in [0, pi], in ``.10g``."""
    config = _experiment(doc, args)
    T, panel = _single_panel(config)
    B = bandwidth(T, config.beta)
    omegas = np.linspace(0.0, np.pi, 65)
    values = smoothed_spectrum(fdft_panel(panel), omegas, B)
    rows = (
        [f"{omega:.10g}", n, j, f"{v:.10g}"]
        for omega, row in zip(omegas, values)
        for (n, j), v in zip(panel.degrees.index_list(), row)
    )
    _write_csv(args, "spectrum.csv", ("omega", "n", "j", "f_hat"), rows)


def _cmd_test(doc, args) -> None:
    """The diagonal entries of the leading columns of the panel on stream 0
    (the panel ``simulate`` writes, over the degrees the columns touch),
    standardized and decided at the config's level.  test_report.csv has one
    row per column (n, j), with the statistic, z and p in ``.17g`` and reject
    as 0 or 1."""
    config = _experiment(doc, args)
    _one_T(config)
    cols = leading_columns(config.model.degrees, config.n_directions)
    crit = critical_value(config.level)
    [(s, z)] = _standardized_entries(config, cols, 1)
    p = 2.0 * special.ndtr(-np.abs(z[0]))
    rows = (
        [n, j, f"{sv:.17g}", f"{zv:.17g}", f"{pv:.17g}", int(abs(zv) > crit)]
        for (n, j), sv, zv, pv in zip(cols, s[0].tolist(), z[0].tolist(), p.tolist())
    )
    _write_csv(args, "test_report.csv", ("n", "j", "statistic", "z", "p", "reject"), rows)


def _cmd_validate_model(doc, args) -> None:
    model = model_from_config(doc)
    hi = 1.0 if model.alpha.extended else 0.5
    rows = zip(model.degrees.degrees, model.ar_root_moduli(), model.innov, model.alpha.values)
    for n, moduli, innov, a in rows:
        mods = ",".join(f"{m:.6f}" for m in moduli) if moduli.size else "-"
        print(f"degree {n}: ar_root_moduli=[{mods}] innov={innov:.6g} alpha={a:.4f} in [0,{hi}) ok")


def _cmd_mc(name: str, doc, args) -> None:
    _emit_table(EXPERIMENTS[name].run(_experiment(doc, args)), args, name)


def _mc(name: str) -> _Command:
    """The command that runs the experiment ``name`` and writes its table."""
    return _Command(partial(_cmd_mc, name), EXPERIMENTS[name].keys)


# The one table of commands.  A key of the experiment section that a command
# does not read is neither converted, checked nor hashed; the run names it on
# stderr.
_COMMANDS = {
    "simulate": _Command(_cmd_simulate, ("T", "seed")),
    "spectrum": _Command(_cmd_spectrum, ("T", "beta", "seed")),
    "test": _Command(_cmd_test, ("T", "beta", "level", "directions", "seed")),
    "mc-size": _mc("size"),
    "mc-power": _mc("power"),
    "mc-dist": _mc("distribution"),
    "mc-divergence": _mc("divergence"),
    "mc-sweep": _mc("bandwidth_sweep"),
    "mc-consistency": _mc("consistency"),
    "validate-model": _Command(_cmd_validate_model, (), writes=False),
}


def _dispatch(args) -> None:
    doc = load_config(args.config)
    command = _COMMANDS[args.command]
    command.run(doc, args)
    unread = sorted(set(doc.get("experiment", {})) - set(command.keys))
    if unread:
        names = ", ".join(repr(key) for key in unread)
        print(f"note: {args.command} does not read {names}", file=sys.stderr)


def _print_warning(message, *_) -> None:
    """``warnings.showwarning`` in ``main``: the message alone, not its source line."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser, commands = _build_parser()
    with warnings.catch_warnings():  # the caller's filters and printer come back
        warnings.showwarning = _print_warning
        try:
            args, extra = parser.parse_known_args(argv)
            if extra:
                # argparse would report a command's leftover flags with the
                # top-level usage; the command's own usage lists what it takes
                commands[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
            _dispatch(args)
        except SpherelrdError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except Exception as exc:  # noqa: BLE001 - CLI boundary
            print(f"runtime error: {exc}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
