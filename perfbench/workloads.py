"""The benchmark's workloads: one CLI command and one generated config each.

Why each workload exists, and which layers it stresses, is written down in
README.md next to this file.  ``R`` is sized so that one CLI invocation
takes about a second on a 2-core x86 machine, which gives some 25
invocations per 30-second run to take the median of.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # spherelrd CLI subcommand
    table: str  # basename of the CSV table the command writes
    generator: str  # model generator named in the config document
    T_values: tuple
    R: int  # replications per T in one timed invocation
    threads: int  # worker count passed to the CLI
    smoke_R: int  # replications per T in the smoke test
    directions: int = 8

    def doc(self, seed: int, R: int) -> dict:
        """Config document for one invocation; the program sees only this."""
        return {
            "model": {"generator": self.generator, "degrees": [1, 8]},
            "experiment": {
                "T": list(self.T_values),
                "R": R,
                "beta": 0.25,
                "level": 0.05,
                "directions": self.directions,
                "seed": seed,
            },
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("power-ex1", "mc-power", "power", "example1", (50, 100, 1000), 12, 1, 2),
        Workload("dist-h0", "mc-dist", "distribution", "reference", (3000,), 40, 1, 4),
        Workload("consistency-ex1", "mc-consistency", "consistency", "example1",
                 (512, 2048, 8192), 5, 1, 2),
        Workload("size-h0-pool", "mc-size", "size", "reference", (1000,), 100, 2, 8),
    )
}


def invocation_seed(workload: str, seed: int, index: int) -> int:
    """Config seed of the index-th invocation of a run; fixed by (workload, seed)."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1
