"""Column layout of a spherical-harmonic coefficient panel.

A panel holds one real coefficient series per basis function (n, j) of the
degrees n_min..n_max.  The degree-n eigenspace of the Laplace-Beltrami
operator on S2 has dimension 2n+1, so within degree ``n`` the order index
``j`` runs 1..2n+1 (azimuthal order m = j - 1 - n; j = n+1 is the zonal
harmonic).  Columns are ordered by n ascending, then j ascending.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import SpherelrdError, _integer


@dataclass(frozen=True)
class DegreeRange:
    """Contiguous block of spherical-harmonic degrees n_min..n_max."""

    n_min: int
    n_max: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_min", _integer("degrees", self.n_min))
        object.__setattr__(self, "n_max", _integer("degrees", self.n_max))
        if self.n_min < 0 or self.n_max < self.n_min:
            raise SpherelrdError(
                f"invalid degree range [{self.n_min}, {self.n_max}]"
            )

    @property
    def degrees(self) -> range:
        return range(self.n_min, self.n_max + 1)

    @property
    def dim(self) -> int:
        """Total number of basis functions D = sum of (2n+1)."""
        return sum(2 * n + 1 for n in self.degrees)

    def column_offset(self, n: int) -> int:
        """Column index of (n, j=1) in the panel layout."""
        if not self.n_min <= n <= self.n_max:
            raise SpherelrdError(f"degree {n} outside range {self}")
        return sum(2 * m + 1 for m in range(self.n_min, n))

    def column(self, n: int, j: int) -> int:
        if not 1 <= j <= 2 * n + 1:
            raise SpherelrdError(f"order index j={j} invalid for degree {n}")
        return self.column_offset(n) + j - 1

    def index_list(self) -> list[tuple[int, int]]:
        """All (n, j) pairs in column order."""
        return [(n, j) for n in self.degrees for j in range(1, 2 * n + 2)]
