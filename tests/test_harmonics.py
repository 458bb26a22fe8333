import numpy as np
import pytest

from spherelrd import SpherelrdError
from spherelrd.harmonics import DegreeRange


def test_eigenspace_dim_values():
    # the degree-n eigenspace on S2 has dimension 2n + 1: one column per order
    assert [DegreeRange(n, n).dim for n in range(5)] == [1, 3, 5, 7, 9]


def test_degree_range_layout():
    dr = DegreeRange(1, 3)
    assert dr.dim == 3 + 5 + 7
    assert dr.column_offset(1) == 0
    assert dr.column_offset(2) == 3
    assert dr.column(2, 1) == 3
    assert dr.column(3, 7) == 3 + 5 + 6
    assert dr.index_list()[0] == (1, 1)
    assert dr.index_list()[-1] == (3, 7)
    assert len(dr.index_list()) == dr.dim


def test_degree_range_validation():
    with pytest.raises(SpherelrdError, match=r"invalid degree range \[3, 1\]"):
        DegreeRange(3, 1)
    with pytest.raises(SpherelrdError, match=r"invalid degree range \[-1, 2\]"):
        DegreeRange(-1, 2)
    dr = DegreeRange(1, 2)
    with pytest.raises(SpherelrdError, match="order index j=4 invalid for degree 1"):
        dr.column(1, 4)
    with pytest.raises(SpherelrdError, match="degree 3 outside range"):
        dr.column_offset(3)


@pytest.mark.parametrize("n_min, n_max", [(1.5, 2), (1, 2.5), (True, 2), (1, "2")])
def test_degree_bounds_are_integers(n_min, n_max):
    # a fractional or boolean bound is an error naming the config key, not truncated
    with pytest.raises(SpherelrdError, match="'degrees' must be an integer"):
        DegreeRange(n_min, n_max)


def test_integral_degree_bounds_become_ints():
    for n_min, n_max in ((np.int64(1), np.int32(2)), (1.0, 2.0)):
        dr = DegreeRange(n_min, n_max)
        assert (dr.n_min, dr.n_max) == (1, 2)
        assert type(dr.n_min) is int and type(dr.n_max) is int
        assert dr == DegreeRange(1, 2)
