import pytest

from spherelrd.harmonics import DegreeRange, HarmonicsError


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
    with pytest.raises(HarmonicsError):
        DegreeRange(3, 1)
    with pytest.raises(HarmonicsError):
        DegreeRange(-1, 2)
    dr = DegreeRange(1, 2)
    with pytest.raises(HarmonicsError):
        dr.column(1, 4)
    with pytest.raises(HarmonicsError):
        dr.column_offset(3)
