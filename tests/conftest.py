import numpy as np
import pytest

from spherelrd.harmonics import DegreeRange
from spherelrd.models import build_spharma, example_model, reference_spharma11
from spherelrd.simulate import SeedSpec, simulate_panel
from spherelrd.spectral import fdft_panel


@pytest.fixture(scope="session")
def reference_model():
    return reference_spharma11()


@pytest.fixture(scope="session")
def small_model():
    """Short-memory reference model restricted to degrees 1..2 (D = 8)."""
    return reference_spharma11(1, 2)


@pytest.fixture(scope="session")
def white_noise_model():
    """Unit white noise on degrees 1..2: flat spectrum 1 / (2 pi)."""
    return build_spharma(DegreeRange(1, 2), [], [], innov=1.0)


@pytest.fixture(scope="session")
def example1_model():
    return example_model(1)


@pytest.fixture(scope="session")
def small_dft(small_model):
    panel = simulate_panel(small_model, 512, SeedSpec(base_seed=7, stream_id=0))
    return fdft_panel(panel)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


def table_values(table, key_prefix: str = "", T=None) -> list:
    """Values of a McTable's rows whose key starts with ``key_prefix``, at ``T`` if given."""
    return [
        r["value"]
        for r in table.rows
        if r["key"].startswith(key_prefix) and (T is None or r["T"] == T)
    ]
