import numpy as np
import pytest

from nophase.errors import ConfigurationError, GridMismatchError
from nophase.grid import SpectralGrid, SpectralSample
from nophase.solver import apply_Wb, make_bump


def test_bump_on_another_grid_is_a_grid_mismatch():
    # one fault, one type: a sample and a bump on different grids are
    # refused as two samples are (`grid._require_same_grid`)
    lam = 5.0
    sample = SpectralSample(SpectralGrid(8.0, 256),
                            np.zeros(256, dtype=complex))
    with pytest.raises(GridMismatchError, match="different grids") as info:
        apply_Wb(sample, make_bump(SpectralGrid(6.0, 256), lam))
    assert isinstance(info.value, ConfigurationError)
