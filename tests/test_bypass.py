from fractions import Fraction

import pytest

from lensknots.bypass import TorusState, attach_bypass, basic_slice_walk, tb_from_dividing
from lensknots.checks import lens_pairs
from lensknots.farey import geodesic
from lensknots.slopes import ZERO, Slope


def test_front_attachment_steps_along_geodesic():
    state = TorusState(Slope(-5, 2))
    state = attach_bypass(state, ZERO)
    assert state.dividing_slope == Slope(-2, 1)
    state = attach_bypass(state, ZERO)
    assert state.dividing_slope == Slope(-1, 1)


def test_back_attachment_mirrors_front():
    front = attach_bypass(TorusState(Slope(5, 2)), ZERO, "back")
    # back side on slope s toward r is the mirror of front on -s toward -r
    mirrored = attach_bypass(TorusState(Slope(-5, 2)), ZERO, "front")
    assert front.dividing_slope == -mirrored.dividing_slope


def test_invalid_inputs():
    with pytest.raises(ValueError):
        attach_bypass(TorusState(ZERO), ZERO)
    with pytest.raises(ValueError):
        attach_bypass(TorusState(ZERO), Slope(1, 1), "sideways")


def test_tb_from_dividing():
    assert tb_from_dividing(2) == Fraction(-1)
    assert tb_from_dividing(6) == Fraction(-3)
    with pytest.raises(ValueError):
        tb_from_dividing(3)
    with pytest.raises(ValueError):
        tb_from_dividing(0)


def test_basic_slice_walk_traces_geodesic():
    for p, q in lens_pairs(30):
        walk = basic_slice_walk(Slope(-p, q), ZERO)
        assert [t.dividing_slope for t in walk] == geodesic(Slope(-p, q), ZERO)
