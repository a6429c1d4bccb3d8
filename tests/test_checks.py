from fractions import Fraction

import pytest

from lensknots import checks
from lensknots.checks import check_sweep, lens_pairs


def test_lens_pairs():
    assert list(lens_pairs(5)) == [
        (2, 1),
        (3, 1),
        (3, 2),
        (4, 1),
        (4, 3),
        (5, 1),
        (5, 2),
        (5, 3),
        (5, 4),
    ]


def test_sweep_small():
    report = check_sweep(10)
    assert report.passed
    assert len(report.checks) == 7
    assert all(c.counterexample is None for c in report.checks)
    assert report.runtime > 0


def test_sweep_rejects_tiny_bound():
    with pytest.raises(ValueError):
        check_sweep(1)


def _failures(p_max):
    return {c.name: c.counterexample for c in check_sweep(p_max).checks if not c.passed}


def test_block_family_catches_a_wrong_block_sum(monkeypatch):
    monkeypatch.setattr(checks, "rot_q_farey", lambda ts, knot="k1": Fraction(0))
    assert _failures(6) == {
        "rotation numbers: Farey vs surgery": "L(3,1) k1",
        "rotation numbers: blocks vs edges": "L(3,1) class 0 k1",
    }


def test_block_family_catches_a_block_with_two_weights(monkeypatch):
    # Merging all shuffle blocks of a path into one puts edges of different
    # weight together; L(8,3) has blocks [1, 1] on -8/3, -5/2, -2, -1, 0.
    blocks = checks.block_partition

    def merged(path):
        sizes = blocks(path)
        return [sum(sizes)] if sizes else []

    monkeypatch.setattr(checks, "block_partition", merged)
    assert _failures(12) == {"rotation numbers: blocks vs edges": "L(8,3) k1 block weights"}
