"""Acceptance gate: one test per release criterion, each printing a single
PASS line on success (failures surface as assertion errors with context).

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import random
import time
from fractions import Fraction

from lensknots.farey import bfs_oracle, farthest_neighbor, geodesic, in_arc
from lensknots.checks import check_sweep, lens_pairs
from lensknots.mcg import contact_mcg, inclusion_is_iso, smooth_mcg
from lensknots.slopes import Slope, cf_matrix_identity, dual_fraction, farey_mul, neg_cf
from lensknots.surgery import build_chain, det_bareiss, linking_matrix, rot_spectrum
from lensknots.tight import count_tight_lens, enumerate_tight, is_universally_tight
from lensknots.unknots import mountain_range, rot_q_farey, tb_q_peak


def _report(num, label):
    print(f"criterion {num} ({label}): PASS")


def test_criterion_1_tight_structure_counting():
    t0 = time.perf_counter()
    for p, q in lens_pairs(30):
        classes = enumerate_tight(p, q)
        assert len(classes) == count_tight_lens(p, q), f"L({p},{q})"
        univ = sum(is_universally_tight(ts) for ts in classes)
        if (q + 1) % p == 0:
            assert len(classes) == 1 and univ == 1, f"L({p},{q})"
        else:
            assert univ == 2, f"L({p},{q})"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5, f"took {elapsed:.1f}s, limit 5s"
    _report(1, "tight-structure counting, p <= 30")


def test_criterion_2_dual_rotation_formulas():
    t0 = time.perf_counter()
    for p, q in lens_pairs(30):
        classes = enumerate_tight(p, q)
        for knot in ("k1", "k2"):
            farey_side = sorted(rot_q_farey(ts, knot) for ts in classes)
            surgery_side = rot_spectrum(p, q, knot)
            assert farey_side == surgery_side, f"L({p},{q}) {knot}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10, f"took {elapsed:.1f}s, limit 10s"
    _report(2, "dual rotation formulas, p <= 30")


def test_criterion_3_depth_four_mountain_range():
    (ts,) = enumerate_tight(2, 1)
    mr = mountain_range(2, 1, ts, "k1", depth=4)
    assert mr.peak == (Fraction(0), Fraction(-1, 2))
    assert tb_q_peak(2, 1, "k1") == Fraction(-1, 2)
    assert rot_q_farey(ts, "k1") == 0
    expected = {
        (Fraction(r), Fraction(-1, 2) - k)
        for k in range(5)
        for r in range(-k, k + 1, 2)
    }
    assert set(mr.points) == expected
    assert len(mr.points) == len(expected) == 15
    _report(3, "L(2,1) depth-4 mountain range, exact")


def test_criterion_4_closed_form_tb_and_dual_fraction():
    for p, q in lens_pairs(200):
        assert tb_q_peak(p, q, "k1") == Fraction(-(p - q), p), f"L({p},{q})"
        dual = dual_fraction(p, q)
        if q == 1:
            assert dual.is_infinite
            # k2 coincides with k1 when q = 1, and the dual numerator is 1
            assert tb_q_peak(p, q, "k2") == Fraction(-(p - 1), p)
        else:
            mp, mp_, mq, mq_ = cf_matrix_identity(neg_cf(Slope(-p, q)))
            assert (mp, mq) == (p, q), f"L({p},{q})"
            assert dual == Slope(mp_, mq_), f"L({p},{q})"
            assert tb_q_peak(p, q, "k2") == Fraction(-(p - mp_), p), f"L({p},{q})"
    _report(4, "closed-form tb and dual fraction, p <= 200")


def _brute_force_farthest(s, bound, den_bound):
    # independent scan: solve the neighbor equation per denominator, then
    # pick the arcwise maximum by pairwise comparison
    candidates = set()
    if s.den == 0:
        for a in range(-den_bound - 1, den_bound + 2):
            candidates.add(Slope(a, 1))
    else:
        for b in range(den_bound + 1):
            for e in (1, -1):
                # v = a/b with s.num*b - s.den*a = e
                num = s.num * b - e
                if num % s.den == 0:
                    a = num // s.den
                    if (a, b) != (0, 0):
                        candidates.add(Slope(a, b))
    best = None
    for v in candidates:
        if v != bound and not in_arc(v, s, bound):
            continue
        if best is None or in_arc(best, s, v):
            best = v
    return best


def test_criterion_5_geodesics_and_farthest_neighbor():
    for p, q in lens_pairs(50):
        frm = Slope(-p, q)
        assert geodesic(frm, Slope(0)) == bfs_oracle(frm, Slope(0), p), f"L({p},{q})"
    rng = random.Random(20260824)
    checked = 0
    while checked < 1000:
        n, d = rng.randint(-10, 10), rng.randint(0, 10)
        bn, bd = rng.randint(-10, 10), rng.randint(0, 10)
        if (n, d) == (0, 0) or (bn, bd) == (0, 0):
            continue
        s, bound = Slope(n, d), Slope(bn, bd)
        if s == bound:
            continue
        expected = _brute_force_farthest(s, bound, 100)
        assert expected is not None, f"no candidate for ({s}, {bound})"
        assert farthest_neighbor(s, bound) == expected, f"({s}, {bound})"
        checked += 1
    _report(5, "geodesic vs BFS (p <= 50), farthest neighbor vs scan (1000 pairs)")


def test_criterion_6_linking_matrix_determinants():
    for p, q in lens_pairs(200):
        for knot in ("k1", "k2"):
            m = linking_matrix(build_chain(p, q, knot))
            assert abs(det_bareiss(m)) == p, f"L({p},{q}) {knot}"
    # integrality of p * rot_Q on a sample (full spectra get large fast)
    for p, q in lens_pairs(20):
        for knot in ("k1", "k2"):
            for v in rot_spectrum(p, q, knot):
                assert (v * p).denominator == 1, f"L({p},{q}) {knot} {v}"
    _report(6, "linking determinants = p (p <= 200), p*rot_Q integral")


def test_criterion_7_mcg_tables():
    spots = {
        (2, 1): (1, 1, None, None),
        (3, 1): (1, 2, None, ("tau",)),
        (5, 4): (2, 2, ("sigma",), ("sigma",)),
        (8, 3): (2, 4, ("sigma",), ("sigma", "tau")),
        (7, 2): (1, 2, None, ("tau",)),
    }
    for (p, q), (c_order, s_order, c_gens, s_gens) in spots.items():
        c, s = contact_mcg(p, q), smooth_mcg(p, q)
        assert c.order == c_order, f"L({p},{q}) contact"
        assert s.order == s_order, f"L({p},{q}) smooth"
        if c_gens is not None:
            assert c.generators == c_gens, f"L({p},{q}) contact gens"
        if s_gens is not None:
            assert s.generators == s_gens, f"L({p},{q}) smooth gens"
    for p, q in lens_pairs(200):
        c, s = contact_mcg(p, q), smooth_mcg(p, q)
        assert s.order % c.order == 0, f"L({p},{q}) divisibility"
        assert inclusion_is_iso(p, q) == (c.order == s.order) == (
            (q + 1) % p == 0
        ), f"L({p},{q}) iso"
    _report(7, "MCG spot values and sweep, p <= 200")


def test_criterion_8_consistency_sweep():
    report = check_sweep(20)
    failed = [c for c in report.checks if not c.passed]
    assert not failed, [(c.name, c.counterexample) for c in failed]
    assert len(report.checks) == 7
    _report(8, "full consistency sweep, p <= 20, zero failures")
