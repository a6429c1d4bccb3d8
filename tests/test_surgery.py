import itertools
import math
import random
from fractions import Fraction

import pytest

import lensknots.surgery as surgery
from lensknots.checks import lens_pairs
from lensknots.surgery import (
    KNOTS,
    SurgeryChain,
    build_chain,
    det_bareiss,
    linking_det,
    linking_matrix,
    meridian_lk,
    rot_q_surgery,
    rot_spectrum,
    solve_exact,
)


def admissible(framings):
    """Every rotation vector of the chain, stated from the framings alone."""
    return list(itertools.product(*(range(r + 2, -r - 1, 2) for r in framings)))


def naive_det(m):
    """Determinant as the signed sum over permutations."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        prod = 1
        for i, j in enumerate(perm):
            prod *= m[i][j]
            if not prod:
                break
        else:
            inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
            total += (-1) ** inversions * prod
    return total


def fraction_det(m):
    """Determinant by Gaussian elimination over Fraction: the exact
    reference for matrices too large for naive_det."""
    m = [[Fraction(v) for v in row] for row in m]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k] / m[k][k]
            if factor:
                m[i] = [a - factor * b for a, b in zip(m[i], m[k])]
    return det


def test_build_chain():
    chain = build_chain(12, 5, "k1")
    assert chain.framings == (-3, -2, -3)
    assert chain.meridian_of == "first"
    assert build_chain(12, 5, "k2").meridian_of == "last"
    with pytest.raises(ValueError):
        build_chain(12, 5, "k3")
    with pytest.raises(ValueError):
        build_chain(4, 2)


def test_chain_validation():
    with pytest.raises(ValueError):
        SurgeryChain((-1,), "first")
    with pytest.raises(ValueError):
        SurgeryChain((-2,), "middle")
    # The elimination divides exactly only on ints, so the chain takes no other framing.
    for framings in ((-3.5,), ("-3",), (Fraction(-3),)):
        with pytest.raises(ValueError, match="integers"):
            SurgeryChain(framings)
    # Any iterable is stored as the tuple it yields: equal and hashable alike.
    chain = SurgeryChain((-3, -2))
    for other in (SurgeryChain([-3, -2]), SurgeryChain(r for r in (-3, -2))):
        assert other == chain and hash(other) == hash(chain)


def test_linking_matrix_shape():
    m = linking_matrix(SurgeryChain((-3, -2, -3)))
    assert m == ((-3, 1, 0), (1, -2, 1), (0, 1, -3))


def test_meridian_lk():
    chain = SurgeryChain((-3, -2, -3), "last")
    assert meridian_lk(chain) == (0, 0, 1)
    assert meridian_lk(SurgeryChain((-3, -2, -3))) == (1, 0, 0)


class TestDeterminant:
    def test_matches_p(self):
        for p in range(2, 60):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                m = linking_matrix(build_chain(p, q))
                assert abs(det_bareiss(m)) == p

    def test_random_vs_permutation_expansion(self):
        rng = random.Random(11)
        for zero_share in (0.0, 0.5, 0.8):
            for _ in range(60):
                n = rng.randint(1, 7)
                m = [
                    [0 if rng.random() < zero_share else rng.randint(-6, 6) for _ in range(n)]
                    for _ in range(n)
                ]
                assert det_bareiss(m) == naive_det(m), m

    def test_empty_and_one_by_one(self):
        assert det_bareiss([]) == 1 == linking_det(SurgeryChain(()))
        assert det_bareiss([[-7]]) == -7
        assert det_bareiss([[0]]) == 0

    @pytest.mark.parametrize("m", [[[1, 2], [3]], [[1, 2]], [[1], [2]], [[1, 2], [3, 4, 5]]])
    def test_ragged(self, m):
        with pytest.raises(ValueError, match="square"):
            det_bareiss(m)

    def test_singular(self):
        assert det_bareiss([[1, 2], [2, 4]]) == 0
        assert det_bareiss([[0, 1], [1, 0]]) == -1  # needs a row swap

    @pytest.mark.parametrize(
        "m",
        [
            # column 1 is twice column 0: the pivot of step 1 is zero in
            # every row once step 0 is done
            [[1, 2, 3, 4], [2, 4, 6, 9], [3, 6, 10, 1], [1, 2, 5, 7]],
            # row 2 is row 0 plus row 1: only the last pivot is zero
            [[1, 2, 3], [4, 5, 6], [5, 7, 9]],
            [[2, 0, 0, 1], [0, 3, 0, 0], [0, 0, 0, 0], [1, 0, 5, 0]],
        ],
    )
    def test_zero_pivot_after_elimination(self, m):
        assert det_bareiss(m) == naive_det(m) == 0

    @pytest.mark.parametrize(
        "m",
        [
            # after step 0, row 1 is zero in column 1 and row 2 is not
            [[1, 2, 3], [2, 4, 5], [3, 7, 1]],
            [[2, 1, 0, 0], [4, 2, 1, 0], [0, 1, 0, 3], [0, 0, 3, 1]],
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0]],
        ],
    )
    def test_row_swap_after_step_zero(self, m):
        assert det_bareiss(m) == naive_det(m) != 0

    def test_cramer_shaped(self):
        # Chain matrices with one column replaced by the meridian's unit
        # vector, as solve_exact builds them.
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(1, 7)
            m = linking_matrix(SurgeryChain(tuple(rng.randint(-6, -2) for _ in range(n))))
            for unit in {0, n - 1}:
                for col in range(n):
                    replaced = [
                        [int(i == unit) if j == col else row[j] for j, _ in enumerate(row)]
                        for i, row in enumerate(m)
                    ]
                    assert det_bareiss(replaced) == naive_det(replaced), replaced

    @pytest.mark.parametrize(
        "m",
        [
            # Row 5's one entry is in column 3, so steps 0-2 leave it at its
            # input scale.  Step 2 updates row 3 and leaves it zero in
            # column 3, so step 3 swaps in row 5, which must first be
            # brought up to the previous pivot, -100, and row 3 moves down
            # with its own, newer scale.
            [
                [-5, 0, 0, 2, 0, 0],
                [0, 4, 0, 0, -3, 0],
                [0, 0, 5, 0, 3, -5],
                [0, 0, -2, 0, 0, 0],
                [0, 0, 3, 0, 0, -5],
                [0, 0, 0, 2, 0, 0],
            ],
            # Row 4 waits three steps and is swapped in at step 3, row 7
            # waits five and is swapped in at step 5 (previous pivot 640);
            # row 5 waits four steps and is then read for its column-4
            # entry.
            [
                [0, -4, 0, 0, 3, -1, 1, 4],
                [0, 4, -2, -3, 2, 0, 2, -4],
                [0, 0, 0, 0, 0, 0, 2, 0],
                [0, 0, 0, 0, 4, 0, -5, 4],
                [0, 0, 0, 4, 0, 0, 3, 0],
                [0, 0, 0, 0, 1, 0, 0, 0],
                [-5, 0, 0, 1, 0, -4, 0, -2],
                [0, 0, 0, 0, 0, 3, 0, 0],
            ],
        ],
    )
    def test_rows_left_alone_for_several_steps_then_swapped_in(self, m):
        assert det_bareiss(m) == naive_det(m) == fraction_det(m) != 0

    def test_random_sparse_vs_fraction_elimination(self):
        # Up to 30 x 30, beyond naive_det's reach: sparse rows leave most
        # rows without an entry in the pivot column for many steps.
        rng = random.Random(17)
        for zero_share in (0.5, 0.8, 0.9, 0.95):
            for _ in range(25):
                n = rng.randint(1, 30)
                m = [
                    [0 if rng.random() < zero_share else rng.randint(-9, 9) for _ in range(n)]
                    for _ in range(n)
                ]
                assert det_bareiss(m) == fraction_det(m), m

    def test_cramer_shaped_vs_fraction_elimination(self):
        # Chain matrices up to 30 x 30 with one column replaced by a unit
        # vector or a sparse right-hand side, and the solutions they give.
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(1, 30)
            m = linking_matrix(SurgeryChain(tuple(rng.randint(-5, -2) for _ in range(n))))
            for rhs in (
                [int(i == 0) for i in range(n)],
                [int(i == n - 1) for i in range(n)],
                [rng.choice((0, 0, 0, rng.randint(-4, 4))) for _ in range(n)],
            ):
                col = rng.randrange(n)
                replaced = [[*row[:col], b, *row[col + 1 :]] for row, b in zip(m, rhs)]
                assert det_bareiss(replaced) == fraction_det(replaced), replaced
                x = solve_exact(m, rhs)
                assert [sum(a * xi for a, xi in zip(row, x)) for row in m] == rhs

    def test_linking_det_matches_bareiss(self):
        for p, q in lens_pairs(60):
            for knot in KNOTS:
                chain = build_chain(p, q, knot)
                assert linking_det(chain) == det_bareiss(linking_matrix(chain)), f"L({p},{q})"


def test_solve_exact():
    m = [[-3, 1], [1, -2]]
    x = solve_exact(m, [1, 0])
    assert x == [Fraction(-2, 5), Fraction(-1, 5)]
    # The generic solver names its own input, not the linking matrix.
    with pytest.raises(ValueError, match="^singular matrix$"):
        solve_exact([[1, 1], [1, 1]], [1, 0])


@pytest.mark.parametrize("rhs", [[1], [1, 0, 0]])
def test_solve_exact_rejects_a_wrong_length_rhs(rhs):
    with pytest.raises(ValueError, match="right-hand side must have 2 entries"):
        solve_exact([[2, 1], [1, 2]], rhs)


def test_solve_exact_solves_every_chain():
    for p, q in lens_pairs(60):
        for knot in KNOTS:
            chain = build_chain(p, q, knot)
            m, lk = linking_matrix(chain), meridian_lk(chain)
            x = solve_exact(m, lk)
            mx = [sum(a * xi for a, xi in zip(row, x)) for row in m]
            assert mx == list(lk), f"L({p},{q}) {knot}"


def test_cramer_denominator_is_the_linking_determinant():
    # rot_Q is summed over d unreduced, so d keeps det M's size and sign.
    for p, q in lens_pairs(60):
        for knot in KNOTS:
            chain = build_chain(p, q, knot)
            _, d = surgery._cramer(surgery._linking_rows(chain.framings), meridian_lk(chain))
            assert d == linking_det(chain), f"L({p},{q}) {knot}"


def test_solve_exact_reads_list_and_tuple_rows_alike():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 6)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if det_bareiss(m) == 0:
            continue
        rhs = [rng.randint(-3, 3) for _ in range(n)]
        x = solve_exact(m, rhs)
        assert solve_exact([tuple(row) for row in m], tuple(rhs)) == x
        assert [sum(a * xi for a, xi in zip(row, x)) for row in m] == rhs


@pytest.mark.parametrize("m", [[[1, 2], [3]], [(1, 2), (3, 4, 5)], ((1,), (2,))])
def test_solve_exact_rejects_a_ragged_matrix(m):
    with pytest.raises(ValueError, match="matrix must be square"):
        solve_exact(m, [1] * len(m))


@pytest.mark.parametrize(
    "solve, args",
    [
        (det_bareiss, ([[Fraction(5, 2), 1], [1, 1]],)),
        (det_bareiss, ([[2.5, 1], [1, 1]],)),
        (solve_exact, ([[Fraction(5, 2), 1], [1, 1]], [1, 0])),
        (solve_exact, ([[2, 1], [1, 2]], [Fraction(1, 2), 0])),
        (rot_q_surgery, (SurgeryChain((-3,)), [(1.0,)])),
        (rot_q_surgery, (SurgeryChain((-3,)), [(Fraction(1),)])),
    ],
    ids=[
        "det-fraction",
        "det-float",
        "solve-fraction-matrix",
        "solve-fraction-rhs",
        "rot-float",
        "rot-fraction",
    ],
)
def test_exact_algebra_rejects_non_integer_entries(solve, args):
    # The elimination's floor divisions are exact only on integers: these
    # once returned 1, 1.0, [1, -1] and [1/3, -1/3].  A rotation number of
    # 1.0 or Fraction(1) passes the range membership test; the float once
    # raised TypeError from Fraction.
    with pytest.raises(ValueError, match="must be integers"):
        solve(*args)


class TestRotation:
    def test_single_component(self):
        # L(3,1): chain (-3), meridian rot = -rot1 * (1 / -3)
        chain = SurgeryChain((-3,))
        assert rot_q_surgery(chain, [(-1,), (1,)]) == [Fraction(-1, 3), Fraction(1, 3)]

    def test_rejects_unrealizable_vectors(self):
        chain = SurgeryChain((-3, -2))
        for rot in [(1,), (1, 0, 0), (3, 0), (-3, 0), (0, 0), (1, 2), (1, 1)]:
            with pytest.raises(ValueError):
                rot_q_surgery(chain, [rot])
        assert rot_q_surgery(chain, []) == []
        # rot_q_surgery takes exactly the vectors of a tb = r + 1 unknot per
        # component: |rot_i| <= -r_i - 2 and rot_i = r_i (mod 2).
        chain = SurgeryChain((-4, -2, -5))
        choices = set(admissible(chain.framings))
        assert len(choices) == 3 * 1 * 4
        for rot in itertools.product(range(-4, 5), repeat=3):
            if rot in choices:
                rot_q_surgery(chain, [rot])
            else:
                with pytest.raises(ValueError, match=r"rotation numbers need \|rot_i\|"):
                    rot_q_surgery(chain, [rot])

    def test_checks_every_vector_before_the_solve(self, monkeypatch):
        # The solve is cubic in the chain length, so a bad vector is reported
        # without it; rots may be an iterator, read once.
        def no_solve(rows, rhs):
            raise RuntimeError("_cramer ran before the vectors were checked")

        monkeypatch.setattr(surgery, "_cramer", no_solve)
        chain = SurgeryChain((-3, -2))
        with pytest.raises(ValueError, match="wrong number of rotation numbers"):
            rot_q_surgery(chain, iter([(1, 0), (1,)]))
        with pytest.raises(ValueError, match=r"rotation numbers need \|rot_i\|"):
            rot_q_surgery(chain, iter([(1, 0), (3, 0)]))
        with pytest.raises(ValueError, match="rotation numbers must be integers"):
            rot_q_surgery(chain, iter([(1, 0), (1.0, 0)]))
        monkeypatch.undo()
        rots = [(1, 0), (-1, 0)]
        assert rot_q_surgery(chain, iter(rots)) == rot_q_surgery(chain, rots)

    def test_matches_the_sum_over_solve_exact(self):
        # -sum rot_i * x_i over solve_exact's fractions, for every rotation
        # vector of every chain with p <= 40.
        for p, q in lens_pairs(40):
            for knot in KNOTS:
                chain = build_chain(p, q, knot)
                x = solve_exact(linking_matrix(chain), meridian_lk(chain))
                rots = admissible(chain.framings)
                expected = [-sum(v * xi for v, xi in zip(rot, x)) for rot in rots]
                assert rot_q_surgery(chain, rots) == expected, f"L({p},{q}) {knot}"

    def test_one_solve_per_spectrum(self, monkeypatch):
        calls = []
        cramer = surgery._cramer

        def counting_solve(rows, rhs):
            calls.append(len(rhs))
            return cramer(rows, rhs)

        monkeypatch.setattr(surgery, "_cramer", counting_solve)
        for p, q in lens_pairs(12):
            for knot in ("k1", "k2"):
                calls.clear()
                rot_spectrum(p, q, knot)
                assert len(calls) == 1, f"L({p},{q}) {knot}"
                calls.clear()
                surgery._spectrum(build_chain(p, q, knot))  # solved on the call, not at next()
                assert len(calls) == 1, f"L({p},{q}) {knot} unconsumed"

    @pytest.mark.parametrize(
        "p,q,knot,spectrum",
        [
            (3, 1, "k1", [Fraction(-1, 3), Fraction(1, 3)]),
            (5, 2, "k1", [Fraction(-2, 5), Fraction(2, 5)]),
            (5, 2, "k2", [Fraction(-1, 5), Fraction(1, 5)]),
            (5, 3, "k1", [Fraction(-1, 5), Fraction(1, 5)]),
            (5, 3, "k2", [Fraction(-2, 5), Fraction(2, 5)]),
            (
                9,
                2,
                "k1",
                [Fraction(-2, 3), Fraction(-2, 9), Fraction(2, 9), Fraction(2, 3)],
            ),
        ],
    )
    def test_spectra(self, p, q, knot, spectrum):
        assert rot_spectrum(p, q, knot) == spectrum

    def test_spectrum_is_symmetric(self):
        for p, q in [(7, 2), (12, 5), (11, 3)]:
            for knot in ("k1", "k2"):
                values = rot_spectrum(p, q, knot)
                assert values == sorted(-v for v in values)

    def test_denominator_divides_order(self):
        for p, q in [(7, 3), (12, 5), (15, 4)]:
            for v in rot_spectrum(p, q):
                assert (v * p).denominator == 1
