import pytest

from lensknots import mcg, slopes, tight
from lensknots.checks import lens_pairs
from lensknots.mcg import (
    GroupDescription,
    contact_mcg,
    contact_mcg_rel_torus,
    contact_mcg_s1s2,
    delta_action,
    eta_action,
    inclusion_is_iso,
    inclusion_kernel,
    smooth_mcg,
    unknot_classes,
)


def test_group_description_validation():
    assert GroupDescription("trivial").order == 1
    assert GroupDescription("Z2", ("tau",)).order == 2
    assert GroupDescription("ZxZ2", ("delta", "eta")).order is None
    with pytest.raises(ValueError):
        GroupDescription("Z3", ("x",))
    with pytest.raises(ValueError):
        GroupDescription("Z2", ())


class TestSmooth:
    @pytest.mark.parametrize(
        "p,q,tag,gens",
        [
            (2, 1, "trivial", ()),
            (3, 1, "Z2", ("tau",)),
            (5, 4, "Z2", ("sigma",)),
            (8, 3, "Z2xZ2", ("sigma", "tau")),
            (7, 2, "Z2", ("tau",)),
            (12, 5, "Z2xZ2", ("sigma", "tau")),
        ],
    )
    def test_values(self, p, q, tag, gens):
        g = smooth_mcg(p, q)
        assert (g.tag, g.generators) == (tag, gens)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            smooth_mcg(6, 3)


class TestContact:
    @pytest.mark.parametrize(
        "p,q,order",
        [(2, 1, 1), (3, 1, 1), (5, 4, 2), (8, 3, 2), (7, 2, 1), (3, 2, 2)],
    )
    def test_orders(self, p, q, order):
        assert contact_mcg(p, q).order == order

    def test_contact_embeds_in_smooth(self):
        for p, q in lens_pairs(60):
            assert smooth_mcg(p, q).order % contact_mcg(p, q).order == 0

    def test_sigma_requires_square_one(self):
        for p, q in lens_pairs(60):
            if contact_mcg(p, q).order > 1:
                assert (q * q) % p == 1

    def test_cont0_flag(self):
        assert contact_mcg(5, 2).cont0_trivial is True


class TestRelTorusAndKernel:
    def test_rel_torus(self):
        assert contact_mcg_rel_torus(8, 3).tag == "Z2xZ2"
        assert contact_mcg_rel_torus(7, 2).tag == "Z2"

    def test_kernel_cases(self):
        assert inclusion_kernel(2, 1).tag == "Z2xZ2"
        assert inclusion_kernel(5, 4).generators == ("sigma*tau",)
        assert inclusion_kernel(5, 1).generators == ("sigma",)
        assert inclusion_kernel(8, 3).tag == "trivial"

    def test_kernel_order_matches_quotient(self):
        # rel-torus group surjects onto its image with the stated kernel
        for p, q in lens_pairs(40):
            rel = contact_mcg_rel_torus(p, q).order
            ker = inclusion_kernel(p, q).order
            assert rel % ker == 0
            image = rel // ker
            assert image <= smooth_mcg(p, q).order


def test_inclusion_is_iso():
    for p, q in lens_pairs(60):
        iso = inclusion_is_iso(p, q)
        assert iso == ((q + 1) % p == 0)
        if iso:
            assert contact_mcg(p, q).order == smooth_mcg(p, q).order


def test_unknot_classes():
    assert unknot_classes(2, 1) == ["k1"]
    assert unknot_classes(3, 1) == ["k1", "-k1"]
    assert unknot_classes(5, 4) == ["k1", "-k1"]
    assert unknot_classes(5, 2) == ["k1", "-k1", "k2", "-k2"]


@pytest.mark.parametrize(
    "call", [unknot_classes, smooth_mcg, tight.peak_tb], ids=lambda f: f.__name__
)
def test_one_lens_pair_validation_per_call(monkeypatch, call):
    real, checked = slopes.require_lens_pair, []

    def counted(p, q):
        checked.append((p, q))
        real(p, q)

    for mod in (slopes, tight, mcg):
        if hasattr(mod, "require_lens_pair"):
            monkeypatch.setattr(mod, "require_lens_pair", counted)
    for p, q in [(2, 1), (5, 4), (8, 3), (12, 5)]:
        checked.clear()
        call(p, q)
        assert checked == [(p, q)], call.__name__
    for p, q in [(6, 3), (1, 0), (5, 5), (-5, 2), (2, 3)]:
        with pytest.raises(ValueError, match=rf"^need coprime p > q > 0, got \({p}, {q}\)$"):
            call(p, q)


def _g(tag, *generators, cont0=None):
    return GroupDescription(tag, generators, cont0)


@pytest.mark.parametrize(
    "p,q,smooth,contact,rel_torus,kernel,iso,knots",
    [
        (
            2, 1, _g("trivial"), _g("trivial", cont0=True), _g("Z2xZ2", "sigma", "tau"),
            _g("Z2xZ2", "sigma", "tau"), True, ["k1"],
        ),
        (
            7, 6, _g("Z2", "sigma"), _g("Z2", "sigma", cont0=True), _g("Z2xZ2", "sigma", "tau"),
            _g("Z2", "sigma*tau"), True, ["k1", "-k1"],
        ),
        (
            7, 1, _g("Z2", "tau"), _g("trivial", cont0=True), _g("Z2xZ2", "sigma", "tau"),
            _g("Z2", "sigma"), False, ["k1", "-k1"],
        ),
        (
            8, 3, _g("Z2xZ2", "sigma", "tau"), _g("Z2", "sigma", cont0=True),
            _g("Z2xZ2", "sigma", "tau"), _g("trivial"), False, ["k1", "-k1", "k2", "-k2"],
        ),
        (
            7, 2, _g("Z2", "tau"), _g("trivial", cont0=True), _g("Z2", "tau"), _g("trivial"),
            False, ["k1", "-k1", "k2", "-k2"],
        ),
    ],
    ids=["p=2", "q=-1", "q=1", "q^2=1", "generic"],
)
def test_one_representative_per_case(p, q, smooth, contact, rel_torus, kernel, iso, knots):
    assert smooth_mcg(p, q) == smooth
    assert contact_mcg(p, q) == contact
    assert contact_mcg_rel_torus(p, q) == rel_torus
    assert inclusion_kernel(p, q) == kernel
    assert inclusion_is_iso(p, q) is iso
    assert unknot_classes(p, q) == knots


def test_s1s2():
    g = contact_mcg_s1s2()
    assert g.tag == "ZxZ2"
    assert g.generators == ("delta", "eta")
    assert g.cont0_trivial is False
    assert delta_action(0) == 1
    assert delta_action(0, positive_core=False) == -1
    assert eta_action(3) == -3
    # eta conjugates delta to its inverse
    assert eta_action(delta_action(eta_action(5))) == delta_action(5, False)
