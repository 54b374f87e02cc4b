"""Mayer–Vietoris from one factor per corner, against the quotient oracle,
and the spot rule on maps that are not exact."""

import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from helpers import random_cube
from t0_oracle import mayer_vietoris_by_quotients

from novcube import chain, linalg, rays
from novcube.cubes import cube_from_json, id_cube, to_positive_signs
from novcube.morse import bundled_model, minmax_square
from novcube.rays import mayer_vietoris

CLI_DATA = Path(__file__).parent / "data" / "cli"


def outcome(mv, square):
    try:
        rep = mv(square, 3)
        return rep.ok, rep.spots, rep.ranks
    except Exception as exc:  # the oracle raises as the library does
        return type(exc), str(exc)


def _cli_squares():
    """Builders of every full 2-cube under tests/data/cli/."""
    builders = []
    for path in sorted(CLI_DATA.glob("*.json")):
        try:
            cube = cube_from_json(json.loads(path.read_text()))
        except Exception:
            continue
        if cube.n == 2 and not cube.partial:
            builders.append(lambda path=path: cube_from_json(
                json.loads(path.read_text())))
    return builders


def _minmax_squares():
    builders = []
    for name in ("interval", "circle", "grid9", "circle6"):
        m = bundled_model(name)
        h = dict(m.values)
        for a, b in ((1, 0), (2, F(1, 2)), (0, 1), (1, F(-1, 3)), (3, 1)):
            hy = {l: a * h[l] + b for l in m.labels}
            builders.append(lambda m=m, h=h, hy=hy:
                            minmax_square(m, h, hy).square)
    return builders


def _random_squares(count):
    """Seeded builders: random 2-cubes, unit and not, id cubes of random
    1-cubes and of identity 1-cubes, and the positive twin of each."""
    builders = []
    for seed in range(count):
        kind = seed % 4
        if kind == 0:
            def make(seed=seed):
                return random_cube(random.Random(seed), 2, max_gens=2, mix=4)
        elif kind == 1:
            def make(seed=seed):
                return random_cube(random.Random(seed), 2, unit=True, mix=4)
        elif kind == 2:
            def make(seed=seed):
                return id_cube(random_cube(random.Random(seed), 1,
                                           max_gens=3, mix=4))
        else:
            def make(seed=seed):
                return id_cube(id_cube(random_cube(random.Random(seed), 0,
                                                   max_gens=3)))
        builders += [make, lambda make=make: to_positive_signs(make())]
    return builders


def test_mayer_vietoris_matches_the_quotient_oracle():
    """On every square, the report or the refusal equals the oracle's;
    each side gets a fresh cube, so no certificate or T = 0 total complex
    is shared."""
    builders = _random_squares(500) + _cli_squares() + _minmax_squares()
    assert len(builders) >= 1000
    kinds = set()
    for make in builders:
        got = outcome(mayer_vietoris, make())
        assert got == outcome(mayer_vietoris_by_quotients, make())
        kinds.add(got[0] if len(got) == 2 else ("report", got[0]))
    assert ("report", True) in kinds and rays.NotAcyclic in kinds


def _spot(images, classes, dim=2):
    return rays._induced(images, classes, dim)


def test_the_spot_rule_direct_cases():
    """A homology space Q^2 whose spanning cycles 0 and 1 have the unit
    classes; a map's images are given over those cycles."""
    unit = {0: {0: 1}, 1: {1: 1}}
    # in: onto the line of cycle 0; out: kills cycle 0, cycle 1 onto a line
    into = _spot({7: {0: 1}}, unit)
    out = _spot({0: {}, 1: {5: 1}}, {5: {5: F(1, 2)}})
    assert into[2] == out[2] == 1
    assert rays._exact(into, out, 2)
    # ranks add up to 2, but out does not kill the image of in
    nonzero = _spot({0: {5: 1}, 1: {}}, {5: {5: 3}})
    assert not rays._exact(into, nonzero, 2)
    # the composite vanishes, but im(in) is a line in the plane ker(out)
    zero = _spot({0: {}, 1: {}}, {})
    assert zero[2] == 0 and not rays._exact(into, zero, 2)
    # a boundary among the spanning cycles: its class is zero
    with_boundary = {0: {0: 1}, 1: {1: 1}, 2: {}}
    onto = _spot({7: {0: 1}, 8: {1: 1}, 9: {2: 4}}, with_boundary)
    assert onto[2] == 2
    assert rays._exact(onto, _spot({0: {}, 1: {}, 2: {}}, {}), 2)
    assert not rays._exact(onto, _spot({0: {}, 1: {5: 1}, 2: {}},
                                       {5: {5: 1}}), 2)
    # dimension 0: every pair of zero maps is exact
    assert rays._exact(_spot({}, {}, 0), _spot({}, {}, 0), 0)


def _circle_square(shift=F(1, 2)):
    m = bundled_model("circle")
    h = dict(m.values)
    return minmax_square(m, h, {l: h[l] + shift for l in m.labels}).square


@pytest.mark.parametrize("name,p,touched", [
    ("rho", 0, {("sum", 0), ("initial", 0)}),
    ("sigma", 1, {("sum", 1), ("terminal", 1)}),
])
def test_zeroing_one_induced_map_breaks_exactly_its_two_spots(
        monkeypatch, name, p, touched):
    """On this square the connecting map is zero and rho and sigma have
    rank 2 in each parity, so each is what makes its two spots exact."""
    verdict = rays._verdict
    seen = {}

    def zeroing(rho, sigma, delta, ranks):
        maps = {"rho": rho, "sigma": sigma, "delta": delta}
        coefs, classes, rank = maps[name][p]
        seen["rank"] = rank
        maps[name][p] = ({j: {} for j in coefs}, {j: {} for j in classes},
                         0)
        return verdict(rho, sigma, delta, ranks)

    assert mayer_vietoris(_circle_square(), 3).ok
    monkeypatch.setattr(rays, "_verdict", zeroing)
    rep = mayer_vietoris(_circle_square(), 3)
    assert seen["rank"] > 0 and not rep.ok
    assert {(spot, q) for spot, by in rep.spots.items()
            for q, v in by.items() if not v} == touched


def test_mayer_vietoris_factors_each_corner_once(monkeypatch):
    """After min/max has factored the total complex, one call factors the
    four corners and the six induced maps' classes once each, and builds
    no quotient space."""
    built = []

    def counting(kind):
        class Counting(linalg.Elimination):
            def __init__(self, rows, ncols):
                built.append(kind)
                super().__init__(rows, ncols)
        return Counting

    def refuse(*args):
        raise AssertionError("no second elimination of homology")

    square = _circle_square()
    square.total_t0.factor
    monkeypatch.setattr(chain, "Elimination", counting("corner"))
    monkeypatch.setattr(rays, "Elimination", counting("rank"))
    monkeypatch.setattr(linalg.QuotientSpace, "__init__", refuse)
    monkeypatch.setattr(chain.QComplex, "homology_space", refuse)
    assert mayer_vietoris(square, 3).ok
    assert sorted(built) == ["corner"] * 4 + ["rank"] * 6
