"""The queued barcode reduction against the full-scan oracle."""

import random
from fractions import Fraction as F

from barcode_oracle import full_scan_barcode
from helpers import direct_sum, null_homotopic_map, random_complex
from hypothesis import given, settings
from hypothesis import strategies as st

from novcube.chain import ChainComplex, Generator, _barcode, mat_clean
from novcube.cubes import CubeDiagram
from novcube.novikov import NovikovScalar, PrecisionExhausted
from novcube.rays import Ray, TailSpec, telescope_complex

WORKS = [F(1), F(3, 2), F(3), F(10)]
PRECISIONS = [F(1, 3), F(1, 2), F(1), F(2)]


def _arrow(rng):
    """A monomial, or a scalar known only modulo T^R."""
    if rng.random() < 0.5:
        return NovikovScalar((), rng.choice(PRECISIONS))
    return NovikovScalar.monomial(rng.choice([1, -2, 3]),
                                  rng.choice([F(0), F(1, 2), F(1), F(2)]))


def _fan(rng, name):
    """One generator joined to one to three others of the other parity;
    no two arrows compose, so any scalars give d*d = 0."""
    par = rng.randint(0, 1)
    hub = Generator(name, par)
    rim = [Generator("%s%d" % (name, k), 1 - par)
           for k in range(rng.randint(1, 3))]
    into = rng.random() < 0.5
    diff = {((hub.label, g.label) if into else (g.label, hub.label)):
            _arrow(rng) for g in rim}
    return ChainComplex([hub] + rim, diff)


def oracle_case(rng):
    """A random complex, possibly with tuple labels, next to fans whose
    arrows tie in valuation or are known only modulo T^R, plus a working
    precision."""
    c = random_complex(rng, max_gens=8, unit_arrows=rng.random() < 0.3,
                       mix=rng.randint(0, 8))
    if rng.random() < 0.5:
        # tuple labels: repr order ("('g', 10)" < "('g', 3)") differs from
        # both the numeric and the insertion order
        keys = rng.sample(range(1, 40), len(c.generators))
        names = dict(zip(c.labels, keys))
        c = c.relabel(lambda l: ("g", names[l]))
    fans = [_fan(rng, "f%d" % k) for k in range(rng.randint(0, 2))]
    return direct_sum([c] + fans), rng.choice(WORKS)


def outcome(fn, c, work):
    """The barcode or the exception, and the pivots in the order taken
    (each reduction inverts every pivot once)."""
    pivots = []
    invert = NovikovScalar.invert

    def recording(self, *args):
        pivots.append(self)
        return invert(self, *args)

    NovikovScalar.invert = recording
    try:
        return fn(c, work), pivots
    except (PrecisionExhausted, ValueError) as exc:
        return (type(exc), str(exc)), pivots
    finally:
        NovikovScalar.invert = invert


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_queued_barcode_matches_full_scan(rng):
    c, work = oracle_case(rng)
    assert outcome(_barcode, c, work) == outcome(full_scan_barcode, c, work)


def test_oracle_cases_reach_every_outcome():
    rng = random.Random(11)
    seen = set()
    for _ in range(400):
        c, work = oracle_case(rng)
        got, pivots = outcome(_barcode, c, work)
        assert (got, pivots) == outcome(full_scan_barcode, c, work)
        if isinstance(got, tuple):
            seen.add(got[0].__name__)
        else:
            seen.add("free_at_precision" if got.free_at_precision
                     else "torsion" if got.torsion_bars else "barcode")
    assert {"PrecisionExhausted", "free_at_precision",
            "torsion"} <= seen, seen


def telescope_case(rng):
    """The telescope of a stationary 1-ray whose cube is T^gap id + T^gap
    (dY + Yd) on a random complex of 11 to 16 generators, at a depth that
    gives it 40 to 80 generators; labels run ('tel', k, 's', 'g10'), so
    repr order and numeric order disagree."""
    while True:
        c = random_complex(rng, max_gens=16, mix=6)
        if len(c.generators) < 11:
            continue
        gap = rng.choice([F(1, 2), F(1)])
        f = {(l, l): NovikovScalar.monomial(1, gap) for l in c.labels}
        for key, v in null_homotopic_map(rng, c, c, terms=3).items():
            f[key] = f.get(key, NovikovScalar.zero()) + v.shift(gap)
        ray = Ray(1, [], TailSpec.stationary(
            CubeDiagram(1, {"0": c, "1": c}, {"-": mat_clean(f)})))
        tel = telescope_complex(ray, rng.randint(1, 2))
        if 40 <= len(tel.generators) <= 80:
            return tel


def test_queued_barcode_matches_full_scan_at_telescope_size():
    rng = random.Random(27)
    for _ in range(24):
        tel = telescope_case(rng)
        work = rng.choice([F(3, 2), F(3)])
        got = outcome(_barcode, tel, work)
        assert got == outcome(full_scan_barcode, tel, work)


def test_generator_order_does_not_change_the_barcode():
    """Permuting ``c.generators`` leaves the barcode and the pivots taken
    as they were: the positions the reduction numbers stay inside it."""
    rng = random.Random(29)
    for _ in range(200):
        c, work = oracle_case(rng)
        gens = list(c.generators)
        rng.shuffle(gens)
        assert (outcome(_barcode, ChainComplex(gens, c.differential), work)
                == outcome(_barcode, c, work))
