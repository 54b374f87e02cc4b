"""Random instance generators shared by the test modules.

Random complexes start from a canonical form (unpaired generators plus
monomial arrows) and get mixed by unit-triangular changes of basis, which
preserve d*d = 0, parities and nonnegative valuations exactly.
"""

import random
from contextlib import contextmanager
from fractions import Fraction as F

from novcube.chain import ChainComplex, Generator, mat_clean
from novcube.novikov import NovikovScalar

EXPONENTS = [F(0), F(0), F(1), F(1, 2), F(1, 3), F(3, 2), F(2)]
COEFFS = [F(1), F(-1), F(2), F(-2), F(1, 2), F(3)]


def random_scalar(rng, exponents=EXPONENTS, n_terms=(1, 2)):
    k = rng.randint(*n_terms)
    terms = [(rng.choice(exponents), rng.choice(COEFFS)) for _ in range(k)]
    return NovikovScalar(terms)


def unit_basis_op(diff, a, b, lam):
    """Apply the change of basis e_a := e_a + lam * e_b to a differential.

    a and b must have equal parity; lam must have valuation >= 0.
    """
    new = dict(diff)
    for (t, s), v in diff.items():
        if s == b:
            key = (t, a)
            new[key] = new.get(key, NovikovScalar.zero()) + lam * v
    out = dict(new)
    for (t, s), v in new.items():
        if t == a:
            key = (b, s)
            out[key] = out.get(key, NovikovScalar.zero()) - lam * v
    return mat_clean(out)


def mix_basis(rng, gens, diff, rounds=4, exponents=EXPONENTS):
    by_parity = {0: [], 1: []}
    for g in gens:
        by_parity[g.parity].append(g.label)
    for _ in range(rounds):
        par = rng.choice([0, 1])
        pool = by_parity[par]
        if len(pool) < 2:
            continue
        a, b = rng.sample(pool, 2)
        lam = NovikovScalar.monomial(rng.choice(COEFFS),
                                     rng.choice(exponents))
        diff = unit_basis_op(diff, a, b, lam)
    return diff


def random_complex(rng, max_gens=6, arrows=None, unit_arrows=False,
                   prefix="g", mix=4):
    """Random verified complex over the nonnegative part of the ring.

    ``unit_arrows`` restricts arrow scalars to valuation 0 (the complex is
    then acyclic at T = 0 iff no generator is unpaired).
    """
    n = rng.randint(0, max_gens)
    gens = [Generator("%s%d" % (prefix, i), rng.randint(0, 1))
            for i in range(n)]
    even = [g.label for g in gens if g.parity == 0]
    odd = [g.label for g in gens if g.parity == 1]
    rng.shuffle(even)
    rng.shuffle(odd)
    pairs = min(len(even), len(odd))
    if arrows is None:
        arrows = rng.randint(0, pairs)
    diff = {}
    for i in range(min(arrows, pairs)):
        src, tgt = even[i], odd[i]
        if rng.random() < 0.5:
            src, tgt = tgt, src
        exp = F(0) if unit_arrows else rng.choice(EXPONENTS)
        diff[(tgt, src)] = NovikovScalar.monomial(rng.choice(COEFFS), exp)
    diff = mix_basis(rng, gens, diff, rounds=mix)
    return ChainComplex(gens, diff)


def random_acyclic_t0_complex(rng, max_pairs=3, prefix="a"):
    """Acyclic at T = 0: paired generators with unit-valuation arrows."""
    pairs = rng.randint(0, max_pairs)
    gens = []
    diff = {}
    for i in range(pairs):
        p = rng.randint(0, 1)
        s, t = "%ss%d" % (prefix, i), "%st%d" % (prefix, i)
        gens += [Generator(s, p), Generator(t, 1 - p)]
        diff[(t, s)] = NovikovScalar.monomial(rng.choice(COEFFS), 0)
    diff = mix_basis(rng, gens, diff)
    return ChainComplex(gens, diff)


def direct_sum(parts):
    """The complexes ``parts``, which share no label, side by side."""
    gens = []
    diff = {}
    for c in parts:
        gens.extend(c.generators)
        diff.update(c.differential)
    return ChainComplex(gens, diff)


def null_homotopic_map(rng, source, target, terms=2):
    """d' Y + Y d for a random odd-degree Y: always a chain map."""
    from novcube.chain import mat_add, mat_compose
    y = {}
    for _ in range(terms):
        if not source.generators or not target.generators:
            break
        s = rng.choice(source.generators)
        t = rng.choice(target.generators)
        if (t.parity - s.parity) % 2 != 1:
            continue
        y[(t.label, s.label)] = random_scalar(rng)
    return mat_clean(mat_add(mat_compose(target.differential, y),
                             mat_compose(y, source.differential)))


# ---------------------------------------------------------------------------
# random cubes, built as square-zero triangular matrices in positive form


def plus_total(cube):
    """Total positive-form differential of a signed cube.

    Returns (gens, D): gens maps (vertex, label) -> parity in the total
    complex, D is keyed by ((w2, l2), (w1, l1)).
    """
    from novcube.cubes import (face_codes, initial_vertex,
                               positive_sign_exponent, terminal_vertex)
    gens = {}
    for w, c in cube.vertices.items():
        for g in c.generators:
            gens[(w, g.label)] = (g.parity + w.count("0")) % 2
    D = {}
    for code in face_codes(cube.n):
        entries = cube.face(code)
        if not entries:
            continue
        flip = positive_sign_exponent(code) % 2 and not cube.positive
        wi, wt = initial_vertex(code), terminal_vertex(code)
        for (t, s), v in entries.items():
            D[((wt, t), (wi, s))] = -v if flip else v
    return gens, D


def carve_cube(n, gens_by_vertex, D):
    """Signed cube from a positive-form square-zero triangular matrix.

    ``gens_by_vertex`` holds the original generators (unshifted parity);
    entries of D must go from a vertex to a componentwise-larger one.
    """
    from novcube.chain import ChainComplex, mat_clean
    from novcube.cubes import CubeDiagram, from_positive_signs
    faces = {}
    for ((w2, l2), (w1, l1)), v in D.items():
        code = []
        for a, b in zip(w1, w2):
            if a == b:
                code.append(a)
            elif a == "0" and b == "1":
                code.append("-")
            else:
                raise ValueError("entry against the vertex order")
        code = "".join(code)
        faces.setdefault(code, {})[(l2, l1)] = v
    faces = {c: mat_clean(m) for c, m in faces.items()}
    vertices = {w: ChainComplex(gens, faces.get(w, {}))
                for w, gens in gens_by_vertex.items()}
    plus = CubeDiagram(n, vertices, faces, positive=True)
    return from_positive_signs(plus)


def _triangular_mix(rng, parities, D, rounds, unit=False, allowed=None):
    """Conjugate by random basis ops e_q += lam * e_p with vtx(p) > vtx(q)."""
    keys = list(parities)
    for _ in range(rounds):
        if len(keys) < 2:
            break
        p = rng.choice(keys)
        q = rng.choice(keys)
        if parities[p] != parities[q]:
            continue
        if allowed is not None and not (allowed(p) and allowed(q)):
            continue
        wp, wq = p[0], q[0]
        if wp == wq or any(a < b for a, b in zip(wp, wq)):
            continue  # need vtx(p) strictly above vtx(q)
        lam = NovikovScalar.monomial(rng.choice(COEFFS),
                                     F(0) if unit else rng.choice(EXPONENTS))
        D = unit_basis_op(D, q, p, lam)
    return D


def random_cube(rng, n, max_gens=3, mix=8, unit=False):
    """Random valid signed n-cube."""
    from novcube.cubes import vertex_codes
    gens_by_vertex = {}
    parities = {}
    D = {}
    for w in vertex_codes(n):
        if unit:
            c = random_acyclic_t0_complex(rng, prefix="g%s_" % w)
        else:
            c = random_complex(rng, max_gens=max_gens, prefix="g%s_" % w)
        gens_by_vertex[w] = list(c.generators)
        z = w.count("0")
        sign = -1 if z % 2 else 1
        for g in c.generators:
            parities[(w, g.label)] = (g.parity + z) % 2
        for (t, s), v in c.differential.items():
            D[((w, t), (w, s))] = v.scale(sign)
    D = _triangular_mix(rng, parities, D, rounds=mix, unit=unit)
    return carve_cube(n, gens_by_vertex, D)


def random_extension(rng, shared, mix=6):
    """Random n-cube whose {x_n = 0} face equals ``shared`` exactly."""
    from novcube.chain import mat_add, mat_compose
    from novcube.cubes import vertex_codes
    m = shared.n
    s_gens, s_D = plus_total(shared)
    top = random_cube(rng, m, mix=4)
    t_gens, t_D = plus_total(top)

    gens_by_vertex = {}
    parities = {}
    D = {}
    for w in vertex_codes(m):
        gens_by_vertex[w + "0"] = list(shared.vertex(w).generators)
        gens_by_vertex[w + "1"] = [
            Generator(("t", g.label), g.parity)
            for g in top.vertex(w).generators]
    relab_s = lambda k: ((k[0] + "0"), k[1])
    relab_t = lambda k: ((k[0] + "1"), ("t", k[1]))
    for k, par in s_gens.items():
        parities[relab_s(k)] = (par + 1) % 2
    for k, par in t_gens.items():
        parities[relab_t(k)] = par
    for (a, b), v in s_D.items():
        D[(relab_s(a), relab_s(b))] = -v
    for (a, b), v in t_D.items():
        D[(relab_t(a), relab_t(b))] = v
    # connecting block R = D_top X + X D_shared for an even X
    x = {}
    s_keys = list(s_gens)
    t_keys = list(t_gens)
    for _ in range(4):
        if not s_keys or not t_keys:
            break
        p = rng.choice(s_keys)
        q = rng.choice(t_keys)
        if (s_gens[p] + 1) % 2 != t_gens[q]:  # X even in the big cube
            continue
        if any(a > b for a, b in zip(p[0], q[0])):  # keep D triangular
            continue
        x[(q, p)] = random_scalar(rng)
    r = mat_add(mat_compose(t_D, x), mat_compose(x, s_D))
    for (q, p), v in r.items():
        if v.terms:
            D[(relab_t(q), relab_s(p))] = v
    # mixing confined to the top part so the shared face stays identical
    D = _triangular_mix(rng, parities, D, rounds=mix,
                        allowed=lambda k: k[0].endswith("1"))
    return carve_cube(m + 1, gens_by_vertex, D)


def random_ray_cubes(rng, n, length):
    """A list of n-cubes consecutively gluable in the last direction."""
    out = [random_cube(rng, n)]
    for _ in range(length - 1):
        out.append(random_extension(rng, out[-1].subcube(n, "1")))
    return out


def make_triangle(f, fprime, fillers=None):
    """Triangle (n+2)-cube from composable maps f: C->C', f': C'->C''.

    The long edge is the composition; with exact composition the zero
    fillers satisfy the coherence equations.
    """
    from novcube.chain import mat_identity
    from novcube.cubes import CubeDiagram, compose, face_codes, vertex_codes
    n = f.n
    g = compose(f, fprime)
    source = f.subcube(n, "0")
    target = fprime.subcube(n, "1")
    vertices = {}
    for w in vertex_codes(n + 1):
        base, a, b = w[:-2], w[-2], w[-1]
        if b == "0":
            vertices[w] = source.vertex(base)
        else:
            vertices[w] = (f.subcube(n, "1") if a == "0" else target).vertex(base)
    middle = f.subcube(n, "1")
    faces = {}
    for code in face_codes(n - 1):
        faces[code + "0-"] = dict(f.face(code + "-"))
        faces[code + "1-"] = dict(g.face(code + "-"))
        faces[code + "-1"] = dict(fprime.face(code + "-"))
        faces[code + "00"] = dict(source.face(code))
        faces[code + "10"] = dict(source.face(code))
        faces[code + "01"] = dict(middle.face(code))
        faces[code + "11"] = dict(target.face(code))
        if fillers and code + "--" in fillers:
            faces[code + "--"] = fillers[code + "--"]
    for w in vertex_codes(n - 1):
        faces[w + "-0"] = mat_identity(source.vertex(w).labels)
    return CubeDiagram(n + 1, vertices, faces)


@contextmanager
def vertex_views():
    """The list of (cube, code) of every ``CubeDiagram.vertex`` call made
    inside the block."""
    from novcube.cubes import CubeDiagram
    calls = []
    original = CubeDiagram.vertex

    def counting(self, code):
        calls.append((self, code))
        return original(self, code)

    CubeDiagram.vertex = counting
    try:
        yield calls
    finally:
        CubeDiagram.vertex = original
