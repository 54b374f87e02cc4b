"""Seeded input generator for the novcube benchmark.

Everything here is plain Python with exact rationals and does not import
``novcube``: the generator writes the JSON file formats documented in the
project README (models, min/max files, descent-instance files, cubes and
rays), so that a refactor of the library or of its test helpers cannot
change what the benchmark feeds it.  The same workload and seed always
produce the same bytes.

Scalars are handled as ``{exponent: coefficient}`` dicts of Fractions.
Random complexes start from a canonical form (unpaired generators plus
monomial arrows) and are mixed by unit-triangular changes of basis, which
keep d*d = 0, parities and nonnegative valuations exactly.  Random cubes
are built the same way as square-zero matrices in positive sign form that
are triangular along the vertex order, then carved into signed faces.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction as F
from pathlib import Path
from typing import Dict, List, Tuple

EXPONENTS = [F(0), F(0), F(1), F(1, 2), F(1, 3), F(3, 2), F(2)]
# stationary rays keep exponents on the lattice (1/2)Z, which bounds the
# number of terms a scalar can have below the working precision
HALF_EXPONENTS = [F(0), F(0), F(1, 2), F(1), F(3, 2)]
COEFFS = [F(1), F(-1), F(2), F(-2), F(1, 2), F(3)]

WORKLOADS = ("minmax_mv", "descent", "stationary_sh", "cli_cubes")

# instances per round, in round order
MINMAX_MODELS = ("interval", "circle", "grid9", "circle6")
# instance costs differ threefold with the weights, so a round needs many
MINMAX_PER_ROUND = 256
# each two-region family twice (with other regions), three regions on the
# smallest and the largest circle: ten families, so that the median falls
# between the two circle12 families, well apart from the costly ones
DESCENT_CLASSES = (("circle6", 2), ("grid9", 2), ("circle12", 2),
                   ("circle24", 2), ("circle6", 3), ("circle6", 2),
                   ("grid9", 2), ("circle12", 2), ("circle24", 2),
                   ("circle24", 3))
# (generators of the slice complex, gap, precision, telescope depth), each
# shape twelve times per round
STATIONARY_SHAPES = tuple(shape for g in (10, 12, 14)
                          for shape in [(g, F(1, 2), F(1), 2),
                                        (g, F(1), F(1), 3)] * 12)
STATIONARY_WORK = F(3, 2)


# ---------------------------------------------------------------------------
# exact T-series as {exponent: coefficient}


def p_add(a: Dict, b: Dict, scale=F(1)) -> Dict:
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, F(0)) + scale * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def p_mul(a: Dict, b: Dict) -> Dict:
    out: Dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            v = out.get(e1 + e2, F(0)) + c1 * c2
            if v:
                out[e1 + e2] = v
            else:
                out.pop(e1 + e2, None)
    return out


def p_str(p: Dict) -> str:
    """The library's canonical scalar text, e.g. ``3*T^0 + -1/2*T^{1/3}``."""
    if not p:
        return "0"
    return " + ".join("%s*T^%s" % (p[e], e if e.denominator == 1
                                   else "{%s}" % e)
                      for e in sorted(p))


def mono(rng, exponents=None, shift=F(0)) -> Dict:
    exponents = EXPONENTS if exponents is None else exponents
    return {rng.choice(exponents) + shift: rng.choice(COEFFS)}


def basis_op(diff: Dict, a, b, lam: Dict) -> Dict:
    """Conjugate a differential by the change of basis e_a := e_a + lam e_b."""
    new = dict(diff)
    for (t, s), v in diff.items():
        if s == b:
            new[(t, a)] = p_add(new.get((t, a), {}), p_mul(lam, v))
    out = dict(new)
    for (t, s), v in new.items():
        if t == a:
            out[(b, s)] = p_add(out.get((b, s), {}), p_mul(lam, v), F(-1))
    return {k: v for k, v in out.items() if v}


def compose(second: Dict, first: Dict) -> Dict:
    by_source: Dict = {}
    for (t, s), v in second.items():
        by_source.setdefault(s, []).append((t, v))
    out: Dict = {}
    for (m, s), v1 in first.items():
        for t, v2 in by_source.get(m, ()):
            out[(t, s)] = p_add(out.get((t, s), {}), p_mul(v2, v1))
    return {k: v for k, v in out.items() if v}


def canonical_complex(rng, n_gens: int, arrows=None,
                      exponents=None) -> Tuple[Dict, Dict]:
    """Parities and a canonical-form differential with monomial arrows.

    ``arrows=None`` draws parities and the number of arrows at random; a
    number fixes it, with the generators split evenly between parities.
    """
    if arrows is None:
        parity = {"g%d" % i: rng.randint(0, 1) for i in range(n_gens)}
    else:
        parity = {"g%d" % i: i % 2 for i in range(n_gens)}
    even = [l for l, p in parity.items() if p == 0]
    odd = [l for l, p in parity.items() if p == 1]
    rng.shuffle(even)
    rng.shuffle(odd)
    if arrows is None:
        arrows = rng.randint(0, min(len(even), len(odd)))
    diff = {}
    for i in range(arrows):
        src, tgt = even[i], odd[i]
        if rng.random() < 0.5:
            src, tgt = tgt, src
        diff[(tgt, src)] = mono(rng, exponents)
    return parity, diff


def mix(rng, parity: Dict, diff: Dict, rounds: int, allowed=None,
        target_nnz=None, exponents=None) -> Dict:
    """Random unit-triangular changes of basis between equal parities.

    ``allowed(a, b)`` restricts the pairs (the cube generator uses it to
    stay triangular along the vertex order).  With ``target_nnz`` the
    mixing stops as soon as the differential has that many entries, so
    that instances of one shape cost about the same.
    """
    labels = sorted(parity, key=repr)
    for _ in range(rounds if labels else 0):
        if target_nnz is not None and len(diff) >= target_nnz:
            break
        a = rng.choice(labels)
        cands = [b for b in labels if b != a and parity[b] == parity[a]
                 and (allowed is None or allowed(a, b))]
        if not cands:
            continue
        diff = basis_op(diff, a, rng.choice(cands), mono(rng, exponents))
    return diff


# ---------------------------------------------------------------------------
# models


def _model(cells, boundary) -> dict:
    return {"cells": [dict(zip(("label", "parity", "value", "base"), c))
                      if len(c) == 4 else
                      dict(zip(("label", "parity", "value"), c))
                      for c in cells],
            "boundary": [{"target": t, "source": s, "coeff": c}
                         for t, s, c in boundary]}


def _circle_cover(k: int) -> dict:
    """A circle of 3k vertices and 3k edges over the 3-vertex base circle."""
    m = 3 * k
    if k == 1:
        vl = ["v%d" % i for i in range(m)]
        el = ["e%d" % i for i in range(m)]
    else:
        vl = ["m%d" % (2 * i) for i in range(m)]
        el = ["m%d" % (2 * i + 1) for i in range(m)]
    cells = []
    boundary = []
    for i in range(m):
        cells.append((vl[i], 0, "-1", "v%d" % (i % 3)))
        cells.append((el[i], 1, "-1/2", "e%d" % (i % 3)))
        boundary.append((el[i], vl[i], 1))
        boundary.append((el[i - 1], vl[i], -1))
    return _model(cells, boundary)


def model(name: str) -> dict:
    """Model JSON for the benchmark's cell models (named as the bundled
    models they reproduce)."""
    if name == "interval":
        return _model([("a0", 0, "-1"), ("a1", 0, "-1"), ("b", 1, "-1/2")],
                      [("b", "a0", 1), ("b", "a1", -1)])
    if name == "circle":
        return _model([("v0", 0, "-1"), ("v1", 0, "-1"), ("e0", 1, "-1/2"),
                       ("e1", 1, "-1/2")],
                      [("e0", "v0", 1), ("e1", "v0", -1), ("e1", "v1", 1),
                       ("e0", "v1", -1)])
    if name == "grid9":
        cells = [(v, 0, "-1", v) for v in ("v00", "v10", "v01", "v11")]
        cells += [(e, 1, "-2/3", e) for e in ("ex0", "ex1", "ey0", "ey1")]
        cells.append(("f", 0, "-1/3", "f"))
        return _model(cells, [
            ("ex0", "v00", -1), ("ey0", "v00", -1), ("ex0", "v10", 1),
            ("ey1", "v10", -1), ("ey0", "v01", 1), ("ex1", "v01", -1),
            ("ex1", "v11", 1), ("ey1", "v11", 1), ("f", "ex0", 1),
            ("f", "ey1", 1), ("f", "ex1", -1), ("f", "ey0", -1)])
    if name.startswith("circle"):
        return _circle_cover(int(name[len("circle"):]) // 6)
    raise KeyError(name)


def closed_base_regions(mdl: dict) -> List[Tuple[str, ...]]:
    """Nonempty base-point sets whose cells admit no arrow from outside."""
    base = {c["label"]: c.get("base", c["label"]) for c in mdl["cells"]}
    points = sorted(set(base.values()))
    out = []
    for k in range(1, len(points) + 1):
        for combo in itertools.combinations(points, k):
            chosen = set(combo)
            cells = {l for l, b in base.items() if b in chosen}
            if not any(b["target"] in cells and b["source"] not in cells
                       for b in mdl["boundary"]):
                out.append(combo)
    return out


# ---------------------------------------------------------------------------
# cubes and rays in positive form


def vertex_codes(n: int) -> List[str]:
    return ["".join(b) for b in itertools.product("01", repeat=n)]


def _count_sub(w: str, v: str) -> int:
    ways = [1] + [0] * len(w)
    for ch in v:
        for j in range(len(w) - 1, -1, -1):
            if w[j] == ch:
                ways[j + 1] += ways[j]
    return ways[-1]


def sign_exponent(code: str) -> int:
    """Exponent of the sign between positive and signed face maps."""
    return _count_sub("0-", code) + _count_sub("0", code)


def _above(a, b) -> bool:
    """Vertex of a strictly above vertex of b (a, b are (vertex, label))."""
    return a[0] != b[0] and all(x >= y for x, y in zip(a[0], b[0]))


def random_plus_cube(rng, n: int, max_gens: int, rounds: int,
                     prefix: str) -> Tuple[Dict, Dict]:
    """(total parities, positive-form D) of a random valid n-cube.

    Keys are (vertex_code, label); the total parity is the generator's own
    parity plus the number of zeros of its vertex.
    """
    parity: Dict = {}
    D: Dict = {}
    for w in vertex_codes(n):
        par, diff = canonical_complex(rng, rng.randint(0, max_gens))
        z = w.count("0")
        for l, p in par.items():
            parity[(w, prefix + l[1:])] = (p + z) % 2
        for (t, s), v in diff.items():
            D[((w, prefix + t[1:]), (w, prefix + s[1:]))] = \
                {e: -c if z % 2 else c for e, c in v.items()}
    D = mix(rng, parity, D, rounds, allowed=_not_below)
    return parity, _triangular(D)


def _not_below(a, b) -> bool:
    """e_a := e_a + lam e_b keeps D triangular when b is not below a."""
    return a[0] == b[0] or _above(b, a)


def _triangular(D: Dict) -> Dict:
    for (t, s) in D:
        if not (t[0] == s[0] or _above(t, s)):
            raise ValueError("generated entry against the vertex order")
    return D


def extension(rng, parity: Dict, D: Dict, n: int, max_gens: int,
              rounds: int, prefix: str) -> Tuple[Dict, Dict]:
    """A random n-cube glued after the given one in the last direction.

    Its {x_n = 0} face is the given cube's {x_n = 1} face, entry for
    entry; the new part is a random (n-1)-cube joined to it by a
    null-homotopic connecting block.
    """
    s_par = {(w[:-1], l): p for (w, l), p in parity.items() if w[-1] == "1"}
    s_D = {((t[0][:-1], t[1]), (s[0][:-1], s[1])): v
           for (t, s), v in D.items() if t[0][-1] == "1" and s[0][-1] == "1"}
    t_par, t_D = random_plus_cube(rng, n - 1, max_gens, rounds, prefix)
    up0 = lambda k: (k[0] + "0", k[1])
    up1 = lambda k: (k[0] + "1", k[1])
    new_par = {up0(k): (p + 1) % 2 for k, p in s_par.items()}
    new_par.update({up1(k): p for k, p in t_par.items()})
    new_D = {(up0(t), up0(s)): {e: -c for e, c in v.items()}
             for (t, s), v in s_D.items()}
    new_D.update({(up1(t), up1(s)): v for (t, s), v in t_D.items()})
    x: Dict = {}
    s_keys = sorted(s_par, key=repr)
    t_keys = sorted(t_par, key=repr)
    for _ in range(4):
        if not s_keys or not t_keys:
            break
        p, q = rng.choice(s_keys), rng.choice(t_keys)
        if (s_par[p] + 1) % 2 == t_par[q] and \
                all(a <= b for a, b in zip(p[0], q[0])):
            x[(q, p)] = mono(rng)
    r = compose(t_D, x)
    for k, v in compose(x, s_D).items():
        r[k] = p_add(r.get(k, {}), v)
    for (q, p), v in r.items():
        if v:
            new_D[(up1(q), up0(p))] = v
    new_D = mix(rng, new_par, new_D, rounds,
                allowed=lambda a, b: a[0][-1] == "1" and b[0][-1] == "1"
                and _not_below(a, b))
    return new_par, _triangular(new_D)


def _entries(m: Dict) -> list:
    return [{"target": t, "source": s, "scalar": p_str(v)}
            for (t, s), v in sorted(m.items())]


def cube_json(n: int, parity: Dict, D: Dict) -> dict:
    """Signed cube file: vertex complexes plus the faces of dimension > 0."""
    gens: Dict[str, list] = {w: [] for w in vertex_codes(n)}
    for (w, l), p in sorted(parity.items()):
        gens[w].append({"label": l, "parity": (p - w.count("0")) % 2})
    faces: Dict[str, Dict] = {}
    for ((w2, l2), (w1, l1)), v in D.items():
        code = "".join(a if a == b else "-" for a, b in zip(w1, w2))
        if sign_exponent(code) % 2:
            v = {e: -c for e, c in v.items()}
        faces.setdefault(code, {})[(l2, l1)] = v
    return {"n": n,
            "vertices": {w: {"generators": gens[w],
                             "differential": _entries(faces.get(w, {}))}
                         for w in vertex_codes(n)},
            "faces": {code: _entries(m) for code, m in sorted(faces.items())
                      if "-" in code}}


# ---------------------------------------------------------------------------
# workloads


def _rng(workload: str, seed: int, part: int = 0) -> random.Random:
    key = "%s:%d:%d" % (workload, seed, part)
    return random.Random(int.from_bytes(
        hashlib.sha256(key.encode()).digest()[:8], "big"))


def _minmax(seed: int):
    rng = _rng("minmax_mv", seed)
    models = {name: model(name) for name in MINMAX_MODELS}
    files, instances = {}, []
    for i in range(MINMAX_PER_ROUND):
        name = MINMAX_MODELS[i % len(MINMAX_MODELS)]
        mdl = models[name]
        a1, a2 = F(rng.randint(0, 3)), F(rng.randint(0, 3))
        b1 = F(rng.randint(-2, 2), rng.choice([1, 2, 3]))
        b2 = F(rng.randint(-2, 2), rng.choice([1, 2, 3]))
        vals = {c["label"]: F(c["value"]) for c in mdl["cells"]}
        fname = "minmax_%03d.json" % i
        files[fname] = {"model": mdl,
                        "hx": {l: str(a1 * v + b1) for l, v in vals.items()},
                        "hy": {l: str(a2 * v + b2) for l, v in vals.items()}}
        instances.append({"file": fname, "model": name,
                          "generators": len(mdl["cells"]),
                          "nonzeros": len(mdl["boundary"])})
    return files, instances


def _descent(seed: int):
    rng = _rng("descent", seed)
    files, instances = {}, []
    for i, (name, k) in enumerate(DESCENT_CLASSES):
        mdl = model(name)
        regions = rng.sample(closed_base_regions(mdl), k)
        fname = "descent_%02d.json" % i
        files[fname] = {"model": mdl, "regions": [list(r) for r in regions]}
        instances.append({"file": fname, "model": name, "regions": k,
                          "generators": len(mdl["cells"]),
                          "nonzeros": len(mdl["boundary"])})
    return files, instances


def stationary_ray(rng, n_gens: int, gap: F) -> Tuple[dict, int]:
    """Ray file with a stationary tail T^gap id + (dY + Yd), val(Y) >= gap."""
    parity, diff = canonical_complex(rng, n_gens, n_gens // 2 - 1,
                                     HALF_EXPONENTS)
    diff = mix(rng, parity, diff, 10 * n_gens, target_nnz=n_gens // 2 + 3,
               exponents=HALF_EXPONENTS)
    labels = sorted(parity)
    y = {}
    while len(y) < 3:
        s, t = rng.choice(labels), rng.choice(labels)
        if parity[s] != parity[t]:
            y[(t, s)] = mono(rng, HALF_EXPONENTS, shift=gap)
    f = {(l, l): {gap: F(1)} for l in labels}
    for k, v in compose(diff, y).items():
        f[k] = p_add(f.get(k, {}), v)
    for k, v in compose(y, diff).items():
        f[k] = p_add(f.get(k, {}), v)
    f = {k: v for k, v in f.items() if v}
    cx = {"generators": [{"label": l, "parity": parity[l]} for l in labels],
          "differential": _entries(diff)}
    cube = {"n": 1, "vertices": {"0": cx, "1": cx}, "faces": {"-": _entries(f)}}
    return {"n": 1, "prefix": [], "tail": {"kind": "stationary",
                                           "cube": cube}}, len(diff)


def _stationary(seed: int):
    rng = _rng("stationary_sh", seed)
    files, instances = {}, []
    for i, (n_gens, gap, prec, depth) in enumerate(STATIONARY_SHAPES):
        ray, nnz = stationary_ray(rng, n_gens, gap)
        fname = "ray_%02d.json" % i
        files[fname] = ray
        instances.append({"file": fname, "generators": n_gens,
                          "nonzeros": nnz, "gap": str(gap),
                          "precision": str(prec), "work": str(STATIONARY_WORK),
                          "depth": depth})
    return files, instances


# (command, cube dimension, most generators per vertex) per round; compose
# takes a glued pair and tel a 2-ray of three stages; an odd count puts the
# median on one command
CLI_PLAN = (("verify-cube", 5, 3), ("verify-cube", 6, 3),
            ("verify-cube", 7, 3), ("verify-cube", 8, 3), ("cone", 5, 3),
            ("cone", 6, 3), ("cone", 7, 3), ("cone", 8, 3),
            ("compose", 5, 3), ("compose", 6, 3), ("tel", 2, 6))


def _cli(seed: int):
    rng = _rng("cli_cubes", seed)
    files, instances = {}, []
    for i, (cmd, n, gens) in enumerate(CLI_PLAN):
        par, D = random_plus_cube(rng, n, gens, 6 * n, "a")
        stem = "%s_%02d_n%d" % (cmd.replace("-", "_"), i, n)
        if cmd in ("verify-cube", "cone"):
            files[stem + ".json"] = cube_json(n, par, D)
            args = [cmd, stem + ".json"]
            if cmd == "cone":
                args += ["--direction", str(rng.randint(1, n))]
        elif cmd == "compose":
            par2, D2 = extension(rng, par, D, n, gens, 6 * n, "b")
            files[stem + "_a.json"] = cube_json(n, par, D)
            files[stem + "_b.json"] = cube_json(n, par2, D2)
            args = [cmd, stem + "_a.json", stem + "_b.json"]
        else:
            stages = [(par, D)]
            for k in range(2):
                stages.append(extension(rng, *stages[-1], n, gens, 6 * n,
                                        "bc"[k]))
            files[stem + ".json"] = {
                "n": n, "prefix": [cube_json(n, p, d) for p, d in stages],
                "tail": {"kind": "finite"}}
            args = [cmd, stem + ".json", "--depth", "3", "--work", "3"]
        instances.append({"args": args, "dim": n, "generators": len(par),
                          "nonzeros": len(D)})
    return files, instances


GENERATORS = {"minmax_mv": _minmax, "descent": _descent,
              "stationary_sh": _stationary, "cli_cubes": _cli}


def dumps(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":"))
            + "\n").encode()


def generate(workload: str, seed: int, outdir: Path) -> Tuple[list, str]:
    """Write the workload's input files and manifest under ``outdir``.

    Returns the instance list (one round, in order) and the input digest,
    a SHA-256 over every file name and its bytes.
    """
    files, instances = GENERATORS[workload](seed)
    files["manifest.json"] = {"workload": workload, "seed": seed,
                              "instances": instances}
    outdir.mkdir(parents=True, exist_ok=True)
    h = hashlib.sha256()
    for name in sorted(files):
        data = dumps(files[name])
        (outdir / name).write_bytes(data)
        h.update(name.encode() + b"\0" + data)
    return instances, h.hexdigest()
