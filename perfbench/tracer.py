"""Out-of-program tracer for the benchmark's traced run.

The tracer wraps public functions of each ``novcube`` layer from outside
the program: every module namespace that binds a listed function gets the
wrapper (``sparse_rank`` is bound in both ``linalg`` and ``chain``, and
``mayer_vietoris`` looks ``solve`` up in ``linalg`` at call time), and
methods are wrapped on their class.  A span records its name, start, end,
parent span and instance id; spans stay in memory until the run ends.
Scalar arithmetic is only counted, never spanned, so that tracer overhead
does not swamp the self times of the layers above it.

A layer's self time is the duration of its spans minus the part of each
span covered by its child spans (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Tuple

MODULES = ("novikov", "linalg", "chain", "cubes", "rays", "morse", "cli")

# (module, attribute, span name); "Class.method" wraps a method
SPANS = (
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "solve", "linalg.solve"),
    ("linalg", "nullspace", "linalg.nullspace"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "column_space_selector", "linalg.column_space_selector"),
    ("linalg", "QuotientSpace.__init__", "linalg.QuotientSpace"),
    ("linalg", "QuotientSpace.coords", "linalg.QuotientSpace"),
    ("linalg", "sparse_rank", "linalg.sparse_rank"),
    ("chain", "_barcode", "chain.barcode"),
    ("chain", "mat_compose", "chain.mat_compose"),
    ("chain", "ChainComplex.verify", "chain.verify"),
    ("chain", "QComplex.homology_ranks", "chain.homology_ranks"),
    ("chain", "QComplex.homology_space", "chain.homology_space"),
    ("cubes", "verify_cube", "cubes.verify_cube"),
    ("cubes", "cone", "cubes.cone"),
    ("cubes", "total_complex", "cubes.total_complex"),
    ("cubes", "compose", "cubes.compose"),
    ("cubes", "cube_to_json", "cubes.json"),
    ("cubes", "cube_from_json", "cubes.json"),
    ("rays", "telescope", "rays.telescope"),
    ("rays", "descent_complex", "rays.descent_complex"),
    ("rays", "acyclic_slices_implies_acyclic", "rays.acyclic_slices"),
    ("rays", "completed_homology", "rays.completed_homology"),
    ("rays", "mayer_vietoris", "rays.mayer_vietoris"),
    ("morse", "hamiltonian_cube", "morse.stage_cubes"),
    ("morse", "minmax_square", "morse.minmax_square"),
    ("cli", "_read_json", "cli.load"),
    ("cli", "_load_cube", "cli.load"),
    ("cli", "_load_ray", "cli.load"),
    ("cli", "_load_model", "cli.load"),
    ("cli", "cmd_*", "cli.handler"),
    ("cli", "emit", "cli.emit"),
)

# (module, attribute, counter): calls counted without a span
COUNTS = (
    ("novikov", "NovikovScalar.__new__", "novikov.scalars_built"),
    ("novikov", "NovikovScalar.__add__", "novikov.add_calls"),
    ("novikov", "NovikovScalar.__mul__", "novikov.mul_calls"),
    ("novikov", "NovikovScalar.invert", "novikov.invert_calls"),
    ("morse", "cf", "morse.cf.calls"),
    ("rays", "Ray.map_cube", "rays.map_cube.calls"),
    ("cubes", "_toggle_signs", "cubes.sign_conversions"),
)

Span = Tuple[str, float, float, int, int]  # name, start, end, parent, instance


class Tracer:
    """Spans and counters of one process; install once, never removed."""

    def __init__(self):
        self.spans: List = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.instance = -1
        self._stack = [-1]
        self._names = [""]
        self._stages: set = set()

    # -- recording -----------------------------------------------------------

    def begin_instance(self, instance: int) -> None:
        self.instance = instance
        self._stages = set()

    def call_span(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self._names.append(name)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self._names.pop()
            self.spans[idx] = (name, start, end, self._stack[-1],
                               self.instance)

    def add_child_run(self, data: dict, parent: int) -> None:
        """Merge a traced child process's spans under span ``parent``.

        ``perf_counter`` reads the system-wide monotonic clock on Linux, so
        the child's times line up with the parent's.
        """
        base = len(self.spans)
        for name, start, end, par, _ in data["spans"]:
            self.spans.append((name, start, end,
                               parent if par < 0 else par + base,
                               self.instance))
        for key, val in data["counts"].items():
            self.counts[key] += val

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module("novcube." + m) for m in MODULES}
        for mod, attr, name in SPANS:
            attrs = [a for a in vars(mods[mod]) if a.startswith("cmd_")] \
                if attr == "cmd_*" else [attr]
            for a in attrs:
                self._patch(mods[mod], a, lambda fn, n=name:
                            self._span_wrapper(n, fn))
        for mod, attr, key in COUNTS:
            self._patch(mods[mod], attr, lambda fn, k=key:
                        self._count_wrapper(k, fn))

    def _patch(self, module, attr: str, make) -> None:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            if meth == "__new__":
                orig = cls.__dict__.get("__new__")
                fn = orig.__func__ if isinstance(orig, staticmethod) else \
                    (lambda c, *a, **k: object.__new__(c))
                setattr(cls, "__new__", staticmethod(make(fn)))
            else:
                setattr(cls, meth, make(getattr(cls, meth)))
            return
        orig = getattr(module, attr)
        wrapper = make(orig)
        for name, mod in list(sys.modules.items()):
            if (name == "novcube" or name.startswith("novcube.")) and \
                    getattr(mod, attr, None) is orig:
                setattr(mod, attr, wrapper)

    def _span_wrapper(self, name: str, fn):
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call_span(name, fn, *args, **kwargs)
            if hook is not None:
                hook(args, result)
            return result
        return wrapper

    def _count_wrapper(self, key: str, fn):
        counts = self.counts
        names = self._names
        products = key == "novikov.mul_calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if products and names[-1] == "chain.mat_compose":
                counts["chain.mat_compose.products"] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- work counters read off arguments and results ---------------------------

    def _after_linalg_rref(self, args, result):
        mat = args[0]
        self.counts["linalg.rref.cells"] += len(mat) * (len(mat[0]) if mat
                                                         else 0)

    def _after_linalg_sparse_rank(self, args, result):
        self.counts["linalg.sparse_rank.nnz"] += len(args[0])

    def _after_chain_barcode(self, args, result):
        cx = args[0]
        self.counts["chain.barcode.input_nnz"] += len(cx.differential)
        self.counts["chain.barcode.pivots"] += \
            (len(cx.generators) - len(result.free_bars)) // 2

    def _after_rays_telescope(self, args, result):
        self.counts["rays.telescope.generators"] += sum(
            len(c.generators) for c in result.vertices.values())

    def _after_morse_stage_cubes(self, args, result):
        assign = args[1]
        key = tuple(sorted((w, tuple(sorted(h.items())))
                           for w, h in assign.items()))
        if key not in self._stages:
            self._stages.add(key)
            self.counts["morse.stage_cubes_distinct"] += 1


# ---------------------------------------------------------------------------
# analysis


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, list] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        covered = 0.0
        cur_s = cur_e = None
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((end - start) - covered)
    return out


def summarize(spans: List[Span]) -> Tuple[Dict[str, float], Dict[str, int],
                                          Dict[str, int]]:
    """Self seconds and call counts per span name, and the number of
    ``chain.mat_compose`` spans per parent span name."""
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    under: Dict[str, int] = defaultdict(int)
    for (name, _, _, parent, _), own in zip(spans, self_times(spans)):
        self_s[name] += own
        calls[name] += 1
        if name == "chain.mat_compose" and parent >= 0:
            under[spans[parent][0]] += 1
    return self_s, calls, under
