"""Rules the library source keeps, checked on its syntax trees."""

import ast
from pathlib import Path

import novcube


def test_runtime_checks_raise_and_never_assert():
    """An ``assert`` vanishes under ``python -O``, so the library checks
    its inputs and invariants with exceptions only."""
    root = Path(novcube.__file__).parent
    modules = sorted(root.rglob("*.py"))
    assert len(modules) >= 9
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        found += ["%s:%d" % (path.relative_to(root), node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_linalg_divides_only_in_its_exact_helper():
    """``int / int`` is a float, so every ``/`` in ``linalg`` is inside
    ``_div``, which returns an ``int`` or a ``Fraction``."""
    path = Path(novcube.__file__).parent / "linalg.py"
    tree = ast.parse(path.read_text(), str(path))
    [helper] = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name == "_div"]
    divisions = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.BinOp, ast.AugAssign))
                 and isinstance(node.op, ast.Div)]
    inside = {id(node) for node in ast.walk(helper)}
    assert divisions and all(id(node) in inside for node in divisions)


def _modules():
    root = Path(novcube.__file__).parent
    return [(path.relative_to(root).with_suffix("").as_posix(),
             ast.parse(path.read_text(), str(path)))
            for path in sorted(root.rglob("*.py"))]


def _loads(nodes):
    return {node.id for top in nodes for node in ast.walk(top)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_every_parameter_is_read():
    """A parameter that its function never reads is a setting that does
    nothing.  ``self``, ``cls``, ``*args``, ``**kwargs`` and dunder
    methods are exempt."""
    unread = set()
    for module, tree in _modules():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or node.name.startswith("__"):
                continue
            a = node.args
            names = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
            read = _loads(node.body)
            unread |= {"%s.%s.%s" % (module, node.name, name)
                       for name in names - read - {"self", "cls"}}
    assert unread == set()


def test_every_module_import_is_used():
    """Each name a module imports at its top level is read in it."""
    unused = []
    for module, tree in _modules():
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        read = _loads(tree.body)
        unused += ["%s:%d %s" % (module, line, name)
                   for name, line in imported.items() if name not in read]
    assert unused == []


def test_no_function_calls_the_stage_references():
    """``hamiltonian_cube`` is the one stage builder: ``cf`` and
    ``continuation`` are the references it is checked against, and no
    function of the library calls them."""
    calls = []
    for module, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else \
                    getattr(f, "attr", None)
                if name in ("cf", "continuation"):
                    calls.append("%s:%d %s" % (module, node.lineno, name))
    assert calls == []


def test_only_recode_and_the_face_views_re_sign_d():
    """``_flips`` tells where the signed and the positive form of a face
    map differ.  ``CubeDiagram.recode`` is the one re-sign of D when a
    face moves, and ``CubeDiagram._view`` reads a signed face map off D;
    every other cut or comparison goes through them."""
    callers = set()
    for module, tree in _modules():
        for top in tree.body:
            members = top.body if isinstance(top, ast.ClassDef) else [top]
            for node in members:
                if any(isinstance(call, ast.Call)
                       and getattr(call.func, "id", None) == "_flips"
                       for call in ast.walk(node)):
                    owner = top.name + "." if node is not top else ""
                    callers.add("%s:%s%s" % (module, owner, getattr(
                        node, "name", "<module>")))
    assert callers == {"cubes:CubeDiagram.recode", "cubes:CubeDiagram._view"}


def test_only_views_form_keepers_and_input_rules_read_the_sign_form():
    """A cube is its D: ``positive`` chooses how D is viewed (face maps,
    ``==``, JSON, a check's residuals), a cut or relabelling keeps it, the
    sign conversions switch it, ``mayer_vietoris`` reads a positive
    square as its signed twin, and the input rules of ``cone`` and of a
    ray's construction check refuse it.  No construction reads it."""
    readers = set()
    for module, tree in _modules():
        for top in tree.body:
            members = top.body if isinstance(top, ast.ClassDef) else [top]
            for node in members:
                if any(isinstance(a, ast.Attribute) and a.attr == "positive"
                       and isinstance(a.ctx, ast.Load)
                       for a in ast.walk(node)):
                    owner = top.name + "." if node is not top else ""
                    readers.add("%s:%s%s" % (module, owner, getattr(
                        node, "name", "<module>")))
    assert readers == {
        "cubes:CubeDiagram._view", "cubes:CubeDiagram.__eq__",
        "cubes:CubeDiagram.__repr__", "cubes:cube_to_json",
        "cubes:verify_cube", "cubes:CubeDiagram.face_cube",
        "cubes:CubeDiagram.relabel_vertices", "cubes:to_positive_signs",
        "cubes:from_positive_signs", "rays:mayer_vietoris",
        "rays:Ray._built_fault", "cli:cmd_cone"}


def test_only_mat_clean_and_the_residual_check_read_floor():
    """A scalar's ``floor`` tells an exact zero (None) from an entry known
    only modulo T^R.  Outside ``novikov``, ``chain.mat_clean`` is the one
    rule for what a stored map drops and ``chain.residual_violations``
    the one check that reads how far an entry is known; every other
    stored map and check goes through them."""
    readers = set()
    for module, tree in _modules():
        if module == "novikov":
            continue
        for top in tree.body:
            members = top.body if isinstance(top, ast.ClassDef) else [top]
            for node in members:
                if any(isinstance(a, ast.Attribute) and a.attr == "floor"
                       for a in ast.walk(node)):
                    owner = top.name + "." if node is not top else ""
                    readers.add("%s:%s%s" % (module, owner, getattr(
                        node, "name", "<module>")))
    assert readers == {"chain:mat_clean", "chain:residual_violations"}


def test_morse_builds_fractions_only_on_the_lattice_and_in_refusals():
    """``morse`` keeps weights as ``int`` numerators over one denominator:
    ``on_lattice`` is the one place that reads rationals into that form.
    Elsewhere a ``Fraction`` is built only to print a refusal: inside a
    ``raise``, or as an entry of a violation list, a comprehension whose
    filter keeps only the arrows with a step below zero."""
    path = Path(novcube.__file__).parent / "morse.py"
    tree = ast.parse(path.read_text(), str(path))
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "on_lattice" \
                or isinstance(node, ast.Raise):
            allowed |= {id(n) for n in ast.walk(node)}
        elif isinstance(node, ast.ListComp) and all(
                any(isinstance(c, ast.Compare)
                    and isinstance(c.ops[0], ast.Lt)
                    and getattr(c.comparators[0], "value", None) == 0
                    for c in gen.ifs) for gen in node.generators):
            allowed |= {id(n) for n in ast.walk(node.elt)}
    built = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "Fraction"]
    assert built and ["morse.py:%d" % node.lineno for node in built
                      if id(node) not in allowed] == []
