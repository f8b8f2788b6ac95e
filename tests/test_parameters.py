"""Every parameter with a default in ``src/conedyn`` is set by some call.

A default that no call in ``src/``, ``tests/``, ``demos/`` or ``bench/``
overrides is a constant, and belongs in the module as one.  The scan is
syntactic: a call matches a function by its name (by class name for an
``__init__``, which a subclass without its own inherits), sets a
parameter by keyword or by position (after ``self`` for a method called
as an attribute), and a call with ``*args`` or ``**kwargs`` sets every
parameter of its name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "demos", "bench")

# dt is the integrator step on every flow entry point (the CLI's --dt);
# these two have no caller that sets it, but every sibling has one.
UNSET_ON_PURPOSE = {
    ("pf.py", "pf_at_equilibrium", "dt"),
    ("positivity.py", "flat_equivalence", "dt"),
}


def _defaulted(tree):
    """(function, class or None, positional names, defaulted names) for
    every def in tree, nested ones included."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                pos = [p.arg for p in a.posonlyargs + a.args]
                named = pos[len(pos) - len(a.defaults):] if a.defaults else []
                named += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                out.append((child, None if static else cls, pos, named))
                visit(child, None)
            else:
                visit(child, cls)

    visit(tree, None)
    return out


def _calls():
    """(name, positional count, keyword names, starred, via attribute) of
    every call in the scanned trees."""
    out = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                if isinstance(f, ast.Name):
                    name, attr = f.id, False
                elif isinstance(f, ast.Attribute):
                    name, attr = f.attr, True
                else:
                    continue
                starred = (any(isinstance(a, ast.Starred) for a in node.args)
                           or any(k.arg is None for k in node.keywords))
                out.append((name, len(node.args),
                            {k.arg for k in node.keywords}, starred, attr))
    return out


def _unset_parameters():
    trees = {p.name: ast.parse(p.read_text())
             for p in sorted((ROOT / "src" / "conedyn").glob("*.py"))}
    bases, own_init = {}, set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {getattr(b, "id", getattr(b, "attr", None))
                                    for b in node.bases}
                if any(isinstance(d, ast.FunctionDef) and d.name == "__init__"
                       for d in node.body):
                    own_init.add(node.name)
    calls = _calls()
    unset = set()
    for module, tree in trees.items():
        for fn, cls, pos, named in _defaulted(tree):
            names = {fn.name}
            if fn.name == "__init__" and cls is not None:
                heirs = {cls}  # the classes whose constructor this is
                while True:
                    more = {c for c, b in bases.items() if b & heirs
                            and c not in own_init and c not in heirs}
                    if not more:
                        break
                    heirs |= more
                names |= heirs
            for param in named:
                index = pos.index(param) if param in pos else None

                def sets(call):
                    name, n_pos, keywords, starred, attr = call
                    if name not in names:
                        return False
                    if starred or param in keywords:
                        return True
                    # a constructor or a method called on an object skips self
                    skip = cls is not None and (attr or name != fn.name)
                    return index is not None and index - skip < n_pos

                if not any(sets(c) for c in calls):
                    unset.add((module, fn.name, param))
    return unset


def test_every_defaulted_parameter_has_a_caller_that_sets_it():
    unset = _unset_parameters()
    assert unset - UNSET_ON_PURPOSE == set(), (
        "parameters with a default that no call sets: make each a constant")
    assert UNSET_ON_PURPOSE <= unset, (
        "a listed parameter now has a setter: drop it from UNSET_ON_PURPOSE")
