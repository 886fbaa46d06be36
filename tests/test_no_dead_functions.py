"""Nothing in the package exists only for its tests.

Every module-level function and class in the package, and every non-dunder
method of those classes, is reached from a path that users run: the package
itself, the demos or the benchmarks.  The tests are not callers, and neither
are the re-exports in ``hgs/__init__.py``.  The one exception is
``TEST_ORACLES``: small definitions that tests use as independent checks on
live code.  Each names the live definition it checks.

A module-level name counts as used in its own module when the module
mentions it outside its own definition: as a name, an attribute, an imported
name or a string (``getattr`` names functions by string).  In any other file
a bare name does not count, since it may be a local of the same name
(``counting`` has its own ``compose``): only an import, an attribute or a
string does.  A method counts as used only when it is mentioned as an
attribute (``x.name``) or a string, since local variables share method names
(``pairs``, ``index``).  A method's own body does not count either, since a
cached method may name itself as its cache key.  Module-level functions
registered by a decorator, such as catalog's ``@_atom`` specs, are reached
through the registry and are exempt.

Every keyword-only parameter is passed by name in some call from those
paths, to a callee of its function's name (its class's name for
``__init__``), except those in ``UNPASSED_KEYWORDS``, each kept for a
named reason.  Nor does every such call give it one and the same literal,
passed or defaulted: a keyword no caller sets to anything else is a
constant.

Every field of a class (its annotated fields, its ``__slots__`` and the
attributes its methods set on ``self``) is read from those paths: mentioned
as an attribute that is loaded, or as a string.  Setting a field is not
reading it.  ``UNREAD_FIELDS`` names the exceptions and why they stay.

The files are only parsed, never imported.
"""

import ast
from pathlib import Path

import hgs

PACKAGE = Path(hgs.__file__).parent
ROOT = PACKAGE.parent.parent
SOURCES = sorted(PACKAGE.glob("*.py"))
CALLERS = ([p for p in SOURCES if p.name != "__init__.py"]
           + sorted((ROOT / "demos").glob("*.py"))
           + sorted((ROOT / "benchmarks").glob("*.py")))

# definition -> (the live definition it checks, how)
TEST_ORACLES = {
    "holomorph.py:Holomorph.pair_mul": (
        "holomorph.py:Holomorph.pair_orders",
        "multiplies pairs one at a time against pair_orders and pair_perm"),
    "perms.py:perm_order": (
        "counting.py:all_regular_subgroups_of_sym",
        "takes the oracle's element-order census in test_counting"),
    "perms.py:format_cycles": (
        "perms.py:parse_cycles",
        "round-trips the group-file cycle parser"),
    "fields.py:field_axioms_hold": (
        "fields.py:gf",
        "checks the pinned field tables exhaustively"),
}

# (definition, keyword) -> why no caller passes it yet
UNPASSED_KEYWORDS = {
    ("parallel.py:parallel_crossed_counts", "jobs"):
        "the benchmark's tracing harness imports hgs.parallel and wraps this "
        "function by name; the module goes once that import does",
}

# class field -> why it stays although no caller path reads it
UNREAD_FIELDS = {
    "screening.py:InnerUniquenessCheck.witnesses":
        "the evidence behind each inner-uniqueness verdict, which test_screening "
        "re-derives",
}


def _mentions(node: ast.AST) -> tuple[set[str], set[str], set[str]]:
    """(bare names, imported names, names mentioned as attributes or strings)."""
    names, imports, attributes = set(), set(), set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.alias):
            imports.add(n.name.split(".")[-1])
        elif isinstance(n, ast.Attribute):
            attributes.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            attributes.add(n.value)
    return names, imports, attributes


def _mentions_outside_itself(stmt: ast.stmt) -> tuple[set[str], set[str], set[str]]:
    """What a statement mentions; a definition's own name does not count
    inside its own body, nor a method's inside the method's body."""
    if isinstance(stmt, ast.ClassDef):
        parts = [*map(_mentions_outside_itself, stmt.body),
                 *map(_mentions, stmt.bases + stmt.decorator_list)]
        found = tuple(set().union(*(p[i] for p in parts)) for i in range(3))
    else:
        found = _mentions(stmt)
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        for names in found:
            names.discard(stmt.name)
    return found


def _mentions_by_file() -> dict[str, tuple[set[str], set[str], set[str]]]:
    found = {}
    for path in CALLERS:
        parts = [_mentions_outside_itself(stmt)
                 for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
        found[path.name] = tuple(set().union(*(p[i] for p in parts)) for i in range(3))
    return found


def _definitions() -> list[tuple[str, str]]:
    defs = []
    for path in SOURCES:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.FunctionDef) and stmt.decorator_list:
                continue  # registered by its decorator
            if isinstance(stmt, ast.ClassDef):
                defs += [(path.name, f"{stmt.name}.{m.name}") for m in stmt.body
                         if isinstance(m, ast.FunctionDef)
                         and not (m.name.startswith("__") and m.name.endswith("__"))]
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs.append((path.name, stmt.name))
    return defs


def _is_used(module: str, name: str, mentions) -> bool:
    if "." in name:
        method = name.rpartition(".")[2]
        return any(method in attributes for _, _, attributes in mentions.values())
    own_names = mentions.get(module, (set(),) * 3)[0]
    return name in own_names or any(name in imports or name in attributes
                                    for _, imports, attributes in mentions.values())


def test_every_module_level_definition_is_used():
    defs = _definitions()
    assert len(defs) >= 100
    mentions = _mentions_by_file()
    unreached = sorted(f"{mod}:{name}" for mod, name in defs
                       if not _is_used(mod, name, mentions))
    test_only = [d for d in unreached if d not in TEST_ORACLES]
    assert test_only == [], f"only tests reach {test_only}"
    assert unreached == sorted(TEST_ORACLES), "a test oracle gained a caller"
    checked = {live for live, _ in TEST_ORACLES.values()}
    assert checked <= {f"{mod}:{name}" for mod, name in defs} - set(unreached)


def _calls() -> dict[str, list[ast.Call]]:
    """Callee name -> every call from the caller paths to that name."""
    calls: dict[str, list[ast.Call]] = {}
    for path in CALLERS:
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Call):
                f = n.func
                callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(callee, []).append(n)
    return calls


def _keyword_only_parameters() -> list[tuple[str, str, str, ast.expr | None]]:
    """(definition, the name callers call it by, keyword, default) for every
    keyword-only parameter of a module-level function or a method."""
    found = []
    for path in SOURCES:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.FunctionDef):
                found.append((f"{path.name}:{stmt.name}", stmt.name, stmt))
            elif isinstance(stmt, ast.ClassDef):
                found += [(f"{path.name}:{stmt.name}.{m.name}",
                           stmt.name if m.name == "__init__" else m.name, m)
                          for m in stmt.body if isinstance(m, ast.FunctionDef)]
    return [(where, callee, a.arg, default) for where, callee, fn in found
            for a, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)]


def test_every_keyword_only_parameter_is_passed_by_name():
    params = _keyword_only_parameters()
    assert len(params) >= 20
    calls = _calls()
    unpassed = sorted((where, kw) for where, callee, kw, _ in params
                      if not any(k.arg == kw for c in calls.get(callee, []) for k in c.keywords))
    assert [u for u in unpassed if u not in UNPASSED_KEYWORDS] == [], \
        "no caller passes these keywords"
    assert unpassed == sorted(UNPASSED_KEYWORDS), "an exempt keyword gained a caller"


def _literal(node: ast.expr | None) -> str | None:
    """The literal ``node`` spells, as its repr (so True and 1 differ), or None."""
    try:
        return repr(ast.literal_eval(node))
    except (ValueError, TypeError, SyntaxError):
        return None


def test_no_keyword_only_parameter_gets_one_literal_from_every_call():
    calls = _calls()
    constant = []
    for where, callee, kw, default in _keyword_only_parameters():
        if (where, kw) in UNPASSED_KEYWORDS or callee not in calls:
            continue
        # a call that splats ``**kwargs`` gives no literal
        values = {_literal(next((k.value for k in c.keywords if k.arg in (kw, None)), default))
                  for c in calls[callee]}
        if len(values) == 1 and None not in values:
            constant.append(f"{where}({kw}={values.pop()})")
    assert constant == [], "every call gives these keywords the same value"


def _fields() -> list[tuple[str, str]]:
    """(file, Class.field) for every field of every package class."""
    found = []
    for path in SOURCES:
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            names = set()
            for stmt in cls.body:
                if (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                        and not ast.unparse(stmt.annotation).startswith(("InitVar", "ClassVar"))):
                    names.add(stmt.target.id)
                elif (isinstance(stmt, ast.Assign)
                      and any(getattr(t, "id", None) == "__slots__" for t in stmt.targets)):
                    names.update(ast.literal_eval(stmt.value))
                elif isinstance(stmt, ast.FunctionDef):
                    names.update(n.attr for n in ast.walk(stmt)
                                 if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                                 and getattr(n.value, "id", None) == "self")
            found += [(path.name, f"{cls.name}.{name}") for name in names]
    return found


def test_every_class_field_is_read():
    fields = _fields()
    assert len(fields) >= 50
    read = set()
    for path in CALLERS:
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                read.add(n.value)
    unread = sorted(f"{mod}:{name}" for mod, name in fields
                    if name.rpartition(".")[2] not in read)
    assert [u for u in unread if u not in UNREAD_FIELDS] == [], "nothing reads these fields"
    assert unread == sorted(UNREAD_FIELDS), "an exempt field gained a reader"
