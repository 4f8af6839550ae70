"""Module layering: no intlog module imports another one's private names
or touches private attributes that only another module defines."""
import ast
import typing
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "intlog"


def test_no_module_imports_private_names_of_another():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    offenders = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("intlog"):
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    offenders.append(f"{path.name}: from {node.module} import {alias.name}")
    assert offenders == []


def _imported_modules(path):
    """Every intlog module a file imports, as dotted names."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "intlog" if node.level else ""
            module = ".".join(p for p in (base, node.module or "") if p)
            out.add(module)
            out.update(f"{module}.{alias.name}" for alias in node.names)
    return out


def test_semantics_does_not_import_worlds():
    # semantics is the per-world evaluator and worlds the whole-set one
    # built on top of it; the reverse import would make a cycle
    assert "intlog.worlds" not in _imported_modules(SRC / "semantics.py")


def test_no_module_imports_gc():
    # a saving in collector time has to come from allocating less, not
    # from switching or tuning the collector
    offenders = [
        f"{path.name}: {module}"
        for path in sorted(SRC.glob("*.py"))
        for module in _imported_modules(path)
        if module == "gc" or module.startswith("gc.")
    ]
    assert offenders == []


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _defined_private_attrs(tree):
    """The private attribute names a module defines: stored on self,
    named at class level, or given by a def."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.add(node.name)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            out.add(node.attr)
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    targets = stmt.targets
                elif isinstance(stmt, ast.AnnAssign):
                    targets = [stmt.target]
                else:
                    continue
                out.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in out if _is_private(name)}


def test_no_module_touches_private_attributes_only_another_defines():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    defined = {name: _defined_private_attrs(tree) for name, tree in trees.items()}
    offenders = []
    for name, tree in trees.items():
        elsewhere = set().union(*(d for other, d in defined.items() if other != name))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in elsewhere - defined[name]
            ):
                offenders.append(f"{name}:{node.lineno}: .{node.attr}")
    assert offenders == []


def test_values_in_hot_sets_hash_and_compare_in_c():
    # domain elements fill every relation's tuples, predicates every
    # memo key and relations every memo entry; a dataclass would hash
    # and compare them in Python
    from intlog.relalg import Particular, Relation
    from intlog.syntax import PredicateSymbol

    for cls in (Particular, PredicateSymbol, Relation):
        assert cls.__hash__ is tuple.__hash__
        assert cls.__eq__ is tuple.__eq__


def test_no_constructor_is_bypassed():
    # a value is built through its class; object.__new__ plus writes to
    # the instance __dict__ would make a second, unchecked constructor
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Attribute):
                continue
            new = (
                node.attr == "__new__"
                and isinstance(node.value, ast.Name)
                and node.value.id == "object"
            )
            if new or node.attr == "__dict__":
                offenders.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert offenders == []


def test_no_unused_imports():
    # names listed in __all__ and import lines marked `# noqa` are
    # re-exports, used by other modules only
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and "# noqa" not in lines[alias.lineno - 1]:
                    offenders.append(f"{path.name}:{alias.lineno}: {name}")
    assert offenders == []


def _kinds_compared(tree, function, name="kind"):
    """The strings a function compares a `name` variable or attribute
    with."""
    out = set()
    for fn in ast.walk(tree):
        if not (isinstance(fn, ast.FunctionDef) and fn.name == function):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left, *node.comparators]
            if any(
                (isinstance(s, ast.Name) and s.id == name)
                or (isinstance(s, ast.Attribute) and s.attr == name)
                for s in sides
            ):
                out.update(
                    s.value for s in sides
                    if isinstance(s, ast.Constant) and isinstance(s.value, str)
                )
    return out


def test_both_evaluators_handle_exactly_the_interned_kinds():
    # a kind that one dispatcher misses fails only when a concept of it
    # reaches that dispatcher; a branch for a kind nobody builds is dead
    def tree(name):
        return ast.parse((SRC / name).read_text(encoding="utf-8"))

    interned = {
        kw.value.value
        for node in ast.walk(tree("concepts.py"))
        if isinstance(node, ast.Call)
        for kw in node.keywords
        if kw.arg == "kind" and isinstance(kw.value, ast.Constant)
    }
    assert interned == {"atom", "conj", "neg", "exists", "necess"}
    assert _kinds_compared(tree("semantics.py"), "_ext") == interned
    assert _kinds_compared(tree("worlds.py"), "masks") == interned


def test_natural_join_runs_exactly_the_planned_shapes():
    # a shape natural_join does not name falls through to the hash join,
    # so a planned set operation it missed would build its rows; a name
    # no plan carries is a dead branch
    tree = ast.parse((SRC / "relalg.py").read_text(encoding="utf-8"))
    planned = {
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "JoinPlan"
        and isinstance(node.args[0], ast.Constant)
    }
    assert planned == {"intersection", "semijoin", "extension", "hash"}
    assert _kinds_compared(tree, "natural_join", "shape") | {"hash"} == planned


def _classes_tested(tree, function):
    """The names a function passes to `isinstance` as its classes."""
    out = set()
    for fn in ast.walk(tree):
        if not (isinstance(fn, ast.FunctionDef) and fn.name == function):
            continue
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "isinstance"
                and len(node.args) == 2
            ):
                out.update(n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name))
    return out


def test_every_formula_walk_handles_exactly_the_formula_nodes():
    # the syntax twin of the test above: a walk that misses a node kind
    # fails only when a formula of it reaches that walk; a branch for a
    # node no builder makes is dead (Diamond builds ~Box~, no node)
    from intlog import syntax

    def tree(name):
        return ast.parse((SRC / name).read_text(encoding="utf-8"))

    nodes = {cls.__name__ for cls in typing.get_args(syntax.Formula)}
    assert nodes == {"Atom", "Conj", "Neg", "Exists", "Box"}
    terms = {cls.__name__ for cls in typing.get_args(syntax.Term)}
    for module, function in (
        ("semantics.py", "_compile"),
        ("semantics.py", "_holds"),
        ("syntax.py", "_children"),
        ("syntax.py", "substitute"),
        ("syntax.py", "format_formula"),
        ("cli.py", "_dump"),
    ):
        assert _classes_tested(tree(module), function) - terms == nodes, function


def test_the_parser_words_an_unexpected_token_in_one_place():
    # every rule reports what it expected and what it found through one
    # method, so no rule can print an empty token at end of input
    tree = ast.parse((SRC / "syntax.py").read_text(encoding="utf-8"))
    sites = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.JoinedStr)
        and any(isinstance(v, ast.Constant) and "found " in v.value for v in node.values)
    ]
    assert len(sites) == 1, sites


def test_syntax_nodes_compare_every_field():
    # a field left out of equality makes two equal nodes mean different
    # things, which hash-consing the syntax would conflate
    offenders = []
    tree = ast.parse((SRC / "syntax.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and any(
            kw.arg == "compare"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is False
            for kw in node.keywords
        ):
            offenders.append(f"syntax.py:{node.lineno}")
    assert offenders == []


def test_no_module_calls_free_vars():
    # free_vars' cache hashes the whole tree, exponential in a desugared
    # `<->` chain; library code reads the `fv` each node derives, which
    # also keeps the cache cold for outside callers that measure it
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and "free_vars" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None),
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_formula_or_term_text_is_told_apart_in_one_place():
    # every command that takes a formula or an abstraction term reads it
    # through one reader, so no two commands can disagree on which it is
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "startswith"
                and [getattr(a, "value", None) for a in node.args] == ["<<"]
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert len(offenders) == 1, offenders


def test_the_reference_never_reads_the_compiled_routes_tables():
    # the reference's Box and Diamond take their tables from the world
    # set's members or candidate relations; reading the bitmask tables
    # of the compiled route would hide a bug in them from the diagram
    compiled = {"_base_table", "_masks", "masks"}
    offenders = []
    for node in ast.walk(ast.parse((SRC / "semantics.py").read_text(encoding="utf-8"))):
        names = {
            getattr(node, "id", None),
            getattr(node, "attr", None),
            getattr(node, "name", None),
            getattr(node, "arg", None),
        }
        if isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[-1])
        if names & compiled:
            offenders.append(f"semantics.py:{getattr(node, 'lineno', '?')}")
    assert offenders == []


def test_process_global_caches_are_exactly_these():
    # a module-level cache outlives every world and world set, so it
    # needs a reason that holds for all of them; per-world tables are
    # built by each World
    reasons = {
        "relalg.join_plan": "a plan depends only on its index pairs and arities",
        "relalg._power": "every complement over one domain object reuses its domain^k",
        "syntax.free_vars": "bench/rep.py reads its cache_info until the benchmark reads fv",
    }
    cached = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for d in node.decorator_list:
                d = d.func if isinstance(d, ast.Call) else d
                if getattr(d, "id", getattr(d, "attr", None)) in ("lru_cache", "cache"):
                    cached.add(f"{path.stem}.{node.name}")
    assert cached == set(reasons)


def test_syntax_checks_a_predicate_against_the_signature_once():
    # a bare predicate name is an application with no arguments, so one
    # site resolves every predicate application and words its errors
    tree = ast.parse((SRC / "syntax.py").read_text(encoding="utf-8"))
    sites = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "has_pred"
    ]
    assert len(sites) == 1, sites


def test_formula_nodes_and_abstractions_print_through_the_printer():
    # one inherited __str__ calls format_formula or format_term, so a
    # node cannot print other than the printer does; Variable, Constant
    # and ElemTerm print a bare name and keep their own
    from intlog import syntax

    classes = (*typing.get_args(syntax.Formula), syntax.Abstraction)
    assert [cls.__name__ for cls in classes if "__str__" in vars(cls)] == []


def test_no_regular_expression_reads_unicode_digits():
    # `\d` matches any Unicode digit, so `p/١` would read as `p/1`;
    # every number in an input file is ASCII, read with [0-9]
    patterns = [
        (path.name, node.lineno, node.args[0].value)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "re"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    ]
    assert patterns
    assert [f"{name}:{line}" for name, line, text in patterns if "\\d" in text] == []
