"""Command-line front end.

Subcommands: parse, intension, eval, check-diagram, check-constraint,
equiv, worlds enumerate.  Exit codes: 0 success or all checks passed,
1 a semantic check failed, 2 usage, syntax or file errors.  Output is
either human-oriented text or line-oriented key=value records
(--format records), one record per check result, deterministic for a
given input and seed.
"""
import argparse
import itertools
import os
import shlex
import sys
from typing import Dict, List, Optional, Union

from .concepts import format_concept
from .errors import IntlogError
from .files import (
    load_formulas,
    load_signature,
    load_world,
    load_world_set,
    write_world_set,
)
from .gen import corpus_formulas, random_formulas
from .relalg import element_name, format_relation
from .semantics import (
    World,
    check_diagram,
    check_tarski_constraint,
    eval_formula,
    interpret,
)
from .syntax import (
    Abstraction,
    Atom,
    Box,
    Conj,
    Constant,
    ElemTerm,
    Exists,
    Formula,
    Neg,
    Signature,
    Variable,
    ground,
    parse_formula,
    parse_term,
)
from .worlds import (
    DEFAULT_LIMIT,
    WorldSet,
    enumerate_worlds,
    strong_equiv,
    weak_equiv,
)


class CliError(IntlogError):
    pass


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise CliError(f"cannot read {path}: {e}") from e


def _signature(args) -> Signature:
    return load_signature(_read(args.sig))


def _parse_pairs(text: str, what: str) -> Dict[str, str]:
    """Parse "x=a,y=b" into an ordered dict of names."""
    out: Dict[str, str] = {}
    if not text:
        return out
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise CliError(f"bad {what} entry {chunk!r}, expected name=value")
        k, v = (s.strip() for s in chunk.split("=", 1))
        if not k or not v:
            raise CliError(f"bad {what} entry {chunk!r}, expected name=value")
        if k in out:
            raise CliError(f"{what} gives {k!r} twice")
        out[k] = v
    return out


def _formula_or_term(text: str, sig: Signature) -> Union[Formula, Abstraction]:
    """The formula, or the abstraction term when the text starts with
    `<<`."""
    text = text.strip()
    return parse_term(text, sig) if text.startswith("<<") else parse_formula(text, sig)


def _names(text: str) -> List[str]:
    return [n for n in text.replace(",", " ").split() if n]


def _resolve_assignment(raw: Dict[str, str], w: World) -> Dict[str, object]:
    g = {}
    for var, name in raw.items():
        if name not in w.element_names:
            raise CliError(f"assignment maps {var} to unknown element {name!r}")
        g[var] = w.element_names[name]
    return g


def _emit_record(**fields) -> None:
    print(" ".join(f"{k}={shlex.quote(str(v))}" for k, v in fields.items()))


def _emit(args, text: Optional[str], **fields) -> None:
    """The one output path: the record of fields under --format
    records, otherwise text (nothing when text is None)."""
    if args.format == "records":
        _emit_record(**fields)
    elif text is not None:
        print(text)


def _world_set(args, sig: Signature) -> WorldSet:
    """The worlds of --world, --worlds or --enumerate; exactly one
    source allowed."""
    sources = [s for s in ("world", "worlds", "enumerate") if getattr(args, s, None)]
    if len(sources) != 1:
        raise CliError("give exactly one of --world, --worlds, --enumerate")
    if args.const and not args.enumerate:
        raise CliError("--const applies only to --enumerate")
    if args.world:
        return WorldSet([load_world(_read(args.world), sig)])
    if args.worlds:
        return load_world_set(_read(args.worlds), sig)
    consts = _parse_pairs(args.const, "--const")
    return enumerate_worlds(sig, _names(args.enumerate), consts or None, limit=args.limit)


def _sweep_formulas(args, sig: Signature) -> List[Formula]:
    """check-diagram / check-constraint formula sources: a file (which
    must hold a formula), a seeded random batch, both, or the bundled
    corpus when neither is given."""
    if args.random < 0:
        raise CliError(f"--random must be non-negative, got {args.random}")
    if args.formulas is None and not args.random:
        return corpus_formulas(sig)
    out: List[Formula] = []
    if args.formulas is not None:
        out = load_formulas(_read(args.formulas), sig, args.formulas)
        if not out:
            raise CliError(f"{args.formulas}: no formulas")
    if args.random:
        elem_names = _names(args.enumerate) if args.enumerate else ()
        out.extend(
            random_formulas(
                sig,
                args.random,
                seed=args.seed,
                depth=args.depth,
                abs_prob=args.abs_prob,
                elem_names=elem_names,
            )
        )
    return out


# ---------------------------------------------------------------------------
# AST rendering for `parse`
# ---------------------------------------------------------------------------

def _group(label: str, names) -> str:
    inner = " ".join(names)
    return f"({label} {inner})" if inner else f"({label})"


def _dump(x) -> str:
    """A formula or a term as an s-expression."""
    if isinstance(x, (Variable, Constant, ElemTerm)):
        return str(x)
    if isinstance(x, Abstraction):
        return f"(abs {_group('alpha', x.alpha)} {_group('beta', x.beta)} {_dump(x.body)})"
    if isinstance(x, Atom):
        parts = " ".join(_dump(t) for t in x.args)
        head = f"{x.pred.name}/{x.pred.arity}"
        return f"(atom {head} {parts})" if parts else f"(atom {head})"
    if isinstance(x, Conj):
        return f"(conj {_dump(x.left)} {_dump(x.right)})"
    if isinstance(x, Neg):
        return f"(neg {_dump(x.sub)})"
    if isinstance(x, Box):
        return f"(box {_dump(x.sub)})"
    if isinstance(x, Exists):
        return f"(exists {x.var} {_dump(x.sub)})"
    raise CliError(f"cannot dump {x!r}")


def _var_tuple(names) -> str:
    return "(" + ", ".join(names) + ")"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_parse(args) -> int:
    x = _formula_or_term(args.formula, _signature(args))
    ast = _dump(x)
    if isinstance(x, Abstraction):
        _emit(args, f"ast {ast}\nalpha {_var_tuple(x.alpha)}\nbeta {_var_tuple(x.beta)}",
              kind="abstraction", ast=ast, alpha=" ".join(x.alpha), beta=" ".join(x.beta))
        return 0
    _emit(args, f"ast {ast}\nfree {_var_tuple(x.fv)}",
          kind="formula", ast=ast, free=" ".join(x.fv))
    return 0


def cmd_intension(args) -> int:
    sig = _signature(args)
    w = load_world(_read(args.world), sig) if args.world else None
    u = interpret(_formula_or_term(args.formula, sig), w)
    concept = format_concept(u)
    _emit(args, f"concept {concept}\ndegree {u.degree}",
          kind="concept", concept=concept, degree=u.degree)
    return 0


def cmd_eval(args) -> int:
    sig = _signature(args)
    w = load_world(_read(args.world), sig)
    raw = _parse_pairs(args.assign, "--assign")
    x = _formula_or_term(args.formula, sig)
    if raw:
        x = ground(x, _resolve_assignment(raw, w))
    r = eval_formula(x, w)
    if raw and not isinstance(x, Abstraction):
        out = "t" if r.as_bool() else "f"
    else:
        out = format_relation(r)
    _emit(args, out, kind="eval", value=out)
    return 0


def cmd_check_diagram(args) -> int:
    sig = _signature(args)
    formulas = _sweep_formulas(args, sig)
    worlds = _world_set(args, sig)
    pairs = mismatches = 0
    for w in worlds:
        for f in formulas:
            report = check_diagram(f, w)
            pairs += 1
            if not report.ok:
                mismatches += 1
            fields = dict(kind="diagram", world=w.name, formula=f,
                          ok=str(report.ok).lower())
            if not report.ok and report.witness is not None:
                fields["witness"] = " ".join(element_name(e) for e in report.witness)
            _emit(args, None if report.ok else str(report), **fields)
        w.clear_memo()
    _emit(args, f"checked {pairs} pairs over {len(worlds)} worlds: {mismatches} mismatches",
          kind="summary", pairs=pairs, worlds=len(worlds), formulas=len(formulas),
          mismatches=mismatches)
    return 0 if mismatches == 0 else 1


def cmd_check_constraint(args) -> int:
    if args.max_assignments < 1:
        raise CliError(f"--max-assignments must be at least 1, got {args.max_assignments}")
    sig = _signature(args)
    formulas = _sweep_formulas(args, sig)
    worlds = _world_set(args, sig)
    checked = violations = skipped = 0
    for w in worlds:
        dom = w.sorted_domain()
        for f in formulas:
            fv = f.fv
            if len(dom) ** len(fv) > args.max_assignments:
                skipped += 1
                continue
            for combo in itertools.product(dom, repeat=len(fv)):
                g = dict(zip(fv, combo))
                ok = check_tarski_constraint(f, g, w)
                checked += 1
                if not ok:
                    violations += 1
                    row = " ".join(element_name(e) for e in combo)
                    _emit(args, f"VIOLATION: {f} @ {w.name} under ({row})",
                          kind="violation", world=w.name, formula=f, assignment=row)
        w.clear_memo()
    # skipped counts (formula, world) pairs whose assignment space is too big
    note = f" ({skipped} skipped over --max-assignments)" if skipped else ""
    _emit(args, f"checked {checked} groundings over {len(worlds)} worlds: "
                f"{violations} violations{note}",
          kind="summary", groundings=checked, worlds=len(worlds), violations=violations,
          skipped=skipped)
    return 0 if violations == 0 else 1


def cmd_equiv(args) -> int:
    sig = _signature(args)
    ws = _world_set(args, sig)
    t1 = parse_term(args.term1.strip(), sig)
    t2 = parse_term(args.term2.strip(), sig)
    if not isinstance(t1, Abstraction) or not isinstance(t2, Abstraction):
        raise CliError("equiv compares abstraction terms")
    raw = _parse_pairs(args.assign, "--assign")
    g = _resolve_assignment(raw, ws.worlds[0])
    check = weak_equiv if args.weak else strong_equiv
    report = check(t1, t2, g, ws)
    fields = dict(
        kind="equiv",
        mode=report.mode,
        equivalent=str(report.equivalent).lower(),
        same_concept=str(report.same_concept).lower(),
        worlds=report.world_count,
    )
    if report.world is not None:
        fields["world"] = report.world
    if report.row is not None:
        fields["row"] = " ".join(element_name(e) for e in report.row)
    _emit(args, str(report), **fields)
    return 0 if report.equivalent else 1


def cmd_worlds_enumerate(args) -> int:
    sig = _signature(args)
    consts = _parse_pairs(args.const, "--const")
    ws = enumerate_worlds(sig, _names(args.domain), consts or None, limit=args.limit)
    # the file text ends in a newline, which print adds back
    text = None if args.format == "records" else write_world_set(ws)[:-1]
    _emit(args, text, kind="worlds", count=len(ws),
          domain=" ".join(sorted(element_name(e) for e in ws.domain)))
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sig", required=True, help="signature file")
    p.add_argument("--format", choices=("text", "records"), default="text")


def _add_world_sources(p: argparse.ArgumentParser) -> None:
    p.add_argument("--world", help="single world file")
    p.add_argument("--worlds", help="world-set file")
    p.add_argument(
        "--enumerate",
        metavar="DOMAIN",
        help="enumerate all worlds over these domain elements, e.g. 'a,b'",
    )
    p.add_argument("--const", default="", help="constant denotations, e.g. 'c=a,d=b'")
    p.add_argument("--limit", type=int, default=DEFAULT_LIMIT,
                   help="enumeration size cap")


def _add_generator_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--formulas", help="formula file (one per line, '# ' comments)")
    p.add_argument("--random", type=int, default=0, metavar="N",
                   help="add N seeded random formulas")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--abs-prob", type=float, default=0.2, dest="abs_prob")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="intlog",
        description="two-step semantics for first-order logic with concept abstraction",
    )
    sub = top.add_subparsers(dest="command")

    p = sub.add_parser("parse", help="parse and dump the desugared AST")
    _add_common(p)
    p.add_argument("formula")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("intension", help="compile to a concept")
    _add_common(p)
    p.add_argument("formula")
    p.add_argument("--world", help="world file, needed for constants, element "
                                   "literals and beta instantiation")
    p.set_defaults(func=cmd_intension)

    p = sub.add_parser("eval", help="extension in a world")
    _add_common(p)
    p.add_argument("formula")
    p.add_argument("--world", required=True, help="single world file")
    p.add_argument("--assign", default="", help="assignment, e.g. 'x=a,y=b'")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("check-diagram",
                       help="compare both evaluation routes over a sweep")
    _add_common(p)
    _add_world_sources(p)
    _add_generator_flags(p)
    p.set_defaults(func=cmd_check_diagram)

    p = sub.add_parser("check-constraint",
                       help="grounding biconditional over a sweep")
    _add_common(p)
    _add_world_sources(p)
    _add_generator_flags(p)
    p.add_argument("--max-assignments", type=int, default=4096,
                   dest="max_assignments")
    p.set_defaults(func=cmd_check_constraint)

    p = sub.add_parser("equiv", help="intensional equivalence of two terms")
    _add_common(p)
    _add_world_sources(p)
    p.add_argument("term1")
    p.add_argument("term2")
    p.add_argument("--assign", default="", help="grounds the beta variables")
    p.add_argument("--weak", action="store_true",
                   help="compare extensions unioned over the set")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("worlds", help="world-set utilities")
    wsub = p.add_subparsers(dest="worlds_command")
    pe = wsub.add_parser("enumerate", help="write the exhaustive world set")
    _add_common(pe)
    pe.add_argument("--domain", required=True, help="domain elements, e.g. 'a,b'")
    pe.add_argument("--const", default="", help="constant denotations")
    pe.add_argument("--limit", type=int, default=DEFAULT_LIMIT)
    pe.set_defaults(func=cmd_worlds_enumerate)

    return top


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except IntlogError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: formula nested too deeply", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream closed the pipe (records | head); die without noise
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):
            pass
        return 1


if __name__ == "__main__":
    sys.exit(main())
