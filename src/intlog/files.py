"""Readers and writers for every text format intlog uses.

All formats are line-oriented.  Each line is stripped of surrounding
whitespace; blank lines and comments, `#` alone or before a space or a
tab, are skipped, so a formula line may start with a `#name` literal.

- signature files: `pred name/arity`, `const name` and `var name` lines;
- world files: `domain`, `reify` and `const` lines, then `rel` lines;
- world-set files: a `worlds` header, one shared preamble of `domain`,
  `reify` and `const` lines, then `world <name>` blocks of `rel` lines;
- formula files: one formula per line;
- the bundled corpus under `intlog/data`: a signature file, a formula
  file and a file of abstraction terms, one per line.

A world file and a world-set file share one preamble reader and one
`rel` line reader.
"""
from __future__ import annotations

import re
from contextlib import contextmanager
from importlib import resources
from typing import Dict, Iterator, List, Tuple

from .errors import IntlogError
from .relalg import (
    ConceptHandle,
    DomainElement,
    Particular,
    Relation,
    element_key,
    element_name,
    rel,
)
from .semantics import RESERVED_PREDS, World, WorldError, interpret
from .syntax import (
    Abstraction,
    Formula,
    ParseError,
    PredicateSymbol,
    Signature,
    SignatureError,
    check_element_name,
    make_signature,
    parse_formula,
    parse_term,
)
from .worlds import WorldSet


def _content_lines(text: str) -> Iterator[Tuple[int, str]]:
    """(line number, stripped line) for every line that is neither blank
    nor a comment."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and line[:2] not in ("#", "# ", "#\t"):
            yield lineno, line


@contextmanager
def _at_line(lineno: int):
    """Prefix `line N: ` to a WorldError raised while reading line N of
    a world or world-set file."""
    try:
        yield
    except WorldError as e:
        raise WorldError(f"line {lineno}: {e}") from e


# ---------------------------------------------------------------------------
# signature files
# ---------------------------------------------------------------------------

def load_signature(text: str) -> Signature:
    """Parse a signature file: lines `pred name/arity`, `const name`,
    `var name`."""
    preds, consts, dvars = [], [], []
    for lineno, line in _content_lines(text):
        m = re.fullmatch(r"pred\s+([A-Za-z]\w*)\s*/\s*([0-9]+)", line)
        if m:
            preds.append((m.group(1), int(m.group(2))))
            continue
        m = re.fullmatch(r"const\s+([A-Za-z]\w*)", line)
        if m:
            consts.append(m.group(1))
            continue
        m = re.fullmatch(r"var\s+([A-Za-z]\w*)", line)
        if m:
            dvars.append(m.group(1))
            continue
        raise SignatureError(f"line {lineno}: cannot parse {line!r}")
    return make_signature(preds, consts, dvars)


# ---------------------------------------------------------------------------
# world and world-set files
# ---------------------------------------------------------------------------

_DOMAIN_RE = re.compile(r"domain\s+(.+)")
_REIFY_RE = re.compile(r"reify\s+([A-Za-z]\w*)\s*=\s*(.+)")
_CONST_RE = re.compile(r"const\s+([A-Za-z]\w*)\s*=\s*([A-Za-z]\w*)")
_REL_RE = re.compile(r"rel\s+([A-Za-z]\w*)\s*/\s*([0-9]+)\s*=\s*(.*)")
_TUPLE_RE = re.compile(r"\(([^()]*)\)")
_WORLD_HDR_RE = re.compile(r"world\s+([A-Za-z]\w*)")

PredMap = Dict[PredicateSymbol, Relation]


class _Preamble:
    """Domain, element names and constant map read so far from a world
    or world-set file, and the readers of its lines."""

    def __init__(self, sig: Signature, name: str):
        self.sig = sig
        self.name = name
        self.domain: list = []
        self.element_names: Dict[str, DomainElement] = {}
        self.const_map: Dict[str, DomainElement] = {}

    def read_preamble(self, line: str) -> bool:
        """Apply a `domain`, `reify` or `const` line; False for any
        other line."""
        if m := _DOMAIN_RE.fullmatch(line):
            self._domain(m)
        elif m := _REIFY_RE.fullmatch(line):
            self._reify(m)
        elif m := _CONST_RE.fullmatch(line):
            self._const(m)
        else:
            return False
        return True

    def read_rel(self, line: str, pred_map: PredMap) -> bool:
        """Add a `rel` line's relation to pred_map; False for any other
        line."""
        m = _REL_RE.fullmatch(line)
        if not m:
            return False
        p, r = self._rel(m)
        if p in pred_map:
            raise WorldError(f"relation for {p} given twice")
        pred_map[p] = r
        return True

    def world(self, name: str, pred_map: PredMap) -> World:
        """The world with these relations.  Predicates without a rel
        line get the empty relation; all signature constants must be
        mapped."""
        for pname, arity in self.sig.preds:
            p = PredicateSymbol(pname, arity)
            if p not in pred_map:
                pred_map[p] = rel(arity, [])
        missing = sorted(self.sig.consts - set(self.const_map))
        if missing:
            raise WorldError(f"constants without denotation: {missing}")
        return World(name, self.domain, self.const_map, pred_map)

    def _domain(self, m) -> None:
        if self.domain:
            raise WorldError("domain declared twice")
        for name in m.group(1).split():
            check_element_name(name, WorldError)
            if name in self.element_names:
                raise WorldError(f"duplicate domain element {name!r}")
            e = Particular(name)
            self.domain.append(e)
            self.element_names[name] = e

    def _reify(self, m) -> None:
        name, term_text = check_element_name(m.group(1), WorldError), m.group(2)
        if name in self.element_names:
            raise WorldError(f"element name {name!r} already taken")
        if not self.domain:
            raise WorldError("domain must be declared first")
        # the term is interpreted over the elements declared so far, in
        # a world named after the file's world or world set
        interim = World(self.name, self.domain, self.const_map, {})
        try:
            t = parse_term(term_text, self.sig)
            if not isinstance(t, Abstraction):
                raise WorldError(f"needs an abstraction term, got {term_text!r}")
            h = ConceptHandle(interpret(t, interim).cid, name)
        except IntlogError as e:
            raise WorldError(f"reify {name}: {e}") from e
        self.domain.append(h)
        self.element_names[name] = h

    def _const(self, m) -> None:
        cname, ename = m.group(1), m.group(2)
        if not self.sig.is_const(cname):
            raise WorldError(f"constant {cname!r} not declared in the signature")
        if cname in self.const_map:
            raise WorldError(f"constant {cname!r} mapped twice")
        if ename not in self.element_names:
            raise WorldError(f"unknown element {ename!r}")
        self.const_map[cname] = self.element_names[ename]

    def _rel(self, m) -> Tuple[PredicateSymbol, Relation]:
        name, arity, rest = m.group(1), int(m.group(2)), m.group(3)
        if not self.sig.has_pred(name, arity):
            raise WorldError(f"predicate {name}/{arity} not declared in the signature")
        if not self.domain:
            raise WorldError("domain must be declared before relations")
        stripped = rest.strip()
        leftover = _TUPLE_RE.sub("", stripped).replace(",", "").strip()
        if leftover:
            raise WorldError(f"cannot parse relation tuples {rest!r}")
        rows = []
        for group in _TUPLE_RE.findall(stripped):
            names = [n.strip() for n in group.split(",")] if group.strip() else []
            if len(names) != arity:
                raise WorldError(
                    f"tuple ({group}) has {len(names)} elements, expected {arity}"
                )
            row = []
            for n in names:
                if n not in self.element_names:
                    raise WorldError(f"unknown element {n!r} in relation {name}")
                row.append(self.element_names[n])
            rows.append(tuple(row))
        return PredicateSymbol(name, arity), rel(arity, rows)


def load_world(text: str, sig: Signature, name: str = "w") -> World:
    """Load a single world file: `domain`, optional `reify` and `const`
    lines, then `rel` lines.  Undeclared predicates default to the
    empty relation."""
    pre = _Preamble(sig, name)
    pred_map: PredMap = {}
    for lineno, line in _content_lines(text):
        with _at_line(lineno):
            if not (pre.read_rel(line, pred_map) or pre.read_preamble(line)):
                raise WorldError(f"cannot parse {line!r}")
    if not pre.domain:
        raise WorldError("world file declares no domain")
    return pre.world(name, pred_map)


def load_world_set(text: str, sig: Signature, name: str = "ws") -> WorldSet:
    """Load a world-set file: a `worlds` header, one shared preamble of
    `domain`/`const`/`reify` lines, then `world <name>` blocks holding
    `rel` lines.  Predicates omitted from a block default to empty."""
    lines = _content_lines(text)
    # an empty file misses the header at its first line
    lineno, header = next(lines, (1, None))
    with _at_line(lineno):
        if header != "worlds":
            raise WorldError("expected the 'worlds' header")
    pre = _Preamble(sig, name)
    blocks: Dict[str, PredMap] = {}
    current = None
    for lineno, line in lines:
        with _at_line(lineno):
            if m := _WORLD_HDR_RE.fullmatch(line):
                bname = m.group(1)
                if bname in blocks:
                    raise WorldError(f"duplicate world name {bname!r}")
                current = blocks[bname] = {}
            elif current is not None:
                if not pre.read_rel(line, current):
                    raise WorldError("only rel lines are allowed in a world block")
            elif _REL_RE.fullmatch(line):
                raise WorldError("rel lines belong inside world blocks")
            elif not pre.read_preamble(line):
                raise WorldError(f"cannot parse {line!r}")
    if not pre.domain:
        raise WorldError("world-set file declares no domain")
    if not blocks:
        raise WorldError("world-set file has no world blocks")
    return WorldSet([pre.world(b, pm) for b, pm in blocks.items()], name=name)


def write_world_set(ws: WorldSet) -> str:
    """Serialize back to the world-set file syntax.  Reified elements
    have no term syntax to recover, so sets containing them are
    rejected."""
    w0 = ws.worlds[0]
    if any(isinstance(e, ConceptHandle) for e in w0.domain):
        raise WorldError("world sets with reified elements cannot be serialized")
    lines = ["worlds"]
    elems = sorted(w0.domain, key=element_key)
    lines.append("domain " + " ".join(element_name(e) for e in elems))
    for c in sorted(w0.const_map):
        lines.append(f"const {c} = {element_name(w0.const_map[c])}")
    for w in ws.worlds:
        lines.append(f"world {w.name}")
        for p in sorted(w.pred_map, key=lambda q: (q.name, q.arity)):
            if p in RESERVED_PREDS:
                continue
            cells = " ".join(
                "(" + ", ".join(element_name(e) for e in row) + ")"
                for row in w.pred_map[p].sorted_tuples()
            )
            lines.append(f"rel {p.name}/{p.arity} = {cells}".rstrip())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# formula files and the bundled corpus
# ---------------------------------------------------------------------------

def load_formulas(text: str, sig: Signature, source: str) -> List[Formula]:
    """Parse a formula file, one formula per line.  Errors name the
    source and the line."""
    out = []
    for lineno, line in _content_lines(text):
        try:
            out.append(parse_formula(line, sig))
        except IntlogError as e:
            raise ParseError(f"{source}:{lineno}: {e}") from e
    return out


def data_text(name: str) -> str:
    """The text of a file bundled under intlog/data."""
    return resources.files("intlog").joinpath("data", name).read_text(encoding="utf-8")


def corpus_lines(name: str) -> Iterator[str]:
    """The content lines of a bundled corpus file."""
    for _, line in _content_lines(data_text(name)):
        yield line
