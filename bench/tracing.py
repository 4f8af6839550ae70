"""Outside-in tracing of intlog's public functions.

The tracer wraps listed functions of the ``intlog`` modules and rebinds
every module-level name that refers to them (in the defining module and
in every module that imported the function by name), so calls between
modules and recursive calls through module globals both pass through the
wrapper.  ``uninstall`` restores every binding.

Function calls are aggregated per name (calls, total time, self time,
tuples produced, largest output) under the phase span that is open when
they run; only phase spans and op spans are kept one by one.  A call
whose caller is the same traced function passes straight through, so
``interpret`` and the like count one call per top-level compile rather
than one per AST node.
"""
import contextlib
import sys
import time

# (module, function) pairs the tracer wraps; grouped by layer.
WRAPPED = (
    ("relalg", "natural_join"),
    ("relalg", "complement"),
    ("relalg", "project_out"),
    ("concepts", "atom_concept"),
    ("concepts", "conj"),
    ("concepts", "neg"),
    ("concepts", "exists"),
    ("concepts", "union_concepts"),
    ("concepts", "necess"),
    ("syntax", "parse_formula"),
    ("syntax", "ground"),
    ("syntax", "substitute"),
    ("semantics", "interpret"),
    ("semantics", "extensionalize"),
    ("semantics", "extensionalize_nomemo"),
    ("semantics", "tarski_eval"),
    ("semantics", "check_diagram"),
    ("semantics", "check_tarski_constraint"),
    ("worlds", "enumerate_worlds"),
    ("worlds", "box_extension"),
    ("worlds", "diamond_extension"),
    ("worlds", "strong_equiv"),
    ("worlds", "weak_equiv"),
    ("worlds", "satisfies"),
    ("gen", "random_formulas"),
    ("gen", "corpus_formulas"),
    ("cli", "main"),
)

# Functions whose result is a Relation: their output size is recorded.
RELATION_OUT = {
    "relalg.natural_join",
    "relalg.complement",
    "relalg.project_out",
    "semantics.extensionalize",
    "semantics.extensionalize_nomemo",
    "semantics.tarski_eval",
    "worlds.box_extension",
    "worlds.diamond_extension",
}


class Stats:
    """Aggregate of one traced function under one phase."""

    __slots__ = ("calls", "total", "self_time", "tuples_out", "max_out")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.tuples_out = 0
        self.max_out = 0


class Tracer:
    """Wraps intlog's public functions while installed.

    ``phase(name)`` opens a phase span (setup, sweep); ``op_span`` records
    one op span under the open phase.  ``first_call_args`` keeps the
    arguments of the first call of each function, for re-running a call
    outside the spans (``enumerate_worlds`` under tracemalloc).
    """

    def __init__(self):
        self.stats = {}  # (phase, "module.function") -> Stats
        self.spans = []  # [name, start, end, parent index or None]
        self.ops = []  # (start, end) per op, under the open phase
        self.ext_pairs = set()  # distinct (concept id, world id) extensionalized
        self.first_call_args = {}
        self._stack = []  # frames: [qualified name, child time]
        self._phase = None
        self._bindings = []  # (module, attribute, original)

    # -- spans ---------------------------------------------------------

    @contextlib.contextmanager
    def phase(self, name):
        span = [name, time.perf_counter(), None, None]
        self.spans.append(span)
        self._phase = name
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._phase = None

    def op_span(self, start, end):
        self.ops.append((start, end))

    # -- wrapping ------------------------------------------------------

    def _wrap(self, qualname, fn):
        stack = self._stack
        stats = self.stats
        sized = qualname in RELATION_OUT
        is_ext = qualname == "semantics.extensionalize"
        perf = time.perf_counter
        first = self.first_call_args

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == qualname:
                return fn(*args, **kwargs)
            if qualname not in first:
                first[qualname] = (args, kwargs)
            frame = [qualname, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                key = (self._phase, qualname)
                s = stats.get(key)
                if s is None:
                    s = stats[key] = Stats()
                s.calls += 1
                s.total += dur
                s.self_time += dur - frame[1]
            if sized:
                n = len(out.tuples)
                s.tuples_out += n
                if n > s.max_out:
                    s.max_out = n
            if is_ext:
                self.ext_pairs.add((args[0].cid, id(args[1])))
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        """Wrap every function in WRAPPED and rebind each intlog module
        attribute that refers to it."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "intlog" or name.startswith("intlog.")
        }
        for modname, fname in WRAPPED:
            original = getattr(modules["intlog." + modname], fname)
            wrapper = self._wrap(f"{modname}.{fname}", original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings.clear()

    # -- reading -------------------------------------------------------

    def totals(self, qualname):
        """Stats of one function summed over every phase."""
        out = Stats()
        for (_, name), s in self.stats.items():
            if name == qualname:
                out.calls += s.calls
                out.total += s.total
                out.self_time += s.self_time
                out.tuples_out += s.tuples_out
                out.max_out = max(out.max_out, s.max_out)
        return out

    def phase_summary(self):
        """Per-phase aggregates, as written to the spans file."""
        out = {}
        for (phase, name), s in sorted(self.stats.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
            out.setdefault(str(phase), {})[name] = {
                "calls": s.calls,
                "total_s": s.total,
                "self_s": s.self_time,
                "tuples_out": s.tuples_out,
                "max_out": s.max_out,
            }
        return out
