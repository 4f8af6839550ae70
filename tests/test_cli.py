"""End-to-end checks of the command line, run in process via main()."""
import pytest

from intlog.cli import main
from intlog.files import data_text
from intlog.gen import MAX_DEPTH
from intlog.relalg import rel
from test_mutants import literal_a_resolves_to_b

SIG = """\
pred p/1
pred q/2
const c
"""

W1 = """\
domain a b
const c = a
rel p/1 = (a)
rel q/2 = (a,b) (b,b)
"""

WS2 = """\
worlds
domain a b
const c = a
world u0
rel p/1 = (a)
world u1
rel p/1 = (a) (b)
rel q/2 = (b,a)
"""


@pytest.fixture
def paths(tmp_path):
    sig = tmp_path / "sig.txt"
    sig.write_text(SIG)
    w1 = tmp_path / "w1.txt"
    w1.write_text(W1)
    ws2 = tmp_path / "ws2.txt"
    ws2.write_text(WS2)
    return {"sig": str(sig), "w1": str(w1), "ws2": str(ws2), "dir": tmp_path}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParse:
    def test_formula(self, paths, capsys):
        code, out, _ = run(capsys, "parse", "--sig", paths["sig"], "p(x) -> q(x, y)")
        assert code == 0
        assert out.splitlines() == [
            "ast (neg (conj (atom p/1 x) (neg (atom q/2 x y))))",
            "free (x, y)",
        ]

    def test_box(self, paths, capsys):
        code, out, _ = run(capsys, "parse", "--sig", paths["sig"], "[]~[] p(x)")
        assert code == 0
        assert out.splitlines()[0] == "ast (box (neg (box (atom p/1 x))))"

    def test_sugar_desugars(self, paths, capsys):
        code, out, _ = run(capsys, "parse", "--sig", paths["sig"], "forall x . p(x)")
        assert code == 0
        assert out.splitlines()[0] == "ast (neg (exists x (neg (atom p/1 x))))"

    def test_abstraction(self, paths, capsys):
        code, out, _ = run(capsys, "parse", "--sig", paths["sig"], "<< q(x, y) >>_{y}^{x}")
        assert code == 0
        assert out.splitlines() == [
            "ast (abs (alpha y) (beta x) (atom q/2 x y))",
            "alpha (y)",
            "beta (x)",
        ]

    def test_closed_abstraction_groups_empty(self, paths, capsys):
        code, out, _ = run(capsys, "parse", "--sig", paths["sig"],
                           "<< exists x . p(x) >>_{}")
        assert code == 0
        assert "(abs (alpha) (beta) (exists x (neg " not in out  # no desugar of plain atom
        assert out.splitlines()[0] == "ast (abs (alpha) (beta) (exists x (atom p/1 x)))"

    def test_constant_and_element_literal(self, paths, capsys):
        code, out, _ = run(capsys, "parse", "--sig", paths["sig"], "q(c, #a)")
        assert code == 0
        assert out.splitlines() == ["ast (atom q/2 c #a)", "free ()"]

    def test_arity_error_exits_2(self, paths, capsys):
        code, _, err = run(capsys, "parse", "--sig", paths["sig"], "p(x, y)")
        assert code == 2
        assert err.startswith("error:")

    def test_syntax_error_exits_2(self, paths, capsys):
        code, _, err = run(capsys, "parse", "--sig", paths["sig"], "p(x) &")
        assert code == 2
        assert "error:" in err

    def test_deep_nesting_exits_2(self, paths, capsys):
        code, _, err = run(capsys, "parse", "--sig", paths["sig"], "~" * 1200 + "p(x)")
        assert code == 2
        assert err == "error: formula nested too deeply\n"

    def test_records(self, paths, capsys):
        code, out, _ = run(capsys, "parse", "--sig", paths["sig"],
                           "--format", "records", "p(x) & q(x, y)")
        assert code == 0
        assert out == (
            "kind=formula "
            "ast='(conj (atom p/1 x) (atom q/2 x y))' "
            "free='x y'\n"
        )


class TestIntension:
    def test_concept_and_degree(self, paths, capsys):
        code, out, _ = run(capsys, "intension", "--sig", paths["sig"], "p(x) & q(x, y)")
        assert code == 0
        assert out.splitlines() == [
            "concept (conj {(1,1)} (atom p/1 _1) (atom q/2 _1 _2))",
            "degree 2",
        ]

    def test_double_negation_collapses(self, paths, capsys):
        _, plain, _ = run(capsys, "intension", "--sig", paths["sig"], "p(x)")
        _, doubled, _ = run(capsys, "intension", "--sig", paths["sig"], "~~p(x)")
        assert plain == doubled

    def test_constant_needs_world(self, paths, capsys):
        code, _, err = run(capsys, "intension", "--sig", paths["sig"], "p(c)")
        assert code == 2
        assert "world" in err

    def test_constant_with_world(self, paths, capsys):
        code, out, _ = run(capsys, "intension", "--sig", paths["sig"],
                           "--world", paths["w1"], "p(c)")
        assert code == 0
        assert out.splitlines() == ["concept (atom p/1 a)", "degree 0"]

    def test_abstraction_term(self, paths, capsys):
        code, out, _ = run(capsys, "intension", "--sig", paths["sig"],
                           "<< q(x, y) >>_{x,y}")
        assert code == 0
        assert out.splitlines() == ["concept (atom q/2 _1 _2)", "degree 2"]


class TestEval:
    def test_relation_output(self, paths, capsys):
        code, out, _ = run(capsys, "eval", "--sig", paths["sig"],
                           "--world", paths["w1"], "q(x, y) & p(x)")
        assert code == 0
        assert out == "rel 2 x y\na b\n"

    def test_assign_true_false(self, paths, capsys):
        code, out, _ = run(capsys, "eval", "--sig", paths["sig"],
                           "--world", paths["w1"], "q(x, y)", "--assign", "x=a,y=b")
        assert (code, out) == (0, "t\n")
        code, out, _ = run(capsys, "eval", "--sig", paths["sig"],
                           "--world", paths["w1"], "q(x, y)", "--assign", "x=b,y=a")
        assert (code, out) == (0, "f\n")
        # empty entries are skipped
        for assign in ("x=a", "x=a,,"):
            code, out, _ = run(capsys, "eval", "--sig", paths["sig"],
                               "--world", paths["w1"], "p(x)", "--assign", assign)
            assert (code, out) == (0, "t\n")

    def test_assign_must_cover(self, paths, capsys):
        code, _, err = run(capsys, "eval", "--sig", paths["sig"],
                           "--world", paths["w1"], "q(x, y)", "--assign", "x=a")
        assert code == 2
        assert "cover" in err

    def test_assign_unknown_element(self, paths, capsys):
        code, _, err = run(capsys, "eval", "--sig", paths["sig"],
                           "--world", paths["w1"], "p(x)", "--assign", "x=zz")
        assert code == 2
        assert "unknown element" in err

    def test_abstraction_projects_beta(self, paths, capsys):
        code, out, _ = run(capsys, "eval", "--sig", paths["sig"],
                           "--world", paths["w1"], "<< q(x, y) >>_{y}^{x}",
                           "--assign", "x=b")
        assert code == 0
        assert out == "rel 1 y\nb\n"

    def test_closed_formula(self, paths, capsys):
        code, out, _ = run(capsys, "eval", "--sig", paths["sig"],
                           "--world", paths["w1"], "exists x . p(x)")
        assert code == 0
        assert out == "rel 0\n()\n"

    def test_needs_exactly_world(self, paths, capsys):
        code, _, err = run(capsys, "eval", "--sig", paths["sig"], "p(x)")
        assert code == 2
        assert "--world" in err
        code, _, err = run(capsys, "eval", "--sig", paths["sig"],
                           "--worlds", paths["ws2"], "p(x)")
        assert code == 2

    def test_box_needs_a_world_set(self, paths, capsys):
        # a lone world is a set of one, where []f means f
        outs = [
            run(capsys, "eval", "--sig", paths["sig"], "--world", paths["w1"], text)
            for text in ("[] p(x)", "p(x)")
        ]
        assert outs[0] == outs[1] == (0, "rel 1 x\na\n", "")

    def test_records(self, paths, capsys):
        code, out, _ = run(capsys, "eval", "--sig", paths["sig"],
                           "--world", paths["w1"], "--format", "records",
                           "p(x)", "--assign", "x=a")
        assert code == 0
        assert out == "kind=eval value=t\n"


class TestCheckDiagram:
    def test_corpus_over_world_file(self, paths, capsys):
        code, out, _ = run(capsys, "check-diagram", "--sig", paths["sig"],
                           "--world", paths["w1"])
        assert code == 0
        assert out.splitlines()[-1] == "checked 217 pairs over 1 worlds: 0 mismatches"

    def test_random_over_world_set(self, paths, capsys):
        code, out, _ = run(capsys, "check-diagram", "--sig", paths["sig"],
                           "--worlds", paths["ws2"], "--random", "15", "--seed", "4")
        assert code == 0
        assert "checked 30 pairs over 2 worlds: 0 mismatches" in out

    def test_formula_file_source(self, paths, capsys):
        src = paths["dir"] / "fs.txt"
        src.write_text("# two formulas\np(x)\n\nq(x, y) | p(y)\n")
        code, out, _ = run(capsys, "check-diagram", "--sig", paths["sig"],
                           "--world", paths["w1"], "--formulas", str(src))
        assert code == 0
        assert "checked 2 pairs" in out

    def test_formula_file_error_names_line(self, paths, capsys):
        src = paths["dir"] / "bad.txt"
        src.write_text("p(x)\np(x, y)\n")
        code, _, err = run(capsys, "check-diagram", "--sig", paths["sig"],
                           "--world", paths["w1"], "--formulas", str(src))
        assert code == 2
        assert ":2:" in err

    def test_open_beta_argument_exits_2(self, paths, capsys):
        # the reference would keep x free while the concept route drops
        # it, so the formula is refused instead of reported as a mismatch
        src = paths["dir"] / "open.txt"
        src.write_text("p(<< q(x, y) >>_{y}^{x})\n")
        code, out, err = run(capsys, "check-diagram", "--sig", paths["sig"],
                             "--world", paths["w1"], "--formulas", str(src))
        assert code == 2
        assert "MISMATCH" not in out
        assert "open beta variables x" in err

    def test_enumerate_source(self, paths, capsys):
        code, out, _ = run(capsys, "check-diagram", "--sig", paths["sig"],
                           "--enumerate", "a,b", "--const", "c=a",
                           "--random", "10", "--seed", "9")
        assert code == 0
        assert "over 64 worlds" in out

    def test_enumerate_resolves_element_literals(self, paths, capsys):
        src = paths["dir"] / "literals.txt"
        src.write_text("p(#a)\n(#b == x)\nq(#a, x) -> p(#b)\n")
        code, out, _ = run(capsys, "check-diagram", "--sig", paths["sig"],
                           "--enumerate", "a,b", "--const", "c=a",
                           "--formulas", str(src), "--format", "records")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3 * 64 + 1
        assert all(" ok=true" in l for l in lines[:-1])
        src.write_text("p(#z)\n")
        code, _, err = run(capsys, "check-diagram", "--sig", paths["sig"],
                           "--enumerate", "a,b", "--const", "c=a",
                           "--formulas", str(src))
        assert code == 2
        assert "unknown element #z in world w0" in err

    def test_exactly_one_source(self, paths, capsys):
        code, _, err = run(capsys, "check-diagram", "--sig", paths["sig"],
                           "--world", paths["w1"], "--worlds", paths["ws2"])
        assert code == 2
        assert "exactly one" in err
        code, _, err = run(capsys, "check-diagram", "--sig", paths["sig"])
        assert code == 2
        assert "exactly one" in err

    def test_records_deterministic(self, paths, capsys):
        argv = ["check-diagram", "--sig", paths["sig"], "--worlds", paths["ws2"],
                "--random", "12", "--seed", "31", "--format", "records"]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        lines = out1.splitlines()
        assert all(l.startswith("kind=diagram ") for l in lines[:-1])
        assert lines[-1].startswith("kind=summary ")
        assert "mismatches=0" in lines[-1]

    def test_corrupted_evaluator_fails_with_witness(self, paths, capsys, monkeypatch):
        import intlog.semantics as semantics

        # negation route forgets one row: the reference evaluator should
        # disagree somewhere and the command must exit 1 with a witness
        real = semantics.complement

        def lossy(r, domain):
            full = real(r, domain)
            if full.arity == 1 and full.tuples:
                return rel(1, full.sorted_tuples()[1:])
            return full

        monkeypatch.setattr(semantics, "complement", lossy)
        code, out, _ = run(capsys, "check-diagram", "--sig", paths["sig"],
                           "--world", paths["w1"])
        assert code == 1
        assert "MISMATCH" in out
        assert "mismatches" in out.splitlines()[-1]
        assert "0 mismatches" not in out.splitlines()[-1]


@pytest.mark.parametrize(
    "sig, extra",
    [
        (SIG, ["--depth", "-1"]),
        (SIG, ["--abs-prob", "2"]),
        ("const c\n", []),  # no pred lines: nothing to build atoms from
    ],
    ids=["negative-depth", "abs-prob-above-1", "no-predicates"],
)
def test_bad_generator_input_exits_2(paths, capsys, sig, extra):
    sig_path = paths["dir"] / "gen_sig.txt"
    sig_path.write_text(sig)
    for command in ("check-diagram", "check-constraint"):
        code, _, err = run(capsys, command, "--sig", str(sig_path), "--enumerate", "a",
                           "--const", "c=a", "--random", "1", *extra)
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err


def test_depth_beyond_the_generator_limit_exits_2(paths, capsys):
    for command in ("check-diagram", "check-constraint"):
        code, out, err = run(capsys, command, "--sig", paths["sig"], "--enumerate", "a",
                             "--random", "1", "--depth", "100000")
        assert code == 2
        assert f"[0, {MAX_DEPTH}]" in err
        assert "nested too deeply" not in err
        assert out == ""


def test_oversized_random_formula_exits_2(paths, capsys, monkeypatch):
    import intlog.gen as gen

    monkeypatch.setattr(gen, "MAX_NODES", 20)
    for command in ("check-diagram", "check-constraint"):
        code, out, err = run(capsys, command, "--sig", paths["sig"], "--enumerate", "a",
                             "--random", "1", "--depth", "20")
        assert code == 2
        assert err == "error: a random formula grew past 20 nodes; use a smaller --depth\n"
        assert out == ""


def test_negative_random_count_exits_2(paths, capsys):
    # with the bundled signature the corpus fallback runs cleanly, so a
    # count that generated nothing used to pass unnoticed
    sig_path = paths["dir"] / "corpus_sig.txt"
    sig_path.write_text(data_text("corpus_sig.txt"))
    for command in ("check-diagram", "check-constraint"):
        code, out, err = run(capsys, command, "--sig", str(sig_path), "--enumerate", "a,b",
                             "--random", "-3")
        assert code == 2
        assert err.startswith("error: --random")
        assert out == ""


def test_corpus_fallback_error_names_the_corpus_line(paths, capsys):
    # the bundled corpus reads p/1, which this signature lacks
    sig_path = paths["dir"] / "q_only.txt"
    sig_path.write_text("pred q/2\n")
    code, out, err = run(capsys, "check-diagram", "--sig", str(sig_path), "--enumerate", "a")
    assert code == 2
    assert err.startswith("error: formulas.txt:")
    assert "unknown predicate 'p'" in err
    assert out == ""


def test_zero_random_count_adds_no_formulas(paths, capsys):
    formulas = paths["dir"] / "f.txt"
    formulas.write_text("p(c)\nexists x . q(x, x)\n")
    code, out, _ = run(capsys, "check-diagram", "--sig", paths["sig"], "--world", paths["w1"],
                       "--formulas", str(formulas), "--random", "0")
    assert code == 0
    assert out.splitlines()[-1] == "checked 2 pairs over 1 worlds: 0 mismatches"


def test_formula_line_may_start_with_an_element_literal(paths, capsys):
    # a comment is `#` alone or before a space or a tab, so `#a == #a`
    # is a formula
    sig = paths["dir"] / "p_only.txt"
    sig.write_text("pred p/1\n")
    formulas = paths["dir"] / "f.txt"
    formulas.write_text("# literals\n#\n#\tp(#b)\np(#a)\n#a == #a\n")
    code, out, _ = run(capsys, "check-diagram", "--sig", str(sig), "--formulas", str(formulas),
                       "--enumerate", "a")
    assert (code, out) == (0, "checked 4 pairs over 2 worlds: 0 mismatches\n")


@pytest.mark.parametrize("option", ["--sig", "--world"])
def test_hash_led_word_in_a_signature_or_world_file_exits_2(paths, capsys, option):
    path = paths["dir"] / "bad.txt"
    path.write_text(("pred p/1\n" if option == "--sig" else "domain a\n") + "#comment\n")
    code, out, err = run(capsys, *_file_commands(paths, str(path))[option])
    assert (code, out, err) == (2, "", "error: line 2: cannot parse '#comment'\n")


def test_variable_shadowing_a_predicate_exits_2(paths, capsys):
    sig = paths["dir"] / "shadow.txt"
    sig.write_text("pred p/1\nvar p\n")
    code, out, err = run(capsys, "parse", "--sig", str(sig), "p(x)")
    assert (code, out, err) == (2, "", "error: variable names shadow other symbols: ['p']\n")


def test_parse_error_at_end_of_input_names_it(paths, capsys):
    code, out, err = run(capsys, "parse", "--sig", paths["sig"], "exists")
    assert (code, out) == (2, "")
    assert err == "error: expected a variable, found 'end of input' at position 6\n"


@pytest.mark.parametrize("command", ["check-diagram", "check-constraint"])
@pytest.mark.parametrize("text", ["", "# a comment\n\n   \n# another\n"],
                         ids=["empty", "comments_and_blanks"])
def test_formula_file_without_formulas_exits_2(paths, capsys, command, text):
    # it used to fall back to the bundled corpus and check that instead
    formulas = paths["dir"] / "f.txt"
    formulas.write_text(text)
    code, out, err = run(capsys, command, "--sig", paths["sig"], "--world", paths["w1"],
                         "--formulas", str(formulas))
    assert code == 2
    assert err == f"error: {formulas}: no formulas\n"
    assert out == ""


def test_empty_formulas_path_exits_2(paths, capsys):
    code, out, err = run(capsys, "check-diagram", "--sig", paths["sig"], "--world", paths["w1"],
                         "--formulas", "")
    assert code == 2
    assert err.startswith("error: cannot read :")
    assert out == ""


BOX_FORMULAS = """\
[] p(x)
~[]~q(x, y)
[](exists y . q(x, y)) -> p(x)
[][]p(c) | ~[]p(x)
"""


@pytest.mark.parametrize("command, summary", [
    ("check-diagram", "checked 256 pairs over 64 worlds: 0 mismatches"),
    ("check-constraint", "checked 640 groundings over 64 worlds: 0 violations"),
])
def test_box_formula_file_over_an_enumeration(paths, capsys, command, summary):
    src = paths["dir"] / "box.txt"
    src.write_text(BOX_FORMULAS)
    code, out, _ = run(capsys, command, "--sig", paths["sig"], "--enumerate", "a,b",
                       "--const", "c=a", "--formulas", str(src))
    assert (code, out) == (0, summary + "\n")


def test_box_over_a_world_file_is_over_a_set_of_one(paths, capsys):
    # --world reads a set of one member, so there []f holds where f holds
    src = paths["dir"] / "box.txt"
    src.write_text(BOX_FORMULAS)
    code, out, _ = run(capsys, "check-diagram", "--sig", paths["sig"],
                       "--world", paths["w1"], "--formulas", str(src))
    assert (code, out) == (0, "checked 4 pairs over 1 worlds: 0 mismatches\n")


class TestCheckConstraint:
    def test_world_file(self, paths, capsys):
        code, out, _ = run(capsys, "check-constraint", "--sig", paths["sig"],
                           "--world", paths["w1"])
        assert code == 0
        assert "0 violations" in out

    def test_skip_counting(self, paths, capsys):
        code, out, _ = run(capsys, "check-constraint", "--sig", paths["sig"],
                           "--world", paths["w1"], "--max-assignments", "1")
        assert code == 0
        assert "skipped" in out

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_max_assignments_below_one_exits_2(self, paths, capsys, n):
        # it used to skip every grounding and pass with 0 violations
        code, out, err = run(capsys, "check-constraint", "--sig", paths["sig"],
                             "--world", paths["w1"], "--max-assignments", n)
        assert code == 2
        assert err == f"error: --max-assignments must be at least 1, got {n}\n"
        assert out == ""

    def test_records_summary(self, paths, capsys):
        code, out, _ = run(capsys, "check-constraint", "--sig", paths["sig"],
                           "--worlds", paths["ws2"], "--random", "8", "--seed", "2",
                           "--format", "records")
        assert code == 0
        last = out.splitlines()[-1]
        assert last.startswith("kind=summary ")
        assert "violations=0" in last

    def test_violation_exits_1_naming_it(self, paths, capsys, monkeypatch):
        # with #a compiled as b, p(x) under x = a fails wherever p tells
        # a from b; the enumeration first does so in w16, p = {a}
        literal_a_resolves_to_b(monkeypatch)
        formulas = paths["dir"] / "f.txt"
        formulas.write_text("p(x)\n")
        code, out, _ = run(capsys, "check-constraint", "--sig", paths["sig"],
                           "--enumerate", "a,b", "--const", "c=a",
                           "--formulas", str(formulas), "--format", "records")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "kind=violation world=w16 formula='p(x)' assignment=a"
        kind, *fields = lines[-1].split()
        assert kind == "kind=summary"
        assert int(dict(f.split("=") for f in fields)["violations"]) > 0


class TestEquiv:
    def test_identical_concepts(self, paths, capsys):
        code, out, _ = run(capsys, "equiv", "--sig", paths["sig"],
                           "--enumerate", "a,b", "--const", "c=a",
                           "<< q(x, y) >>_{x,y}", "<< q(y, x) >>_{y,x}")
        assert code == 0
        assert out == "equivalent (strong); concepts identical [relative to 64 worlds]\n"

    def test_distinct_but_equivalent(self, paths, capsys):
        code, out, _ = run(capsys, "equiv", "--sig", paths["sig"],
                           "--world", paths["w1"],
                           "<< p(x) >>_{x}", "<< p(x) & true >>_{x}")
        assert code == 0
        assert out == "equivalent (strong); concepts distinct [relative to 1 worlds]\n"

    def test_not_equivalent_witness(self, paths, capsys):
        code, out, _ = run(capsys, "equiv", "--sig", paths["sig"],
                           "--enumerate", "a,b", "--const", "c=a",
                           "<< p(x) >>_{x}", "<< ~p(x) >>_{x}")
        assert code == 1
        assert out.startswith("not equivalent (strong) (witness: world w0, tuple (a))")

    def test_weak_mode(self, paths, capsys):
        code, out, _ = run(capsys, "equiv", "--sig", paths["sig"],
                           "--enumerate", "a,b", "--const", "c=a", "--weak",
                           "<< p(x) >>_{x}", "<< ~p(x) >>_{x}")
        assert code == 0
        assert out.startswith("equivalent (weak)")

    def test_beta_grounding(self, paths, capsys):
        code, out, _ = run(capsys, "equiv", "--sig", paths["sig"],
                           "--worlds", paths["ws2"], "--assign", "y=a",
                           "<< q(x, y) >>_{x}^{y}", "<< q(x, c) >>_{x}")
        assert code == 0
        assert "[relative to 2 worlds]" in out

    def test_missing_beta_exits_2(self, paths, capsys):
        code, _, err = run(capsys, "equiv", "--sig", paths["sig"],
                           "--world", paths["w1"],
                           "<< q(x, y) >>_{x}^{y}", "<< q(x, c) >>_{x}")
        assert code == 2
        assert "error:" in err

    def test_alpha_arity_mismatch_exits_2(self, paths, capsys):
        code, _, err = run(capsys, "equiv", "--sig", paths["sig"],
                           "--world", paths["w1"],
                           "<< q(x, y) >>_{x,y}", "<< p(x) >>_{x}")
        assert code == 2
        assert "alpha arity" in err

    def test_non_abstraction_rejected(self, paths, capsys):
        code, _, err = run(capsys, "equiv", "--sig", paths["sig"],
                           "--world", paths["w1"], "c", "<< p(x) >>_{x}")
        assert code == 2
        assert "abstraction" in err

    def test_records(self, paths, capsys):
        code, out, _ = run(capsys, "equiv", "--sig", paths["sig"],
                           "--enumerate", "a,b", "--const", "c=a",
                           "--format", "records",
                           "<< p(x) >>_{x}", "<< ~p(x) >>_{x}")
        assert code == 1
        assert out == (
            "kind=equiv mode=strong equivalent=false same_concept=false "
            "worlds=64 world=w0 row=a\n"
        )


class TestWorldsEnumerate:
    def test_golden_single_pred(self, paths, capsys, tmp_path):
        sig = tmp_path / "p_only.txt"
        sig.write_text("pred p/1\n")
        code, out, _ = run(capsys, "worlds", "enumerate", "--sig", str(sig),
                           "--domain", "a,b")
        assert code == 0
        assert out == (
            "worlds\n"
            "domain a b\n"
            "world w0\n"
            "rel p/1 =\n"
            "world w1\n"
            "rel p/1 = (a)\n"
            "world w2\n"
            "rel p/1 = (b)\n"
            "world w3\n"
            "rel p/1 = (a) (b)\n"
        )

    def test_output_feeds_back(self, paths, capsys):
        code, out, _ = run(capsys, "worlds", "enumerate", "--sig", paths["sig"],
                           "--domain", "a,b", "--const", "c=a")
        assert code == 0
        enum = paths["dir"] / "enum.txt"
        enum.write_text(out)
        code, out2, _ = run(capsys, "check-diagram", "--sig", paths["sig"],
                            "--worlds", str(enum), "--random", "5", "--seed", "3")
        assert code == 0
        assert "over 64 worlds" in out2

    def test_limit(self, paths, capsys):
        code, _, err = run(capsys, "worlds", "enumerate", "--sig", paths["sig"],
                           "--domain", "a,b", "--const", "c=a", "--limit", "10")
        assert code == 2
        assert "limit" in err

    def test_records(self, paths, capsys):
        code, out, _ = run(capsys, "worlds", "enumerate", "--sig", paths["sig"],
                           "--domain", "a,b", "--const", "c=a",
                           "--format", "records")
        assert code == 0
        assert out == "kind=worlds count=64 domain='a b'\n"

    def test_missing_const_denotation(self, paths, capsys):
        code, _, err = run(capsys, "worlds", "enumerate", "--sig", paths["sig"],
                           "--domain", "a,b")
        assert code == 2
        assert "denotation" in err


def test_undeclared_const_exits_2(paths, capsys):
    for argv in (
        ["worlds", "enumerate", "--sig", paths["sig"], "--domain", "a", "--const", "c=a,zz=a"],
        ["check-diagram", "--sig", paths["sig"], "--enumerate", "a", "--const", "c=a,zz=a"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err == "error: constant 'zz' not declared in the signature\n"
        assert out == ""


@pytest.mark.parametrize("command", ["check-diagram", "check-constraint"])
def test_const_outside_enumeration_exits_2(paths, capsys, command):
    # a world file fixes its own constants; --const would be dropped
    for source in (["--world", paths["w1"]], ["--worlds", paths["ws2"]]):
        code, out, err = run(capsys, command, "--sig", paths["sig"], *source,
                             "--const", "c=b")
        assert code == 2
        assert err == "error: --const applies only to --enumerate\n"
        assert out == ""
    code, out, err = run(capsys, "equiv", "--sig", paths["sig"], "--world", paths["w1"],
                         "--const", "c=b", "<< p(x) >>_{x}", "<< p(x) >>_{x}")
    assert (code, out, err) == (2, "", "error: --const applies only to --enumerate\n")


class TestPlumbing:
    def test_no_command_usage(self, paths, capsys):
        assert run(capsys, )[0] == 2
        assert main([]) == 2

    def test_unknown_command(self, paths, capsys):
        assert run(capsys, "bogus")[0] == 2

    def test_worlds_without_subcommand(self, paths, capsys):
        assert run(capsys, "worlds")[0] == 2

    def test_missing_sig_file(self, paths, capsys):
        code, _, err = run(capsys, "parse", "--sig", "/nonexistent/sig.txt", "p(x)")
        assert code == 2
        assert "cannot read" in err

    def test_bad_assign_syntax(self, paths, capsys):
        code, _, err = run(capsys, "eval", "--sig", paths["sig"],
                           "--world", paths["w1"], "p(x)", "--assign", "x")
        assert code == 2
        assert "name=value" in err
        code, _, err = run(capsys, "eval", "--sig", paths["sig"],
                           "--world", paths["w1"], "p(x)", "--assign", "x=")
        assert (code, err) == (2, "error: bad --assign entry 'x=', expected name=value\n")

    def test_duplicate_assign(self, paths, capsys):
        code, _, err = run(capsys, "eval", "--sig", paths["sig"],
                           "--world", paths["w1"], "p(x)", "--assign", "x=a,x=b")
        assert code == 2
        assert "twice" in err

    def test_help_exits_0(self, paths, capsys):
        assert run(capsys, "--help")[0] == 0
        assert run(capsys, "eval", "--help")[0] == 0

    def test_broken_pipe_is_quiet(self, paths, capsys, monkeypatch):
        import intlog.cli as cli

        def choke(**fields):
            raise BrokenPipeError

        monkeypatch.setattr(cli, "_emit_record", choke)
        code, _, err = run(capsys, "check-diagram", "--sig", paths["sig"],
                           "--world", paths["w1"], "--format", "records")
        assert code == 1
        assert "Traceback" not in err


def _file_commands(paths, path):
    """One command per file-taking option, reading path through it."""
    sig, w1 = paths["sig"], paths["w1"]
    return {
        "--sig": ["parse", "--sig", path, "p(x)"],
        "--world": ["eval", "--sig", sig, "--world", path, "p(x)"],
        "--worlds": ["check-diagram", "--sig", sig, "--worlds", path],
        "--formulas": ["check-diagram", "--sig", sig, "--world", w1, "--formulas", path],
    }


@pytest.mark.parametrize("option", ["--sig", "--world", "--worlds", "--formulas"])
@pytest.mark.parametrize("case", ["missing", "directory", "not_utf8"])
def test_unreadable_file_exits_2(paths, capsys, option, case):
    path = paths["dir"] / case
    if case == "directory":
        path.mkdir()
    elif case == "not_utf8":
        path.write_bytes(b"\xff\xfepred p/1\n")
    code, _, err = run(capsys, *_file_commands(paths, str(path))[option])
    assert code == 2
    assert err.startswith(f"error: cannot read {path}")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv,name",
    [
        (["eval", "--sig", "{sig}", "--world", "{bad_world}", "~p(x)"], "'a,b'"),
        (["worlds", "enumerate", "--sig", "{sig}", "--domain", "a,x)", "--const", "c=a"],
         "'x)'"),
        (["check-diagram", "--sig", "{sig}", "--enumerate", "a,1", "--random", "5",
          "--const", "c=a"], "'1'"),
        (["check-diagram", "--sig", "{sig}", "--enumerate", "a,1", "--const", "c=a"], "'1'"),
    ],
    ids=["domain_line", "worlds_enumerate", "random_elem_names", "enumerate"],
)
def test_bad_element_name_exits_2(paths, capsys, argv, name):
    bad_world = paths["dir"] / "bad_world.txt"
    bad_world.write_text("domain a,b c\nconst c = c\n")
    argv = [a.format(sig=paths["sig"], bad_world=bad_world) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"bad element name {name}" in err
    if "--world" in argv:
        assert err.startswith("error: line 1: ")


@pytest.mark.parametrize("domain", ["a,b,c", "x1 true Zz_9"])
def test_enumerated_names_round_trip(paths, capsys, domain):
    sig = paths["dir"] / "p_only.txt"
    sig.write_text("pred p/1\n")
    code, out, _ = run(capsys, "worlds", "enumerate", "--sig", str(sig), "--domain", domain)
    assert code == 0
    enum = paths["dir"] / "enum.txt"
    enum.write_text(out)
    names = domain.replace(",", " ").split()
    assert f"domain {' '.join(sorted(names))}" in out.splitlines()
    formulas = paths["dir"] / "literals.txt"
    formulas.write_text("".join(f"p(#{n}) & exists x . ~p(x)\n" for n in names))
    code, out2, _ = run(capsys, "check-diagram", "--sig", str(sig), "--worlds", str(enum),
                        "--formulas", str(formulas), "--random", "20", "--seed", "1")
    assert code == 0
    assert out2 == f"checked {8 * (len(names) + 20)} pairs over 8 worlds: 0 mismatches\n"
