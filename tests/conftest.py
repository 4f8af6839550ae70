"""Helpers shared by the test modules: call budgets for walks that must
visit each shared node once."""


def counting(monkeypatch, owner, name, cap):
    """Count the calls made to owner.<name> (a module function or a
    class's method, such as `Conj.__post_init__`, which counts the nodes
    built), failing at once past cap: a walk that is exponential in its
    input fails in milliseconds instead of not finishing."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(None)
        assert len(calls) <= cap, f"more than {cap} {name} calls"
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def error_of(fn, *args):
    """The exception fn(*args) raises, as text, or None.  The exception
    itself is dropped: reporting its frames would print a <-> chain,
    whose repr is exponential in the links."""
    try:
        fn(*args)
    except Exception as e:
        return f"{type(e).__name__}: {e}"
    return None
