"""Program and extended states: immutability, equality, updates."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.semantics.state import ExtState, State, ext_state

values = st.dictionaries(st.sampled_from("xyzw"), st.integers(0, 5), max_size=4)


class TestState:
    def test_lookup(self):
        s = State({"x": 1})
        assert s["x"] == 1
        assert s.get("y") is None
        assert s.get("y", 7) == 7
        with pytest.raises(KeyError):
            s["y"]

    def test_set_returns_new(self):
        s = State({"x": 1})
        s2 = s.set("x", 2)
        assert s["x"] == 1 and s2["x"] == 2
        assert s != s2

    def test_set_many(self):
        s = State({"x": 1}).set_many({"y": 2, "z": 3})
        assert s["y"] == 2 and s["z"] == 3

    def test_drop_restrict(self):
        s = State({"x": 1, "y": 2})
        assert "x" not in s.drop("x")
        assert s.restrict({"y"}).vars == ("y",)

    def test_vars_sorted(self):
        assert State({"b": 1, "a": 2}).vars == ("a", "b")

    def test_copy_constructor(self):
        s = State({"x": 1})
        assert State(s) == s

    @given(values)
    def test_equality_and_hash_agree(self, mapping):
        a, b = State(mapping), State(dict(mapping))
        assert a == b and hash(a) == hash(b)

    @given(values, st.sampled_from("xyzw"), st.integers(0, 5))
    def test_set_then_get(self, mapping, var, value):
        assert State(mapping).set(var, value)[var] == value

    def test_membership_and_len(self):
        s = State({"x": 1, "y": 2})
        assert "x" in s and "q" not in s
        assert len(s) == 2
        assert sorted(s) == ["x", "y"]

    def test_frozenset_usable(self):
        a = State({"x": 1})
        b = State({"x": 1})
        assert len({a, b}) == 1


class TestExtState:
    def test_accessors(self):
        phi = ext_state({"t": 1}, {"x": 2})
        assert phi.lvar("t") == 1
        assert phi.pvar("x") == 2

    def test_updates_are_functional(self):
        phi = ext_state({"t": 1}, {"x": 2})
        phi2 = phi.set_pvar("x", 9)
        phi3 = phi.set_lvar("t", 9)
        assert phi.pvar("x") == 2 and phi2.pvar("x") == 9
        assert phi.lvar("t") == 1 and phi3.lvar("t") == 9
        assert phi2.log == phi.log
        assert phi3.prog == phi.prog

    def test_with_prog_with_log(self):
        phi = ext_state({"t": 1}, {"x": 2})
        new_prog = State({"x": 5})
        assert phi.with_prog(new_prog).prog == new_prog
        new_log = State({"t": 5})
        assert phi.with_log(new_log).log == new_log

    @given(values, values)
    def test_equality(self, log, prog):
        assert ExtState(State(log), State(prog)) == ExtState(State(log), State(prog))


class TestPickleAcrossHashSeeds:
    """Cached hashes must not travel through pickle: string hashes differ
    between processes with different ``PYTHONHASHSEED``\\ s, so a stale
    ``_hash`` would make equal objects miss each other in sets."""

    BUILD = (
        "import sys; sys.path.insert(0, %r)\n"
        "from repro.semantics.state import ext_state\n"
        "from repro.solver.formula import fand, fnot, fvar\n"
        "state = ext_state({'t': 1}, {'x': 0, 'y': 2})\n"
        "formula = fand(fvar(('m', 'a')), fnot(fvar(('m', 'b'))))\n"
        "objects = (state, state.prog, formula)\n"
    )

    def _run(self, program, hashseed, stdin=None):
        import os
        import subprocess
        import sys

        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        return subprocess.run(
            [sys.executable, "-c", program],
            input=stdin, capture_output=True, env=env, check=True,
        ).stdout

    def test_unpickled_objects_hash_like_fresh_ones(self):
        import os

        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
            "src",
        )
        build = self.BUILD % src
        dumped = self._run(
            build + "import pickle, sys\n"
            "[hash(o) for o in objects]  # cache every hash before pickling\n"
            "sys.stdout.buffer.write(pickle.dumps(objects))\n",
            "1",
        )
        verdicts = self._run(
            build + "import pickle, sys\n"
            "loaded = pickle.loads(sys.stdin.buffer.read())\n"
            "for old, new in zip(loaded, objects):\n"
            "    print(old == new, old in {new}, new in {old})\n",
            "2",
            stdin=dumped,
        )
        assert verdicts.decode().split() == ["True"] * 9
