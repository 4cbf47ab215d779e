from repro.core.proxy import LazyProxy, unwrap
from repro.core.thunk import Thunk


def lazy(fn):
    """A proxy over a fresh thunk, built the way ``orm/session.py`` does."""
    return LazyProxy(Thunk(fn))


def test_proxy_defers_until_used():
    calls = []

    def compute():
        calls.append(1)
        return 10

    p = lazy(compute)
    assert not calls
    assert p + 5 == 15
    assert calls == [1]


def test_proxy_arithmetic_and_comparison():
    p = lazy(lambda: 6)
    assert p * 7 == 42
    assert 7 * p == 42
    assert p - 1 == 5
    assert 10 - p == 4
    assert p / 2 == 3
    assert -p == -6
    assert abs(lazy(lambda: -3)) == 3
    assert p < 7 and p > 5 and p <= 6 and p >= 6
    assert p == 6 and p != 5


def test_proxy_comparison_with_other_proxy():
    assert lazy(lambda: 3) < lazy(lambda: 4)


def test_proxy_string_behaviour():
    p = lazy(lambda: "hello")
    assert str(p) == "hello"
    assert format(p, ">7") == "  hello"
    assert len(p) == 5
    assert "ell" in p


def test_proxy_container_protocol():
    p = lazy(lambda: [1, 2, 3])
    assert list(p) == [1, 2, 3]
    assert p[0] == 1
    p[0] = 9
    assert p[0] == 9
    del p[0]
    assert len(p) == 2


def test_proxy_attribute_access():
    class Obj:
        value = 13

    p = lazy(lambda: Obj())
    assert p.value == 13
    p.value = 14
    assert p.value == 14


def test_proxy_bool_and_hash():
    assert bool(lazy(lambda: []))is False
    assert hash(lazy(lambda: "k")) == hash("k")


def test_proxy_call():
    p = lazy(lambda: (lambda x: x * 2))
    assert p(21) == 42


def test_unwrap():
    assert unwrap(lazy(lambda: 5)) == 5
    assert unwrap(Thunk(lambda: 6)) == 6
    assert unwrap(7) == 7


def test_proxy_forces_once():
    calls = []
    p = LazyProxy(Thunk(lambda: calls.append(1) or {"a": 1}))
    assert p["a"] == 1
    assert p["a"] == 1
    assert calls == [1]
