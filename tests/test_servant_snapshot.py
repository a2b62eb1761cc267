"""Servant state snapshots: the flat-container shallow copy.

``_snapshot`` (behind ``Servant.get_state``/``set_state``) copies flat
lists and dicts of scalars shallowly instead of pickling them.  These
tests pin that the shallow copy is indistinguishable from the pickle
round trip it replaces, and that everything else still takes the old
path.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Servant
from repro.apps import LEDGER_INTERFACE, LedgerServant
from repro.orb import servant as servant_module
from repro.orb.servant import _flat_copy, _snapshot


def round_trip(state):
    return pickle.loads(pickle.dumps(state, pickle.HIGHEST_PROTOCOL))


_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=False), st.text(max_size=6), st.binary(max_size=6),
    st.complex_numbers(allow_nan=False))
_keys = st.one_of(st.text(max_size=4), st.integers(), st.booleans())
_flat = st.one_of(
    _scalars,
    st.tuples(_scalars, _scalars),
    st.lists(_scalars, max_size=8),
    st.dictionaries(_keys, _scalars, max_size=8),
)
_flat_states = st.dictionaries(st.text(min_size=1, max_size=6), _flat,
                               max_size=5)


@settings(max_examples=200, deadline=None)
@given(_flat_states)
def test_flat_snapshot_equals_round_trip_and_is_detached(state):
    snapshot = _snapshot(state)
    assert _flat_copy(state) is not None
    assert snapshot == round_trip(state)
    assert snapshot is not state
    for name, value in state.items():
        if isinstance(value, (list, dict)):
            assert snapshot[name] is not value
    # Detached both ways: mutating either side leaves the other alone.
    before = round_trip(state)
    for value in snapshot.values():
        if isinstance(value, list):
            value.append("mutated")
        elif isinstance(value, dict):
            value["mutated"] = 1
    assert state == before
    for value in state.values():
        if isinstance(value, list):
            value.clear()
        elif isinstance(value, dict):
            value.clear()
    for name, value in snapshot.items():
        if isinstance(value, list):
            assert value[-1] == "mutated"
        elif isinstance(value, dict):
            assert value["mutated"] == 1


def test_get_state_is_immune_to_later_servant_mutation():
    ledger = LedgerServant()
    ledger.record("a->b:1")
    ledger.balances = {"alice": 5}
    snapshot = ledger.get_state()
    ledger.record("c->d:2")
    ledger.balances["alice"] = 0
    assert snapshot == {"log": ["a->b:1"], "balances": {"alice": 5}}


def test_two_set_state_calls_from_one_snapshot_do_not_alias():
    source = LedgerServant()
    source.record("x")
    snapshot = source.get_state()
    a, b = LedgerServant(), LedgerServant()
    a.set_state(snapshot)
    b.set_state(snapshot)
    assert a.log is not b.log
    assert a.log is not snapshot["log"]
    a.record("only-a")
    assert b.log == ["x"] and snapshot["log"] == ["x"]


class _List(list):
    pass


class _Text(str):
    pass


@pytest.mark.parametrize("state", [
    {"items": _List([1, 2])},                    # list subclass
    {"items": [1, [2, 3]]},                      # nested list
    {"table": {"a": (1, 2)}},                    # dict of tuples
    {"table": {"a": [1, 2]}},                    # dict of lists
    {"items": [_Text("a")]},                     # str subclass item
    {"table": {_Text("k"): 1}},                  # str subclass key
    {"items": [1], "frozen": frozenset({1}), "more": [(1,)]},
], ids=["list-subclass", "nested-list", "dict-of-tuples", "dict-of-lists",
        "str-subclass-item", "str-subclass-key", "tuple-item"])
def test_non_flat_state_takes_the_pickle_round_trip(state, monkeypatch):
    dumps = []
    real_dumps = pickle.dumps
    monkeypatch.setattr(servant_module.pickle, "dumps",
                        lambda *a, **k: dumps.append(1) or real_dumps(*a, **k))
    assert _flat_copy(state) is None
    snapshot = _snapshot(state)
    assert dumps == [1]
    assert snapshot == round_trip(state)
    for name, value in state.items():
        assert type(snapshot[name]) is type(value)


def test_aliased_containers_keep_their_aliasing():
    shared = [1, 2]
    state = {"a": shared, "b": shared}
    assert _flat_copy(state) is None
    snapshot = _snapshot(state)
    assert snapshot["a"] is snapshot["b"]
    assert snapshot["a"] is not shared


def test_unpicklable_state_falls_back_to_deepcopy():
    def probe():
        return 1

    class Holder(Servant):
        interface = LEDGER_INTERFACE

        def __init__(self):
            self.hooks = [lambda: probe()]

    servant = Holder()
    state = servant.get_state()
    assert state["hooks"] is not servant.hooks
    assert state["hooks"][0] is servant.hooks[0]  # functions deep-copy as-is


def test_immutable_only_state_is_shared():
    state = {"count": 3, "name": "n", "pair": (1, "x")}
    snapshot = _snapshot(state)
    assert snapshot == state and snapshot is not state
    assert snapshot["pair"] is state["pair"]
