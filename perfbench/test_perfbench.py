"""Self-tests of the benchmark: tracing changes nothing simulated, the
wrappers come off again, counts repeat, and the checks can fail.

Run from the root of a checkout: ``python3 -m pytest -q perfbench``.
The workloads are shrunk here so the tests take seconds.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import ledger as ledger_module  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro import World  # noqa: E402
from trial import run_trial  # noqa: E402


@pytest.fixture(autouse=True)
def small_workloads(monkeypatch):
    monkeypatch.setattr(workloads.Farm, "ARRIVALS", 300)
    monkeypatch.setattr(workloads.Nested, "TRANSFERS_PER_CLIENT", 8)
    # Long enough for two primary crashes and the gateway kill.
    monkeypatch.setattr(workloads.Churn, "DURATION_S", 8.0)


def bindings():
    """Every attribute the ledger may replace, by identity."""
    seen = {}
    for module_name, owner_name, name, _ in ledger_module.BOUNDARIES:
        module = sys.modules[module_name]
        if owner_name is None:
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "repro" and name in vars(mod):
                    seen[(mod_name, name)] = vars(mod)[name]
        else:
            owner = getattr(module, owner_name)
            seen[(owner_name, name)] = vars(owner)[name]
    member = sys.modules["repro.totem.member"].TotemMember
    for name in ("on_deliver", "on_membership"):
        seen[("TotemMember", name)] = vars(member)[name]
    return seen


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_trial_matches_untraced(name):
    plain = run_trial(name, seed=5)
    traced = run_trial(name, seed=5, traced=True)
    assert plain.problems == [] and traced.problems == []
    # Served/shed counts, the latency list and the registry snapshot.
    assert traced.sim == plain.sim
    assert traced.counts == plain.counts
    assert plain.sim["served"] == plain.sim["attempted"]


def test_every_wrapper_is_restored():
    before = bindings()
    ledger = ledger_module.Ledger().install()
    try:
        during = bindings()
        replaced = {key for key in before if during[key] is not before[key]}
        assert len(replaced) == len(ledger.wrapped_bindings())
        for _, owner_name, name, _ in ledger_module.BOUNDARIES:
            if owner_name is not None:
                assert (owner_name, name) in replaced
    finally:
        ledger.restore()
    assert ledger.wrapped_bindings() == []
    after = bindings()
    assert all(after[key] is before[key] for key in before)
    run_trial("farm", seed=5, traced=True)
    after = bindings()
    assert all(after[key] is before[key] for key in before)


def test_counts_repeat_and_seed_changes_schedule():
    first = run_trial("churn", seed=9, traced=True)
    second = run_trial("churn", seed=9, traced=True)
    assert first.counts == second.counts
    assert first.ledger.counts == second.ledger.counts
    assert first.ledger.calls == second.ledger.calls
    assert first.ledger.order_waits == second.ledger.order_waits
    assert first.ledger.counts["totem.ring_installs"] > 0
    assert first.counts["core.client.reissued"] > 0
    for cls in workloads.WORKLOADS.values():
        if cls.open_loop:
            assert cls(9).due == cls(9).due
            assert cls(9).due != cls(10).due
    assert workloads.Nested(9).plan != workloads.Nested(10).plan
    assert workloads.Churn(9).crashes != workloads.Churn(10).crashes


def test_self_times_account_for_traced_wall():
    trial = run_trial("nested", seed=3, traced=True)
    attributed = sum(trial.ledger.self_time.values())
    assert abs(trial.run_s - attributed) < 0.02 * trial.run_s
    assert set(trial.ledger.self_time) <= set(ledger_module.LAYERS)
    for layer in ("sim", "totem", "eternal", "core.gateway", "iiop", "orb",
                  "obs", "loadgen"):
        assert trial.ledger.self_time[layer] > 0, layer


def test_checks_catch_a_diverged_replica():
    workload = workloads.Farm(2)
    world = World(seed=2)
    workload.build(world)
    workload.start()
    world.scheduler.run_until(workload.finished, timeout=600)
    world.run(until=world.now + 2.0)
    assert workload.check() == []
    replicas = workloads.replica_states(workload.domain, workload.group,
                                        lambda servant: servant)
    next(iter(replicas.values())).count += 1
    assert workload.check() != []


def test_missing_program_exits_without_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    status = run.main(["--workload", "farm", "--seed", "1",
                       "--seconds", "1", "--trace", "0"])
    assert status != 0
    assert capsys.readouterr().out == ""
