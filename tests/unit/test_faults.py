"""Unit tests for the deterministic fault-injection harness."""

from __future__ import annotations

import os

import pytest

from repro.errors import ParameterError
from repro.store import SIMULATION_NAMESPACE, ResultStore
from repro.testing.faults import (
    FAULTS_ENV,
    FaultInjected,
    FaultSpec,
    active_plan,
    corrupt_after_write,
    decode_plan,
    encode_plan,
    fire_task_faults,
    inject_faults,
    plan_from_seed,
)

KEY = "ab" * 32


class TestFaultSpec:
    def test_defaults(self):
        spec = FaultSpec(kind="raise", task=3)
        assert spec.attempt == 0
        assert spec.seconds == 3600.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "explode", "task": 0},
            {"kind": "raise", "task": -1},
            {"kind": "raise", "task": 0, "attempt": -1},
            {"kind": "hang", "task": 0, "seconds": 0.0},
        ],
    )
    def test_invalid_specs_are_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            FaultSpec(**kwargs)


class TestPlanCodec:
    def test_round_trip(self):
        plan = (
            FaultSpec(kind="kill", task=1),
            FaultSpec(kind="raise", task=4, attempt=1),
            FaultSpec(kind="hang", task=2, seconds=9.0),
            FaultSpec(kind="corrupt", task=0),
        )
        assert decode_plan(encode_plan(plan)) == plan

    def test_decode_rejects_non_json(self):
        with pytest.raises(ParameterError):
            decode_plan("not json")

    def test_decode_rejects_non_list(self):
        with pytest.raises(ParameterError):
            decode_plan('{"kind": "raise", "task": 0}')

    def test_decode_rejects_missing_keys(self):
        with pytest.raises(ParameterError):
            decode_plan('[{"kind": "raise"}]')

    def test_decode_rejects_unknown_keys(self):
        with pytest.raises(ParameterError):
            decode_plan('[{"kind": "raise", "task": 0, "color": "red"}]')


class TestActivation:
    def test_no_plan_by_default(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert active_plan() == ()

    def test_inject_faults_sets_and_restores_environment(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        plan = (FaultSpec(kind="raise", task=0),)
        with inject_faults(plan):
            assert os.environ[FAULTS_ENV] == encode_plan(plan)
            assert active_plan() == plan
        assert FAULTS_ENV not in os.environ

    def test_inject_faults_restores_previous_plan(self, monkeypatch):
        outer = encode_plan((FaultSpec(kind="kill", task=9),))
        monkeypatch.setenv(FAULTS_ENV, outer)
        with inject_faults((FaultSpec(kind="raise", task=0),)):
            assert os.environ[FAULTS_ENV] != outer
        assert os.environ[FAULTS_ENV] == outer

    def test_inject_faults_restores_on_error(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        with pytest.raises(RuntimeError):
            with inject_faults((FaultSpec(kind="raise", task=0),)):
                raise RuntimeError("boom")
        assert FAULTS_ENV not in os.environ


class TestSeededPlans:
    def test_same_seed_same_plan(self):
        assert plan_from_seed(7, 20, count=3) == plan_from_seed(7, 20, count=3)

    def test_different_seeds_differ_somewhere(self):
        plans = {plan_from_seed(seed, 50, count=2) for seed in range(8)}
        assert len(plans) > 1

    def test_task_indices_are_distinct_and_in_range(self):
        plan = plan_from_seed(3, 10, count=5)
        indices = [spec.task for spec in plan]
        assert len(set(indices)) == 5
        assert all(0 <= index < 10 for index in indices)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ParameterError):
            plan_from_seed(1, 0)
        with pytest.raises(ParameterError):
            plan_from_seed(1, 3, count=4)


class TestFiring:
    def test_no_plan_is_a_no_op(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        fire_task_faults(0, 0, in_worker=False)  # must not raise

    def test_raise_fault_fires_at_its_coordinate_only(self):
        with inject_faults((FaultSpec(kind="raise", task=2, attempt=0),)):
            fire_task_faults(1, 0, in_worker=False)  # other task: no-op
            fire_task_faults(2, 1, in_worker=False)  # other attempt: no-op
            with pytest.raises(FaultInjected):
                fire_task_faults(2, 0, in_worker=False)

    @pytest.mark.parametrize("kind", ["hang", "kill"])
    def test_worker_only_faults_raise_loudly_in_process(self, kind):
        with inject_faults((FaultSpec(kind=kind, task=0),)):
            with pytest.raises(FaultInjected, match="needs a worker process"):
                fire_task_faults(0, 0, in_worker=False)

    def test_corrupt_fault_never_fires_in_task_hook(self):
        with inject_faults((FaultSpec(kind="corrupt", task=0),)):
            fire_task_faults(0, 0, in_worker=False)  # corruption is store-side


class TestCorruptAfterWrite:
    def test_truncates_planned_row_payload(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(SIMULATION_NAMESPACE, KEY, {"payload": "0123456789"})
        with inject_faults((FaultSpec(kind="corrupt", task=4),)):
            corrupt_after_write(store, KEY, 4)
        (text,) = store._db().execute("SELECT payload FROM entries").fetchone()
        assert text == '{"payload":"'  # the first half of '{"payload":"0123456789"}'
        assert store.get(SIMULATION_NAMESPACE, KEY) is None
        assert store.vacuum().removed_entries == 1

    def test_leaves_other_tasks_alone(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(SIMULATION_NAMESPACE, KEY, {"payload": "0123456789"})
        with inject_faults((FaultSpec(kind="corrupt", task=4),)):
            corrupt_after_write(store, KEY, 5)
        assert store.get(SIMULATION_NAMESPACE, KEY) == {"payload": "0123456789"}
