import copy
import json

import pytest

import oracle
import workloads


@pytest.fixture(scope="module")
def tiny_result():
    from repro.runtime import JobSpec, execute_spec

    spec = JobSpec("cora", "hymm", 0.05, n_layers=2, seed=3)
    return spec, execute_spec(spec, replay_session=None)


def test_digest_survives_the_wire_round_trip(tiny_result):
    from repro.hymm.base import RunResult

    _, result = tiny_result
    wire = json.loads(json.dumps(result.to_dict()))
    assert oracle.digest(RunResult.from_dict(wire)) == oracle.digest(result)


def test_digest_ignores_counter_key_order(tiny_result):
    _, result = tiny_result
    shuffled = copy.deepcopy(result)
    for counter in ("buffer_hits", "buffer_misses", "dram_read_bytes"):
        items = list(getattr(shuffled.stats, counter).items())[::-1]
        getattr(shuffled.stats, counter).clear()
        getattr(shuffled.stats, counter).update(dict(items))
    assert oracle.digest(shuffled) == oracle.digest(result)


def test_digest_sees_one_counter_change(tiny_result):
    _, result = tiny_result
    changed = copy.deepcopy(result)
    changed.stats.requests_issued += 1
    assert oracle.digest(changed) != oracle.digest(result)


def test_digest_repeats_across_executions(tiny_result):
    from repro.runtime import execute_spec

    spec, result = tiny_result
    again = execute_spec(spec, replay_session=None)
    assert oracle.digest(again) == oracle.digest(result)


def test_oracle_accepts_the_simulation_and_rejects_a_perturbed_output(tiny_result):
    spec, result = tiny_result
    gate = oracle.Gate({}, seed=spec.seed)
    assert gate.check_result(spec, result) == oracle.digest(result)
    assert gate.failed == 0
    bad = copy.deepcopy(result)
    bad.outputs[-1] = bad.outputs[-1] + 1.0
    gate.check_result(spec, bad)
    assert gate.failed == 1


def test_expected_file_covers_every_seed0_job():
    expected = oracle.load_expected(workloads.PERF / "expected.json")
    seed = oracle.EXPECTED_SEED
    specs = (
        workloads.sweep_specs(
            [workloads.LOWMISS, workloads.HIGHMISS, workloads.SMOKE_POINT], seed)
        + workloads.miss_specs(workloads.MISS_POINT, seed)
        + workloads.miss_specs(workloads.SMOKE_POINT, seed)
    )
    assert {oracle.label(s) for s in specs} == set(expected)
