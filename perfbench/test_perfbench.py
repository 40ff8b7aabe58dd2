"""Tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import drive  # noqa: E402
import run  # noqa: E402
from repro.assign import dfg_assign_repeat  # noqa: E402
from repro.io import instance_to_dict  # noqa: E402
from repro.serve import SynthesisService  # noqa: E402
from repro.synthesis import auto_algorithm, synthesize  # noqa: E402
from repro.verify import certify  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: ``synth`` is not listed in BENCHMARK.json but prints the same metrics.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["synth"]


def _tiny(capsys, workload: str, seed: int = 1, trace: int = 0) -> dict:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0"]
    assert run.main(argv + ["--trace", str(trace)], min_ops=3, setup_samples=1) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(capsys, workload, trace):
    result = _tiny(capsys, workload, trace=trace)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_second_seed_runs_without_failures(capsys, workload):
    result = _tiny(capsys, workload, seed=7)
    assert (result["correct"], result["failed"]) == (True, 0)


def test_a_corrupted_synth_answer_counts_as_failed(capsys, monkeypatch):
    calls = []

    def corrupting(dag, table, deadline):
        result = synthesize(dag, table, deadline)
        calls.append(1)
        if len(calls) == len(corpus.GRAPHS) + 5:  # a timed call, after the warm-up
            wrong = dataclasses.replace(result.assign_result, cost=result.cost + 1)
            return dataclasses.replace(result, assign_result=wrong)
        return result

    monkeypatch.setattr(drive, "synthesize", corrupting)
    result = _tiny(capsys, "synth")
    assert (result["correct"], result["failed"]) == (False, 1)


@pytest.mark.parametrize("workload,label", [("serve_cold", "cold1.3"), ("serve_warm", "warm1.2")])
def test_a_corrupted_serve_answer_counts_as_failed(capsys, monkeypatch, workload, label):
    solve_batch = SynthesisService.solve_batch

    def corrupting(self, requests):
        responses = solve_batch(self, requests)
        return [
            dataclasses.replace(r, result={**r.result, "cost": r.result["cost"] + 1})
            if r.label == label
            else r
            for r in responses
        ]

    monkeypatch.setattr(SynthesisService, "solve_batch", corrupting)
    result = _tiny(capsys, workload)
    assert (result["correct"], result["failed"]) == (False, 1)


def _synth_inputs(seed: int) -> list:
    return [
        (i.key, i.deadline, instance_to_dict(i.dag, i.table))
        for i in corpus.synth_corpus(seed)
    ]


def _serve_inputs(requests: list) -> list:
    return [json.loads(corpus.post_body(requests))]


def test_inputs_are_a_pure_function_of_the_seed():
    assert _synth_inputs(5) == _synth_inputs(5)
    assert _synth_inputs(5) != _synth_inputs(6)
    cold = [_serve_inputs(corpus.cold_post(5, i)) for i in range(-4, 8)]
    assert cold == [_serve_inputs(corpus.cold_post(5, i)) for i in range(-4, 8)]
    assert cold != [_serve_inputs(corpus.cold_post(6, i)) for i in range(-4, 8)]
    solved = corpus.warm_corpus(5)
    assert _serve_inputs(solved) == _serve_inputs(corpus.warm_corpus(5))
    warm = [_serve_inputs(corpus.warm_post(5, i, solved)) for i in range(-1, 16)]
    assert warm == [_serve_inputs(corpus.warm_post(5, i, solved)) for i in range(-1, 16)]


def test_expected_costs_agree_with_the_oracles():
    expected = corpus.load_expected_costs()
    seen = set()
    for graph in corpus.GRAPHS:
        for pool in range(corpus.TABLE_POOL):
            for item in corpus.pool_items(graph, pool):
                seen.add(item.key)
                # The python reference kernel without incremental reuse;
                # on trees the tree_optimal oracle makes it the optimum.
                reference = dfg_assign_repeat(
                    item.dag, item.table, item.deadline, kernel="python", incremental=False
                )
                assert reference.cost == expected[item.key], item.key
                if len(item.dag) <= 16:  # the whole certify chain where it is cheap
                    cert = certify(item.dag, item.table, item.deadline)
                    assert cert.costs[auto_algorithm(item.dag)] == expected[item.key]
    assert seen == set(expected)


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    workload = SPEC["workloads"][0]["name"]
    argv = SPEC["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
