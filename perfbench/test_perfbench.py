"""Tests of the benchmark itself: span arithmetic, patch hygiene, generator
determinism, and a tiny-size smoke run of every workload."""

from __future__ import annotations

import importlib
import json
import math
from pathlib import Path

import pytest

from perfbench import generators, harness
from perfbench.tracing import LAYER_PATCHES, Tracer, counting, installed, span_totals

ROOT = Path(__file__).resolve().parent.parent


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("op", 0.0, 10.0, -1),
        ("train", 1.0, 4.0, 0),
        ("expand", 2.0, 3.0, 1),
        ("expand", 5.0, 5.5, 0),
        ("train", 6.0, 9.0, 0),
    ]
    totals = span_totals(spans)
    assert totals["op"] == {"calls": 1, "s": 10.0, "self_s": 10.0 - 3.0 - 0.5 - 3.0}
    assert totals["train"] == {"calls": 2, "s": 6.0, "self_s": 2.0 + 3.0}
    assert totals["expand"] == {"calls": 2, "s": 1.5, "self_s": 1.5}


def test_tracer_records_nesting_and_run_ids():
    tracer = Tracer()
    tracer.run_id = 7
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    (outer, inner) = list(tracer.spans())
    assert outer[0] == "outer" and outer[3] == -1 and outer[4] == 7
    assert inner[0] == "inner" and inner[3] == 0
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


def _snapshot():
    modules = {name for name, _, _ in LAYER_PATCHES} | {"mwetag.ga"}
    return {name: dict(vars(importlib.import_module(name))) for name in modules}


def test_wrap_and_restore_leave_modules_unchanged():
    before = _snapshot()
    tracer = Tracer()
    with installed(tracer):
        for module_name, attr, _ in LAYER_PATCHES:
            module = importlib.import_module(module_name)
            assert getattr(module, attr) is not before[module_name][attr]
        from mwetag import crf
        from mwetag.features import TokenRecord
        from mwetag.templates import parse_template

        model = crf.CrfModel(crf.LabelSet(), parse_template("U00:%x[0,0]\nB\n"), {})
        sentence = [TokenRecord(columns=("w",) + ("0",) * 21)]
        assert crf.viterbi_decode(model, sentence) == ["O"]
    names = [span[0] for span in tracer.spans()]
    assert names == ["crf.build_lattice", "templates.expand_macros", "crf.decode_lattice"]
    after = _snapshot()
    assert after.keys() == before.keys()
    for name in before:
        assert after[name].keys() == before[name].keys()
        for key, value in before[name].items():
            assert after[name][key] is value, f"{name}.{key} was not restored"


def test_counting_restores_the_attribute():
    from mwetag import ga

    original = ga.evaluate_fitness
    with counting(ga, "evaluate_fitness") as count:
        assert ga.evaluate_fitness is not original
        assert count == [0]
    assert ga.evaluate_fitness is original


def test_generators_are_seeded():
    words = generators.BengaliWords(harness.PACKAGED_DATA)
    lengths = generators.short_lengths(30, seed=5)
    assert len(lengths) == 30 and all(8 <= n <= 13 for n in lengths)
    assert lengths == generators.short_lengths(30, seed=5)
    first = generators.bengali_raw(words, lengths, seed=5)
    assert first == generators.bengali_raw(words, lengths, seed=5)
    assert first != generators.bengali_raw(words, lengths, seed=6)
    assert [len(s) for s in first] == lengths
    assert generators.recovery_raw(10, 3) == generators.recovery_raw(10, 3)


def test_tail_needs_ten_samples_beyond():
    assert harness.tail([float(i) for i in range(19)]) is None
    assert harness.tail([float(i) for i in range(1, 21)]) == (50.0, 10.0)
    assert harness.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_tiny_smoke_run_reports_every_metric(workload, trace, tmp_path):
    result = harness.run(
        workload, seed=3, seconds=0.01, trace=trace, work=tmp_path, sizes=harness.TINY,
        report=lambda line: None,
    )
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in harness.spec()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        trace_file = tmp_path / "trace.jsonl"
        assert json.loads(trace_file.read_text().splitlines()[0])["workload"] == workload
        assert not list((tmp_path / "inputs").glob("*.jsonl"))
    else:
        assert not (tmp_path / "trace.jsonl").exists()


def test_benchmark_json_matches_the_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == harness.spec()
