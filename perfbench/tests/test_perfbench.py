"""Tests of the benchmark itself: inputs, span arithmetic, coverage.

Run with `python3 -m pytest perfbench/tests` from the repository root.
"""

import json
import re

import pytest

import calib
import gen
import routes
import run
import spans
import worker

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", sorted(gen.GENERATORS))
def test_inputs_follow_the_seed(workload):
    make = gen.GENERATORS[workload]
    assert make(5, 3) == make(5, 3)
    assert make(5, 3) != make(6, 3)
    assert json.loads(json.dumps(make(5, 3))) == make(5, 3)


def test_fresh_lists_never_repeat_a_deformation():
    for queries in gen.oracle_fresh_q(2, 4):
        qs = [q["q"] for q in queries]
        assert len(set(qs)) == len(qs)


def test_warm_lists_share_their_memo_keys():
    keys = [{(q["kind"], q["n"], q["m"], q["q"]) for q in queries
             if q["kind"] in ("qscalar", "oracle-qboson")}
            for queries in gen.query_warm(4, 3)]
    assert keys[0] == keys[1] == keys[2]


def test_self_time_subtracts_nested_children():
    spans_ = [("root", 0.0, 10.0, -1),
              ("a", 1.0, 4.0, 0),
              ("a.inner", 2.0, 3.0, 1),
              ("b", 5.0, 7.0, 0)]
    assert spans.self_times(spans_) == [5.0, 2.0, 1.0, 2.0]


def test_self_time_counts_overlap_and_overhang_once():
    spans_ = [("root", 0.0, 10.0, -1),
              ("x", 1.0, 5.0, 0),
              ("y", 3.0, 8.0, 0),
              ("z", 9.0, 12.0, 0)]
    assert spans.self_times(spans_)[0] == pytest.approx(2.0)


def test_summarize_totals_per_name_and_module():
    spans_ = [("symfunc.schur_eval", 0.0, 4.0, -1),
              ("algebra_core.det_rational", 1.0, 3.0, 0),
              ("symfunc.schur_eval", 5.0, 6.0, -1)]
    out = spans.summarize(spans_)
    assert out["calls"] == {"symfunc.schur_eval": 2,
                            "algebra_core.det_rational": 1}
    assert out["self_s"]["symfunc.schur_eval"] == 3.0
    assert out["self_s"]["symfunc"] == 3.0
    assert out["self_s"]["algebra_core"] == 2.0


def test_importtime_parse_separates_numpy():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | fractions",
        "import time:       300 |       1000 | qtau",
        "import time:        50 |        400 |   numpy",
        "import time:       200 |       3000 | qtau.cli",
        "import time:       900 |       1500 |   numpy",
    ])
    assert run.parse_importtime(log) == (3.6, 0.4)


def test_disagreement_compares_values_and_root_sets():
    query = {"kind": "scalar"}
    assert routes.disagreement(query, {"det": 1, "schur_sum": 1}) is None
    assert routes.disagreement(query, {"det": 1, "schur_sum": 2})
    assert routes.disagreement(query, {"schur_sum": 2}) is None
    assert routes._root_set_distance([-1 + 1e-12j, 1j],
                                     [1j, -1 - 1e-12j]) < 1e-9
    assert routes._root_set_distance([1, 1j], [1, -1j]) > 1


def test_every_declared_metric_has_a_rule():
    passes = [{"traced": False, "wall_s": 1.0, "suite_s": {}},
              {"traced": True, "wall_s": 1.1, "calls": {}, "self_s": {},
               "caches": {name: {"hit_rate": 0.0, "currsize": 0}
                          for name in spans.CACHES}}]
    plain, traced = passes[:1], passes[1:]
    for name in PER_LAYER:
        run.layer_value(name, plain, traced, (1.0, 2.0))
    e2e = run.end_to_end([{"wall_s": 1.0, "ops": 4,
                           "latencies_s": [0.1 * k for k in range(1, 21)]}],
                         [{"peak_rss_kb": 2048}], 0.5)
    assert e2e["latency_p50_ms"] == pytest.approx(1050)
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}


def test_missing_sources_exit_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", run.HERE / "tests")
    assert run.main(["--workload", "query-warm", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def _prediction_rows():
    """(metric names, workloads it should move on) from the README table."""
    text = (run.HERE / "README.md").read_text()
    table = text.split("## Layer predictions", 1)[1].split("\n## ", 1)[0]
    for line in table.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        names = re.findall(r"`([^`]+)`", cells[0])
        if len(cells) >= 3 and names:
            yield names, re.findall(r"[a-z]+-[a-z-]+", cells[2])


def _traced_pass(workload):
    sampler = calib.Sampler()
    if workload == "verify-cold":
        return worker.traced(lambda: worker.verify_pass(1, sampler), None)
    lists = gen.GENERATORS[workload](1, 1)
    return worker.traced(lambda: worker.query_pass(lists[0], sampler), None)


@pytest.fixture(scope="module")
def traced_passes():
    return {w: _traced_pass(w) for w in run.WORKLOADS}


def test_predicted_layers_are_called_on_their_workloads(traced_passes):
    rows = list(_prediction_rows())
    assert rows
    for names, workloads in rows:
        assert workloads, names
        for name in names:
            assert name in PER_LAYER, name
            prefix, _, field = name.rpartition(".")
            for w in workloads:
                assert w in run.WORKLOADS, w
                result = traced_passes[w]
                if field in ("hit_rate", "currsize"):
                    assert result["caches"][prefix]["calls"] > 0, (name, w)
                elif prefix.startswith("suites."):
                    assert prefix[len("suites."):] in result["suites"]
                elif prefix in spans.LAYERS:
                    assert result["self_s"].get(prefix, 0) > 0, (name, w)
                elif field in ("calls", "self_s"):
                    assert run._matching(result["calls"], prefix) > 0, (
                        name, w)
