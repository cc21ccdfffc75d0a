"""Self-tests of the benchmark: run with `python3 -m pytest bench -q`."""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import LAYERS, PROBES, Tracer, layer_metrics, resolve  # noqa: E402

run._import_ponodet()


def test_every_wrapper_restores_what_it_patched():
    before = {(m, a): getattr(*resolve(m, a)) for m, a, _, _ in LAYERS}
    with pytest.raises(RuntimeError):
        with Tracer(LAYERS) as tracer:
            assert not tracer.skipped
            for (m, a), original in before.items():
                assert getattr(*resolve(m, a)) is not original, f"{m}.{a} not patched"
            raise RuntimeError("leave the block by an exception")
    for (m, a), original in before.items():
        assert getattr(*resolve(m, a)) is original, f"{m}.{a} not restored"


def _tiny_cells(targets):
    from ponodet import benchmarks as B
    bench = B.crowded_benchmark()
    bench = replace(bench, n_train=12, n_test=6,
                    net=replace(bench.net, base_channels=2))
    with Tracer(targets) as tracer:
        cells = run._run_cells(bench, "label_rule", ("AMS", "AO"), iters=4)
    return run.Run(cells, tracer, 0.0, 0.0)


def test_traced_and_untraced_runs_agree():
    plain, traced = _tiny_cells(PROBES), _tiny_cells(LAYERS)
    assert all(c.error is None for c in plain.cells + traced.cells)
    assert traced.mean_map() == plain.mean_map()
    assert traced.digest() == plain.digest()
    assert run.check(plain, 4) == [] and run.check(traced, 4) == []


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    traced = _tiny_cells(LAYERS)
    per_layer = set(layer_metrics(traced.tracer)) | {"evaluation.map", "trace.overhead_s"}
    assert per_layer == {m["name"] for m in spec["per_layer"]}
    values, _ = run.end_to_end(traced)
    assert set(values) == {m["name"] for m in spec["end_to_end"]}
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
