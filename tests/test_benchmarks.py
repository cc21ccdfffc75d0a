"""One setup per `Benchmark` object: the cells of a benchmark share its
scenes, anchors and scene bank, and give the bytes each gives alone."""

from dataclasses import replace
from pathlib import Path

import pytest

from ponodet import benchmarks as B
from ponodet import train as train_mod

from test_train import drawn_variants, filled_keys

ROOT = Path(__file__).resolve().parent.parent
RULES = ("AMS", "PONO", "AO")
ITERS = 4


def tiny_crowded() -> B.Benchmark:
    bench = B.crowded_benchmark()
    return replace(bench, n_train=12, n_test=6,
                   net=replace(bench.net, base_channels=2))


@pytest.fixture
def counted(monkeypatch):
    """Calls of k-means and the generator as `ponodet.benchmarks` makes them."""
    calls = {"kmeans_anchors": 0, "generate": 0}
    for name in calls:
        fn = getattr(B, name)

        def counting(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(B, name, counting)
    return calls


def log_rows(cell) -> list[str]:
    """The cell's `log.csv` rows, as `run_training` would write them."""
    cfg = replace(tiny_crowded().train_cfg, max_iter=ITERS)
    return [r.csv_row(i, train_mod.lr_at(i, cfg)) for i, r in enumerate(cell["reports"])]


def test_shared_setup_cells_match_cells_run_alone(counted):
    bench = tiny_crowded()
    shared = {rule: log_rows(B.run_cell(bench, label_rule=rule, max_iter=ITERS))
              for rule in RULES}
    # one k-means, and one generator call per split
    assert counted == {"kmeans_anchors": 1, "generate": 2}
    for rule in RULES:
        alone = log_rows(B.run_cell(tiny_crowded(), label_rule=rule, max_iter=ITERS))
        assert len(alone) == ITERS and shared[rule] == alone, rule
    assert counted == {"kmeans_anchors": 4, "generate": 8}


def test_replaced_benchmark_builds_its_own_setup(counted):
    bench = tiny_crowded()
    assert bench.setup is bench.setup
    other = replace(bench)
    assert other == bench and other.setup is not bench.setup
    assert counted == {"kmeans_anchors": 2, "generate": 4}


def test_cells_share_the_scene_bank(monkeypatch):
    bench = tiny_crowded()
    calls = []
    assign = train_mod.assign_ao
    monkeypatch.setattr(train_mod, "assign_ao",
                        lambda grid, gt: calls.append(gt) or assign(grid, gt))
    results = [B.run_cell(bench, label_rule=rule, max_iter=ITERS) for rule in RULES]
    cfg = replace(bench.train_cfg, max_iter=ITERS)
    assert len(calls) == bench.setup.bank.filled.sum()
    assert filled_keys(bench.setup.bank) == drawn_variants(cfg, bench.n_train)
    assert all(r["state"].shapes is bench.setup.bank.shapes for r in results)


class TestBenchContract:
    """The benchmark harness (bench/) counts the work it sees through the
    names its tracer wraps; a refactor that routes k-means or the scene
    assignment around those names would make it report zeros."""

    @pytest.fixture
    def tracer_module(self, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        import tracer
        return tracer

    def test_one_kmeans_and_one_miss_per_variant(self, tracer_module):
        bench = tiny_crowded()
        with tracer_module.Tracer(tracer_module.LAYERS) as tracer:
            assert not tracer.skipped
            for rule in ("AMS", "AO"):
                B.run_cell(bench, label_rule=rule, max_iter=ITERS)
        figures = tracer_module.layer_metrics(tracer)
        cfg = replace(bench.train_cfg, max_iter=ITERS)
        assert figures["anchors.kmeans_calls"][0] == 1
        assert figures["data.generate_s"][0] > 0
        assert figures["assignment.scene_cache_misses"][0] \
            == len(drawn_variants(cfg, bench.n_train)) == bench.setup.bank.filled.sum()
        assert filled_keys(bench.setup.bank) == drawn_variants(cfg, bench.n_train)
        lookups = 2 * ITERS * bench.train_cfg.batch_size
        assert figures["assignment.scene_cache_hit_ratio"][0] == pytest.approx(
            1 - len(drawn_variants(cfg, bench.n_train)) / lookups)

    def test_cli_ablate_spans(self, tracer_module, tmp_path):
        # the path the `ablate_cli` workload runs: gen-data, then one
        # ablate with checkpoints through `cli.run`
        from collections import Counter
        from ponodet.cli import run
        from test_cli import GENSPEC
        cells, iters, every, n_scenes = ("AMS:learned:CE", "AO:retina_norm:FL"), 4, 2, 6
        cfg = train_mod.TrainConfig(max_iter=iters, batch_size=2, seed=9,
                                    checkpoint_every=every)
        (tmp_path / "genspec.txt").write_text(GENSPEC)
        (tmp_path / "ablate.txt").write_text(
            "base_channels = 2\nlevels = 2\nhead_convs = 1\n"
            f"max_iter = {iters}\nbatch_size = {cfg.batch_size}\nseed = {cfg.seed}\n"
            f"checkpoint_every = {every}\nn_a = 2\ndataset = {tmp_path / 'ds'}\n"
            f"cells = {','.join(cells)}\n")
        with tracer_module.Tracer(tracer_module.LAYERS) as tracer:
            assert not tracer.skipped
            assert run(["gen-data", "--config", str(tmp_path / "genspec.txt"),
                        "--out", str(tmp_path / "ds"), "-n", str(n_scenes)]) == 0
            assert run(["ablate", "--config", str(tmp_path / "ablate.txt"),
                        "--out", str(tmp_path / "ab")]) == 0
        counts = Counter(span.name for span in tracer.spans)
        assert counts["train.run_training"] == len(cells)
        assert [s.info["scenes"] for s in tracer.named("train.iteration")] \
            == [cfg.batch_size] * (len(cells) * iters)
        assert counts["evaluation.dataset_detections"] == len(cells)
        assert counts["evaluation.map_eval"] == len(cells)
        assert counts["anchors.kmeans"] == 1
        assert counts["train.save_run"] == len(cells) * (iters // every + 1)
        figures = tracer_module.layer_metrics(tracer)
        assert figures["assignment.scene_cache_misses"][0] \
            == len(drawn_variants(cfg, n_scenes))
