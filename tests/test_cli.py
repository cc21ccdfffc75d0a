import gc
import importlib.util
import json
import os
import re
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ponodet import cli as cli_mod
from ponodet import data as data_mod
from ponodet import train as train_mod
from ponodet.cli import ABLATE_KEYS, _read_config, run
from ponodet.anchors import MAX_N_A, load_anchor_set
from ponodet.assignment import GroundTruth
from ponodet.data import Scene, load_dataset, read_kv
from ponodet.model import ToyNetConfig, load_arrays, save_arrays
from ponodet.train import RunState, TrainConfig, save_run

ROOT = Path(__file__).resolve().parent.parent


GENSPEC = """\
n_classes = 2
class_freq = 0.5,0.5
size_ranges = 8:14,8:14
objects_per_scene = 1,2
crowding = 0.0
seed = 4
image_size = 32
"""

TRAINCFG = """\
model = toynet
input_size = 32
base_channels = 2
levels = 2
head_convs = 1
lr0 = 0.01
max_iter = 30
batch_size = 1
mode = learned
label_rule = AMS
cls_loss = CE
seed = 9
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "genspec.txt").write_text(GENSPEC)
    (root / "train.txt").write_text(TRAINCFG)
    assert run(["gen-data", "--config", str(root / "genspec.txt"),
                "--out", str(root / "ds"), "-n", "8"]) == 0
    assert run(["anchors", "--dataset", str(root / "ds"),
                "--out", str(root / "anchors.txt"), "--n-a", "2", "--seed", "1"]) == 0
    assert run(["train", "--config", str(root / "train.txt"),
                "--dataset", str(root / "ds"), "--anchors", str(root / "anchors.txt"),
                "--out", str(root / "run")]) == 0
    return root


class TestUsageErrors:
    def test_unknown_flag_exits_1(self, capsys):
        assert run(["gen-data", "--nonsense"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_exits_1(self):
        assert run(["frobnicate"]) == 1

    def test_runtime_failure_exits_2(self, tmp_path, capsys):
        assert run(["eval", "--checkpoint", str(tmp_path / "missing.bin"),
                    "--dataset", str(tmp_path), "--out", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err


class TestPipeline:
    def test_gen_data_outputs(self, workspace):
        scenes = load_dataset(workspace / "ds")
        assert len(scenes) == 8
        assert (workspace / "ds" / "genspec.txt").exists()

    def test_anchors_file(self, workspace):
        aset = load_anchor_set(workspace / "anchors.txt")
        assert aset.shape == (2, 2, 2)

    def test_train_artifacts(self, workspace):
        assert (workspace / "run" / "final.bin").exists()
        log = (workspace / "run" / "log.csv").read_text().strip().splitlines()
        assert log[0] == "iteration,total,loc,cls,reg,n_pos,lr"
        assert len(log) == 31

    def test_eval_reports(self, workspace, capsys):
        assert run(["eval", "--checkpoint", str(workspace / "run" / "final.bin"),
                    "--dataset", str(workspace / "ds"),
                    "--out", str(workspace / "eval")]) == 0
        out = capsys.readouterr().out
        assert "mAP" in out
        report = (workspace / "eval" / "report.csv").read_text().splitlines()
        assert report[0] == "class,ap,n_gt,n_det"
        assert report[-1].startswith("mean,")

    def test_assign_dump(self, workspace):
        assert run(["assign-dump", "--dataset", str(workspace / "ds"),
                    "--scene", "0", "--anchors", str(workspace / "anchors.txt"),
                    "--checkpoint", str(workspace / "run" / "final.bin"),
                    "--out", str(workspace / "dump")]) == 0
        files = os.listdir(workspace / "dump")
        assert "pono_c0_a0.pgm" in files
        assert "labels_c1_a1.pgm" in files
        assert "prediou_c0_a0.pgm" in files
        rows = (workspace / "dump" / "maps.csv").read_text().splitlines()
        assert rows[0] == "i,j,class,anchor,gt_index,pono,pred_iou,label"
        assert len(rows) == 1 + 4 * 4 * 2 * 2

    def test_reports_written_atomically(self, workspace, tmp_path, monkeypatch):
        written = []
        atomic_open = data_mod.atomic_open

        def recording_open(path, mode="w"):
            written.append(os.path.basename(path))
            return atomic_open(path, mode)

        monkeypatch.setattr(data_mod, "atomic_open", recording_open)
        ckpt = str(workspace / "run" / "final.bin")
        assert run(["assign-dump", "--dataset", str(workspace / "ds"),
                    "--anchors", str(workspace / "anchors.txt"), "--checkpoint", ckpt,
                    "--out", str(tmp_path / "dump")]) == 0
        assert run(["plot-weights", "--checkpoint", ckpt, "--out", str(tmp_path / "wt")]) == 0
        maps = [f"{kind}_c{c}_a{a}.pgm" for c in range(2) for a in range(2)
                for kind in ("pono", "labels", "prediou")]
        assert written == maps + ["maps.csv", "weights.csv"]
        assert sorted(os.listdir(tmp_path / "wt")) == ["weights.csv"]

    def test_plot_weights(self, workspace):
        assert run(["plot-weights", "--checkpoint", str(workspace / "run" / "final.bin"),
                    "--out", str(workspace / "wt")]) == 0
        rows = (workspace / "wt" / "weights.csv").read_text().splitlines()
        assert rows[0] == "class,anchor,w,h,area,lambda_cls,lambda_loc"
        assert len(rows) == 1 + 2 * 2 + 1  # header + grid + global


class TestRerun:
    def test_rerun_into_same_out_rewrites_log(self, workspace, tmp_path):
        cfg = tmp_path / "short.txt"
        cfg.write_text(TRAINCFG.replace("max_iter = 30", "max_iter = 4"))
        argv = ["train", "--config", str(cfg), "--dataset", str(workspace / "ds"),
                "--anchors", str(workspace / "anchors.txt"), "--out", str(tmp_path / "run")]
        assert run(argv) == 0
        first = (tmp_path / "run" / "log.csv").read_bytes()
        assert run(argv) == 0
        log = (tmp_path / "run" / "log.csv").read_bytes()
        assert log == first
        assert len(log.decode().splitlines()) == 1 + 4

    def test_rerun_clears_earlier_checkpoints(self, workspace, tmp_path):
        out = tmp_path / "run"
        for max_iter in (20, 10):
            cfg = tmp_path / f"iters_{max_iter}.txt"
            cfg.write_text(TRAINCFG.replace("max_iter = 30", f"max_iter = {max_iter}")
                           + "checkpoint_every = 10\n")
            assert run(["train", "--config", str(cfg), "--dataset", str(workspace / "ds"),
                        "--anchors", str(workspace / "anchors.txt"),
                        "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("ckpt_*")) == ["ckpt_000010.bin"]
        assert len((out / "log.csv").read_text().splitlines()) == 1 + 10

    @pytest.mark.parametrize("command,result", [("train", "final.bin"),
                                                ("ablate", "summary.csv"),
                                                ("ablate", "report.csv"),
                                                ("ablate", "report.txt")])
    def test_failed_rerun_leaves_no_earlier_result(self, workspace, tmp_path, capsys,
                                                   command, result):
        argv = [command, "--out", str(tmp_path / "run")]
        if command == "train":
            argv += ["--dataset", str(workspace / "ds"),
                     "--anchors", str(workspace / "anchors.txt")]
            text = TRAINCFG.replace("max_iter = 30", "max_iter = 4")
        else:
            text = (TRAINCFG.replace("max_iter = 30", "max_iter = 4")
                    + f"dataset = {workspace / 'ds'}\ncells = AMS:learned:CE\nn_a = 2\n")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        assert run(argv + ["--config", str(cfg)]) == 0
        assert any((tmp_path / "run").rglob(result))
        cfg.write_text(text.replace("lr0 = 0.01", "lr0 = 1e6"))
        with np.errstate(all="ignore"):
            assert run(argv + ["--config", str(cfg)]) == 2
        assert "non-finite loss" in capsys.readouterr().err
        assert not any((tmp_path / "run").rglob(result))

    def test_ablate_given_anchors_drops_earlier_clustered_ones(self, workspace, tmp_path):
        out = tmp_path / "ab"
        text = (TRAINCFG.replace("max_iter = 30", "max_iter = 2")
                + f"dataset = {workspace / 'ds'}\ncells = AMS:learned:CE\n")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text + "n_a = 3\n")
        assert run(["ablate", "--config", str(cfg), "--out", str(out)]) == 0
        clustered = (out / "anchors.txt").read_bytes()
        # anchors read from the earlier run's own file keep it
        cfg.write_text(text + f"anchors = {out / 'anchors.txt'}\n")
        assert run(["ablate", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "anchors.txt").read_bytes() == clustered
        cfg.write_text(text + f"anchors = {workspace / 'anchors.txt'}\n")
        assert run(["ablate", "--config", str(cfg), "--out", str(out)]) == 0
        assert not (out / "anchors.txt").exists()

    def test_assign_dump_without_checkpoint_drops_earlier_prediou_maps(self, workspace,
                                                                       tmp_path):
        argv = ["assign-dump", "--dataset", str(workspace / "ds"),
                "--anchors", str(workspace / "anchors.txt"), "--out", str(tmp_path / "maps")]
        assert run(argv + ["--checkpoint", str(workspace / "run" / "final.bin")]) == 0
        assert len(list((tmp_path / "maps").glob("prediou_*.pgm"))) == 4
        assert run(argv) == 0
        assert not any((tmp_path / "maps").glob("prediou_*.pgm"))

    def test_gen_data_drops_a_larger_datasets_images(self, tmp_path):
        spec, out = tmp_path / "gen.txt", tmp_path / "ds"
        spec.write_text(GENSPEC)
        for count in ("4", "2"):
            assert run(["gen-data", "--config", str(spec), "--out", str(out),
                        "-n", count]) == 0
        assert sorted(p.name for p in out.glob("*.ppm")) == ["scene_00000.ppm",
                                                              "scene_00001.ppm"]
        assert len(load_dataset(out)) == 2

    def test_assign_dump_drops_a_larger_grids_maps(self, workspace, tmp_path):
        out, three = tmp_path / "maps", tmp_path / "anchors3.txt"
        assert run(["anchors", "--dataset", str(workspace / "ds"), "--out", str(three),
                    "--n-a", "3"]) == 0
        for anchors in (three, workspace / "anchors.txt"):
            assert run(["assign-dump", "--dataset", str(workspace / "ds"),
                        "--anchors", str(anchors), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("*.pgm")) == sorted(
            f"{kind}_c{c}_a{a}.pgm" for kind in ("labels", "pono") for c in (0, 1)
            for a in (0, 1))


class TestBadInput:
    def make_dataset(self, root, objects="1,2", count=3, size=32):
        spec = root / "gen.txt"
        spec.write_text(GENSPEC.replace("objects_per_scene = 1,2",
                                        f"objects_per_scene = {objects}")
                        .replace("image_size = 32", f"image_size = {size}"))
        assert run(["gen-data", "--config", str(spec), "--out", str(root / "d"),
                    "-n", str(count)]) == 0
        return root / "d"

    def train_argv(self, workspace, dataset, anchors, out):
        return ["train", "--config", str(workspace / "train.txt"), "--dataset",
                str(dataset), "--anchors", str(anchors), "--out", str(out)]

    def test_empty_dataset_names_the_directory(self, workspace, tmp_path, capsys):
        # gen-data refuses a count below 1, so the empty dataset is written directly
        ds = tmp_path / "d"
        data_mod.save_dataset(ds, [])
        assert run(self.train_argv(workspace, ds, workspace / "anchors.txt",
                                   tmp_path / "run")) == 2
        err = capsys.readouterr().err
        assert str(ds) in err and "no scenes" in err

    def test_class_outside_anchor_file(self, workspace, tmp_path, capsys):
        anchors = tmp_path / "one_class.txt"
        anchors.write_text("0 8.0 8.0\n0 12.0 12.0\n")
        ds = workspace / "ds"
        first = next(i for i, s in enumerate(load_dataset(ds)) if 1 in s.gt.class_ids)
        assert run(self.train_argv(workspace, ds, anchors, tmp_path / "run")) == 2
        err = capsys.readouterr().err
        assert f"{ds}: scene {first} has class id 1" in err

    def test_ablate_class_outside_anchor_file_leaves_out_as_it_was(self, workspace, tmp_path,
                                                                   capsys):
        anchors = tmp_path / "one_class.txt"
        anchors.write_text("0 8.0 8.0\n0 12.0 12.0\n")
        ds = workspace / "ds"
        first = next(i for i, s in enumerate(load_dataset(ds)) if 1 in s.gt.class_ids)
        out = tmp_path / "ab"
        (out / "ams_learned_ce").mkdir(parents=True)
        for name in ("summary.csv", "anchors.txt", "ams_learned_ce/final.bin"):
            (out / name).write_text(f"an earlier run's {name}\n")
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        cfg = tmp_path / "ablate.txt"
        cfg.write_text(TRAINCFG + f"dataset = {ds}\ncells = AMS:learned:CE\nanchors = {anchors}\n")
        assert run(["ablate", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{ds}: scene {first} has class id 1, but the anchors cover classes 0..0\n" \
            in capsys.readouterr().err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_assign_dump_checks_every_scenes_class_ids(self, workspace, tmp_path, capsys):
        anchors = tmp_path / "one_class.txt"
        anchors.write_text("0 8.0 8.0\n0 12.0 12.0\n")
        ds = workspace / "ds"
        scenes = load_dataset(ds)
        first = next(i for i, s in enumerate(scenes) if 1 in s.gt.class_ids)
        only_0 = next(i for i, s in enumerate(scenes) if 1 not in s.gt.class_ids)
        assert run(["assign-dump", "--dataset", str(ds), "--scene", str(only_0),
                    "--anchors", str(anchors), "--out", str(tmp_path / "dump")]) == 2
        assert f"{ds}: scene {first} has class id 1" in capsys.readouterr().err
        assert not (tmp_path / "dump").exists()

    def test_assign_dump_image_without_a_cell_names_the_dataset(self, tmp_path, capsys):
        ds = tmp_path / "d"
        data_mod.save_dataset(ds, [Scene(np.zeros((4, 4, 3), np.uint8),
                                         GroundTruth([(2.0, 2.0, 2.0, 2.0)], [0]))])
        anchors = tmp_path / "anchors.txt"
        anchors.write_text("0 8.0 8.0\n")
        assert run(["assign-dump", "--dataset", str(ds), "--anchors", str(anchors),
                    "--out", str(tmp_path / "dump")]) == 2
        assert f"{ds}: a 4px image has no stride-8 cell" in capsys.readouterr().err
        assert not (tmp_path / "dump").exists()

    def test_assign_dump_scene_out_of_range(self, workspace, tmp_path, capsys):
        assert run(["assign-dump", "--dataset", str(workspace / "ds"), "--scene", "8",
                    "--anchors", str(workspace / "anchors.txt"),
                    "--out", str(tmp_path / "dump")]) == 2
        assert f"{workspace / 'ds'}: no scene 8 (8 scenes)" in capsys.readouterr().err

    def test_negative_class_id_names_file_and_line(self, tmp_path, capsys):
        ds = self.make_dataset(tmp_path)
        ann = ds / "annotations.txt"
        lines = ann.read_text().splitlines()
        lines[1] = "-1" + lines[1][1:]
        ann.write_text("\n".join(lines) + "\n")
        assert run(["anchors", "--dataset", str(ds), "--out",
                    str(tmp_path / "a.txt")]) == 2
        assert f"{ann}:2: negative class id -1" in capsys.readouterr().err

    @pytest.mark.parametrize("old,new,message", [
        ("n_classes = 2", "n_classes = two", "n_classes: invalid literal"),
        ("crowding = 0.0", "crowding = 1.5", "crowding must be in [0, 1]"),
        ("objects_per_scene = 1,2", "objects_per_scene = 1,65",
         "objects_per_scene: 65 objects, but a 32px image holds 64"),
        ("crowding = 0.0", "crowdng = 0.8", "unknown config key 'crowdng'"),
        ("image_size = 32", "image_size = 100000000",
         "image_size must be at most 1024, got 100000000"),
        # with no objects to draw, NaN frequencies would pass the sum check
        pytest.param("class_freq = 0.5,0.5\nsize_ranges = 8:14,8:14\nobjects_per_scene = 1,2",
                     "class_freq = nan,nan\nsize_ranges = 8:14,8:14\nobjects_per_scene = 0,0",
                     "class_freq entries must be finite and >= 0, got (nan, nan)",
                     id="class_freq-nan-no-objects"),
        ("class_freq = 0.5,0.5", "class_freq = 1.5,-0.5",
         "class_freq entries must be finite and >= 0, got (1.5, -0.5)"),
    ])
    def test_bad_genspec_names_file_and_key(self, tmp_path, capsys, old, new, message):
        spec = tmp_path / "gen.txt"
        spec.write_text(GENSPEC.replace(old, new))
        assert run(["gen-data", "--config", str(spec), "--out", str(tmp_path / "d"),
                    "-n", "2"]) == 2
        assert f"{spec}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_non_utf8_config_names_file_and_line(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "train.txt"
        cfg.write_bytes(b"max_iter = 2\n\xff = 2\n")
        assert run(["train", "--config", str(cfg), "--dataset", str(workspace / "ds"),
                    "--anchors", str(workspace / "anchors.txt"),
                    "--out", str(tmp_path / "run")]) == 2
        assert f"{cfg}:2: byte 0xff is not UTF-8" in capsys.readouterr().err

    def test_ablate_on_dataset_without_objects(self, tmp_path, capsys):
        ds = self.make_dataset(tmp_path, objects="0,0")
        cfg = tmp_path / "ablate.txt"
        cfg.write_text(f"dataset = {ds}\ncells = AMS:learned:CE\nn_a = 2\n")
        assert run(["ablate", "--config", str(cfg), "--out", str(tmp_path / "ab")]) == 2
        assert f"{ds}: no annotated objects" in capsys.readouterr().err

    def test_eval_on_dataset_without_objects(self, workspace, tmp_path, capsys):
        ds = self.make_dataset(tmp_path, objects="0,0")
        out = tmp_path / "ev"
        assert run(["eval", "--checkpoint", str(workspace / "run" / "final.bin"),
                    "--dataset", str(ds), "--out", str(out)]) == 2
        assert f"{ds}: no annotated objects" in capsys.readouterr().err
        assert not out.exists()

    def test_ablate_on_eval_dataset_without_objects(self, workspace, tmp_path, capsys,
                                                    monkeypatch):
        ds = self.make_dataset(tmp_path, objects="0,0")
        cfg = tmp_path / "ablate.txt"
        cfg.write_text(f"dataset = {workspace / 'ds'}\neval_dataset = {ds}\n"
                       "cells = AMS:learned:CE\nn_a = 2\n")
        started = []
        monkeypatch.setattr("ponodet.cli.kmeans_anchors",
                            lambda *a, **k: started.append("kmeans"))
        monkeypatch.setattr("ponodet.cli.run_training",
                            lambda *a, **k: started.append("train"))
        out = tmp_path / "ab"
        assert run(["ablate", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{ds}: no annotated objects" in capsys.readouterr().err
        assert started == [] and not out.exists()

    def make_class_gap_dataset(self, root):
        """A dataset whose class ids are 0 and 2: class 1 has no box."""
        ds = self.make_dataset(root, objects="2,2", count=4)
        ann = ds / "annotations.txt"
        lines = ann.read_text().splitlines()
        ids = [line.split()[0] for line in lines if not line.startswith("scene")]
        assert "0" in ids and "1" in ids
        ann.write_text("".join(("2" + line[1:] if line.startswith("1 ") else line) + "\n"
                               for line in lines))
        return ds

    def test_anchors_on_class_gap_names_dataset_and_class(self, tmp_path, capsys,
                                                          monkeypatch):
        ds = self.make_class_gap_dataset(tmp_path)
        started = []
        monkeypatch.setattr("ponodet.anchors._kmeans_one_class",
                            lambda *a, **k: started.append("kmeans"))
        out = tmp_path / "anchors.txt"
        assert run(["anchors", "--dataset", str(ds), "--out", str(out)]) == 2
        assert f"{ds}: class 1 has no boxes" in capsys.readouterr().err
        assert started == [] and not out.exists()

    def test_ablate_on_class_gap_names_dataset_and_class(self, tmp_path, capsys,
                                                         monkeypatch):
        ds = self.make_class_gap_dataset(tmp_path)
        cfg = tmp_path / "ablate.txt"
        cfg.write_text(f"dataset = {ds}\ncells = AMS:learned:CE\nn_a = 2\n")
        started = []
        monkeypatch.setattr("ponodet.anchors._kmeans_one_class",
                            lambda *a, **k: started.append("kmeans"))
        out = tmp_path / "ab"
        assert run(["ablate", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{ds}: class 1 has no boxes" in capsys.readouterr().err
        assert started == [] and not out.exists()

    @pytest.mark.parametrize("command", ["anchors", "ablate"])
    def test_class_gap_costs_nothing_per_class(self, tmp_path, capsys, monkeypatch,
                                               command):
        # class ids 0 and 10**12: the gap is found on the two distinct ids,
        # so no array is built for each of the 10**12 classes below the top
        ds = self.make_class_gap_dataset(tmp_path)
        ann = ds / "annotations.txt"
        ann.write_text("".join((f"{10**12}" + line[1:] if line.startswith("2 ") else line)
                               + "\n" for line in ann.read_text().splitlines()))
        n_boxes = sum(len(gt) for gt in data_mod.load_annotations(ann))
        refused, sizes = [], cli_mod.sizes_per_class

        def spy(gts, n_classes):
            if n_classes > n_boxes:
                refused.append(n_classes)
                raise RuntimeError(f"refused {n_classes} classes for {n_boxes} boxes")
            return sizes(gts, n_classes)

        monkeypatch.setattr(cli_mod, "sizes_per_class", spy)
        out = tmp_path / "out"
        if command == "anchors":
            argv = ["anchors", "--dataset", str(ds), "--out", str(out)]
        else:
            cfg = tmp_path / "ablate.txt"
            cfg.write_text(f"dataset = {ds}\ncells = AMS:learned:CE\nn_a = 2\n")
            argv = ["ablate", "--config", str(cfg), "--out", str(out)]
        assert run(argv) == 2
        assert f"{ds}: class 1 has no boxes, but the classes run to {10**12}\n" \
            in capsys.readouterr().err
        assert refused == [] and not out.exists()


    @pytest.mark.parametrize("key,cells", [("dataset", "AMS:learned:CE"),
                                           ("cells", None), ("cells", ""), ("cells", ",")])
    def test_ablate_missing_key_names_file_and_key(self, workspace, tmp_path, capsys,
                                                   key, cells):
        cfg = tmp_path / "ablate.txt"
        text = "" if key == "dataset" else f"dataset = {workspace / 'ds'}\n"
        cfg.write_text(text + ("" if cells is None else f"cells = {cells}\n"))
        assert run(["ablate", "--config", str(cfg), "--out", str(tmp_path / "ab")]) == 2
        assert f"{cfg}: config key {key!r} is missing or empty" in capsys.readouterr().err
        assert not (tmp_path / "ab").exists()

    def test_eval_class_outside_checkpoint(self, workspace, tmp_path, capsys):
        state = RunState.fresh(ToyNetConfig(input_size=32, base_channels=2, head_convs=1),
                               np.full((1, 2, 2), 9.0), 0)
        save_run(tmp_path / "one_class.bin", state)
        ds = workspace / "ds"
        first = next(i for i, s in enumerate(load_dataset(ds)) if 1 in s.gt.class_ids)
        assert run(["eval", "--checkpoint", str(tmp_path / "one_class.bin"),
                    "--dataset", str(ds), "--out", str(tmp_path / "ev")]) == 2
        assert f"{ds}: scene {first} has class id 1" in capsys.readouterr().err
        assert not (tmp_path / "ev" / "report.csv").exists()

    def test_eval_checkpoint_entry_of_wrong_shape(self, workspace, tmp_path, capsys):
        arrays = load_arrays(workspace / "run" / "final.bin")
        path = tmp_path / "reshaped.bin"
        save_arrays(path, {**arrays, "model.stem0.w": np.ones((3, 3, 3, 5))})
        assert run(["eval", "--checkpoint", str(path), "--dataset",
                    str(workspace / "ds"), "--out", str(tmp_path / "ev")]) == 2
        assert f"{path}: entry 'model.stem0.w' has shape (3, 3, 3, 5)" in capsys.readouterr().err

    def test_eval_checkpoint_sizes_checked_before_building(self, workspace, tmp_path):
        # each meta entry once sized an array past 1 GB before any entry of
        # the file was checked; the child caps its own address space and time
        arrays = load_arrays(workspace / "run" / "final.bin")
        cases = {"meta.base_channels": (4096, "entry 'model.stem0.w' has shape (3, 3, 3, 2), "
                                              "but the meta entries imply (3, 3, 3, 4096)"),
                 "meta.n_classes": (1e12, "entry 'anchors.shapes' has shape (2, 2, 2)"),
                 "meta.n_anchors": (3e8, "entry 'anchors.shapes' has shape (2, 2, 2)"),
                 "meta.head_convs": (1e9, "checkpoint has no 'model.pyr0_1.w' entry")}
        paths = []
        for key, (value, _) in cases.items():
            paths.append(tmp_path / f"{key}.bin")
            save_arrays(paths[-1], {**arrays, key: np.asarray(float(value))})
        child = ("import contextlib, io, json, resource, signal, sys\n"
                 "from ponodet.cli import run\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                 "signal.alarm(60)\n"
                 "for path in sys.argv[1:]:\n"
                 "    err = io.StringIO()\n"
                 "    with contextlib.redirect_stderr(err):\n"
                 "        code = run(['eval', '--checkpoint', path, '--dataset', 'ds',\n"
                 "                    '--out', 'ev'])\n"
                 "    print(json.dumps([code, err.getvalue()]), flush=True)\n")
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
        done = subprocess.run([sys.executable, "-c", child, *map(str, paths)], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)
        got = [json.loads(line) for line in done.stdout.splitlines()]
        assert [code for code, _ in got] == [2] * len(cases), done.stderr[-2000:]
        for (_, err), path, (_, message) in zip(got, paths, cases.values()):
            assert err.startswith(f"error: {path}: {message}"), err

    def test_run_size_checked_before_building(self, workspace, tmp_path):
        # no dataset bounds these keys, and each once asked for far more than
        # 1 GB: a kernel, the layer walk, or the batch draw; the child caps
        # its own address space and time
        ds, anchors = workspace / "ds", workspace / "anchors.txt"
        cases = [("base_channels = 2", "base_channels = 100000"),
                 ("head_convs = 1", "head_convs = 1000000000"),
                 ("batch_size = 1", "batch_size = 1000000000000")]
        argvs = []
        for i, (old, new) in enumerate(cases):
            cfg = tmp_path / f"train{i}.txt"
            cfg.write_text(TRAINCFG.replace(old, new))
            argvs.append(["train", "--config", cfg, "--dataset", ds, "--anchors", anchors,
                          "--out", f"run{i}"])
        cfg = tmp_path / "ablate.txt"
        cfg.write_text(TRAINCFG.replace(*cases[1]) + f"dataset = {ds}\nanchors = {anchors}\n"
                       "cells = AMS:learned:CE\n")
        argvs.append(["ablate", "--config", cfg, "--out", "ab"])
        child = ("import contextlib, io, json, resource, signal, sys\n"
                 "from ponodet.cli import run\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                 "signal.alarm(60)\n"
                 "for argv in json.loads(sys.argv[1]):\n"
                 "    err = io.StringIO()\n"
                 "    with contextlib.redirect_stderr(err), \\\n"
                 "            contextlib.redirect_stdout(io.StringIO()):\n"
                 "        code = run(argv)\n"
                 "    print(json.dumps([code, err.getvalue()]), flush=True)\n")
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
        argv_json = json.dumps([list(map(str, argv)) for argv in argvs])
        done = subprocess.run([sys.executable, "-c", child, argv_json], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)
        got = [json.loads(line) for line in done.stdout.splitlines()]
        assert [code for code, _ in got] == [2] * len(argvs), done.stderr[-2000:]
        for (_, err), argv, (_, new) in zip(got, argvs, cases + cases[1:2]):
            assert err.startswith(f"error: {argv[2]}: input_size = 32, "), err
            assert new in err and "batch_size = " in err and "GiB bound" in err, err
        assert not any(tmp_path.glob("run*")) and not (tmp_path / "ab").exists()

    def test_checkpoint_input_size_sizes_nothing_on_load(self, workspace, tmp_path):
        # no entry's shape depends on meta.input_size, so loading once tiled
        # a 2 TiB anchor grid at it; the child caps its own address space
        # and time
        arrays = load_arrays(workspace / "run" / "final.bin")
        big = tmp_path / "big.bin"
        save_arrays(big, {**arrays, "meta.input_size": np.asarray(float(2 ** 20))})
        ds = workspace / "ds"
        argvs = [["eval", "--checkpoint", big, "--dataset", ds, "--out", "ev"],
                 ["assign-dump", "--dataset", ds, "--anchors", workspace / "anchors.txt",
                  "--checkpoint", big, "--out", "maps"],
                 ["plot-weights", "--checkpoint", big, "--out", "weights"]]
        child = ("import contextlib, io, json, resource, signal, sys\n"
                 "from ponodet.cli import run\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                 "signal.alarm(60)\n"
                 "for argv in json.loads(sys.argv[1]):\n"
                 "    err = io.StringIO()\n"
                 "    with contextlib.redirect_stderr(err), \\\n"
                 "            contextlib.redirect_stdout(io.StringIO()):\n"
                 "        code = run(argv)\n"
                 "    print(json.dumps([code, err.getvalue()]), flush=True)\n")
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
        argv_json = json.dumps([list(map(str, argv)) for argv in argvs])
        done = subprocess.run([sys.executable, "-c", child, argv_json], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)
        got = [json.loads(line) for line in done.stdout.splitlines()]
        message = f"error: {ds}: images are 32px square, but {big} is for 1048576px images\n"
        assert got == [[2, message], [2, message], [0, ""]], done.stderr[-2000:]
        assert (tmp_path / "weights" / "weights.csv").read_text().startswith("class,anchor,")

    @pytest.mark.parametrize("command,text,key", [
        ("train", "lr = 0.5\n", "lr"),
        ("train", "dataset = elsewhere\n", "dataset"),
        ("ablate", "cells = AMS:learned:CE\neval_set = x\n", "eval_set"),
        # MOMENTUM, POLY_POWER and AO_THRESHOLD are constants and every run
        # mirrors scenes at random: none of them is a config key
        *[("train", f"{key} = 0.9\n", key)
          for key in ("momentum", "poly_power", "ao_threshold", "flip")],
        *[("ablate", f"cells = AMS:learned:CE\n{key} = 0.5\n", key)
          for key in ("momentum", "poly_power", "ao_threshold", "flip")],
    ])
    def test_unknown_config_key(self, workspace, tmp_path, capsys, command, text, key):
        cfg = tmp_path / "cfg.txt"
        argv = ["--config", str(cfg), "--out", str(tmp_path / "out")]
        if command == "train":
            argv += ["--dataset", str(workspace / "ds"),
                     "--anchors", str(workspace / "anchors.txt")]
        else:
            text = f"dataset = {workspace / 'ds'}\n" + text
        cfg.write_text(TRAINCFG + text)
        assert run([command] + argv) == 2
        assert f"{cfg}: unknown config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_documented_config_keys_accepted(self, tmp_path):
        readme = (ROOT / "README.md").read_text()
        block = re.search(r"Training \(`train --config`.*?```\n(.*?)```", readme,
                          re.S).group(1)
        spec = importlib.util.spec_from_file_location(
            "demo_pipeline", ROOT / "scripts" / "demo_pipeline.py")
        demo = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(demo)
        ablate_only = "dataset = d\neval_dataset = e\nn_a = 3\nanchors = a\ncells = x\n"
        for text, extra in ((block, ()), (demo.TRAINCFG, ()),
                            (block + ablate_only, ABLATE_KEYS)):
            cfg = tmp_path / "cfg.txt"
            cfg.write_text(text)
            assert _read_config(cfg, extra) == read_kv(cfg)
        # the block shows the defaults, but for input_size: the dataset's size
        cfg.write_text(block)
        kv = read_kv(cfg)
        assert data_mod.config_from_kv(TrainConfig, kv, cfg) == TrainConfig()
        net = data_mod.config_from_kv(ToyNetConfig, kv, cfg)
        assert replace(net, input_size=ToyNetConfig().input_size) == ToyNetConfig()

    @pytest.mark.parametrize("command", ["gen-data", "train", "ablate"])
    def test_repeated_config_key_names_both_lines(self, workspace, tmp_path, capsys,
                                                  monkeypatch, command):
        started = []
        monkeypatch.setattr("ponodet.cli.run_training", lambda *a, **k: started.append(1))
        monkeypatch.setattr(data_mod, "generate", lambda *a, **k: started.append(1))
        ds = workspace / "ds"
        text, key, first, argv = {
            "gen-data": (GENSPEC, "seed", 6, ["-n", "2"]),
            "train": (TRAINCFG, "max_iter", 7,
                      ["--dataset", str(ds), "--anchors", str(workspace / "anchors.txt")]),
            "ablate": (f"dataset = {ds}\ncells = AMS:learned:CE\n" + TRAINCFG,
                       "max_iter", 9, []),
        }[command]
        cfg, out = tmp_path / "cfg.txt", tmp_path / "out"
        cfg.write_text(text + f"{key} = 3\n")
        line = text.count("\n") + 1
        assert run([command, "--config", str(cfg), "--out", str(out), *argv]) == 2
        assert f"{cfg}:{line}: key {key!r} is given twice, first on line {first}" \
            in capsys.readouterr().err
        assert started == [] and not out.exists()

    @pytest.mark.parametrize("h,w,message", [
        (48, 48, "scene 1 image is 48x48, but scene 0 is 32x32"),
        (32, 40, "scene 1 image is 32x40, not square")])
    def test_image_size_differs_in_dataset(self, workspace, tmp_path, capsys,
                                           h, w, message):
        ds = self.make_dataset(tmp_path)
        data_mod.write_pnm(ds / "scene_00001.ppm", np.zeros((h, w, 3)))
        cfg = tmp_path / "batch2.txt"
        cfg.write_text(TRAINCFG.replace("batch_size = 1", "batch_size = 2"))
        assert run(["train", "--config", str(cfg), "--dataset", str(ds),
                    "--anchors", str(workspace / "anchors.txt"),
                    "--out", str(tmp_path / "run")]) == 2
        assert f"{ds}: {message}" in capsys.readouterr().err

    def test_eval_image_size_differs_from_checkpoint(self, workspace, tmp_path, capsys):
        ds = self.make_dataset(tmp_path, count=1, size=48)
        ckpt = workspace / "run" / "final.bin"
        assert run(["eval", "--checkpoint", str(ckpt), "--dataset", str(ds),
                    "--out", str(tmp_path / "ev")]) == 2
        assert f"{ds}: images are 48px square, but {ckpt} is for 32px images" \
            in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()

    def test_assign_dump_image_size_differs_from_checkpoint(self, workspace, tmp_path,
                                                            capsys):
        ds = self.make_dataset(tmp_path, count=1, size=48)
        ckpt = workspace / "run" / "final.bin"
        assert run(["assign-dump", "--dataset", str(ds), "--anchors",
                    str(workspace / "anchors.txt"), "--checkpoint", str(ckpt),
                    "--out", str(tmp_path / "dump")]) == 2
        assert f"{ds}: images are 48px square, but {ckpt} is for 32px images" \
            in capsys.readouterr().err
        assert not (tmp_path / "dump").exists()

    @pytest.mark.parametrize("shapes", ["0 8.0 8.0\n0 12.0 12.0\n1 8.0 8.0\n1 12.0 12.0\n",
                                        "0 8.0 8.0\n1 8.0 8.0\n"],
                             ids=["same_counts", "other_counts"])
    def test_assign_dump_anchors_differ_from_checkpoint(self, workspace, tmp_path, capsys,
                                                        shapes):
        anchors = tmp_path / "other.txt"
        anchors.write_text(shapes)
        ckpt = workspace / "run" / "final.bin"
        assert run(["assign-dump", "--dataset", str(workspace / "ds"), "--anchors",
                    str(anchors), "--checkpoint", str(ckpt),
                    "--out", str(tmp_path / "dump")]) == 2
        assert f"{ckpt}: the checkpoint's anchors are not those of {anchors}" \
            in capsys.readouterr().err
        assert not (tmp_path / "dump").exists()

    def test_ablate_eval_image_size_differs(self, workspace, tmp_path, capsys,
                                            monkeypatch):
        ds = self.make_dataset(tmp_path, count=1, size=48)
        cfg = tmp_path / "ablate.txt"
        cfg.write_text(f"dataset = {workspace / 'ds'}\neval_dataset = {ds}\n"
                       "cells = AMS:learned:CE\nn_a = 2\n")
        started = []
        monkeypatch.setattr("ponodet.cli.run_training",
                            lambda *a, **k: started.append("train"))
        assert run(["ablate", "--config", str(cfg), "--out", str(tmp_path / "ab")]) == 2
        assert f"{ds}: images are 48px square, but {cfg} is for 32px images" \
            in capsys.readouterr().err
        assert started == []

    def test_input_size_differs_from_dataset(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "in48.txt"
        cfg.write_text(TRAINCFG.replace("input_size = 32", "input_size = 48"))
        assert run(["train", "--config", str(cfg), "--dataset", str(workspace / "ds"),
                    "--anchors", str(workspace / "anchors.txt"),
                    "--out", str(tmp_path / "run")]) == 2
        assert f"{workspace / 'ds'}: images are 32px square, but {cfg} is for 48px images" \
            in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_ablate_train_image_size_differs(self, workspace, tmp_path, capsys,
                                             monkeypatch):
        ds = self.make_dataset(tmp_path, count=1, size=48)
        cfg = tmp_path / "ablate.txt"
        cfg.write_text(f"dataset = {ds}\ninput_size = 32\ncells = AMS:learned:CE\nn_a = 2\n")
        started = []
        monkeypatch.setattr("ponodet.cli.kmeans_anchors",
                            lambda *a, **k: started.append("cluster"))
        assert run(["ablate", "--config", str(cfg), "--out", str(tmp_path / "ab")]) == 2
        assert f"{ds}: images are 48px square, but {cfg} is for 32px images" \
            in capsys.readouterr().err
        assert started == [] and not (tmp_path / "ab").exists()

    def test_scene_header_out_of_order(self, workspace, tmp_path, capsys):
        # gen-data numbers the headers 0, 1, 2; a renumbered one would pair
        # its annotations with another scene's image
        ds = self.make_dataset(tmp_path)
        ann = ds / "annotations.txt"
        lines = ann.read_text().splitlines()
        line = lines.index("scene 1") + 1
        lines[line - 1] = "scene 7"
        ann.write_text("\n".join(lines) + "\n")
        assert run(self.train_argv(workspace, ds, workspace / "anchors.txt",
                                   tmp_path / "run")) == 2
        assert f"{ann}:{line}: expected 'scene 1', got 'scene 7'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_non_finite_loss_exits_2(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "hot.txt"
        cfg.write_text(TRAINCFG.replace("lr0 = 0.01", "lr0 = 1e6"))
        with np.errstate(all="ignore"):
            assert run(["train", "--config", str(cfg), "--dataset", str(workspace / "ds"),
                        "--anchors", str(workspace / "anchors.txt"),
                        "--out", str(tmp_path / "run")]) == 2
        assert re.search(r"non-finite loss .* at iteration \d+", capsys.readouterr().err)


class TestBadConfigValue:
    """A config value that does not parse or is out of range exits 2,
    naming the file and the key, before anything is trained."""

    @pytest.fixture
    def started(self, monkeypatch):
        calls = []
        monkeypatch.setattr("ponodet.cli.run_training",
                            lambda *a, **k: calls.append("train"))
        return calls

    @pytest.mark.parametrize("old,new,message", [
        ("model = toynet", "model = tabular", "model = tabular, but the only model is toynet"),
        ("model = toynet", "model = resnet", "model = resnet, but the only model is toynet"),
        ("lr0 = 0.01", "lr0 = abc", "lr0: could not convert string to float: 'abc'"),
        ("lr0 = 0.01", "lr0 = inf", "lr0 must be finite and >= 0"),
        ("base_channels = 2", "base_channels = abc", "base_channels: invalid literal"),
        ("base_channels = 2", "base_channels = 0", "base_channels must be >= 1"),
        ("base_channels = 2", f"base_channels = {'9' * 20}",
         f"input_size = 32, base_channels = {'9' * 20}, levels = 2, head_convs = 1 and "
         "batch_size = 1 ask a run for at least 2.7e+35 GiB"),
        ("levels = 2", "levels = 1", "levels must be >= 2"),
        ("levels = 2", "levels = 3000", "levels = 3000 is too many for a 32px input\n"),
        ("levels = 2", f"levels = {10**11}",
         f"levels = {10**11} is too many for a 32px input\n"),
        ("head_convs = 1", "head_convs = -1", "head_convs must be >= 0"),
        ("batch_size = 1", "batch_size = 0", "batch_size must be >= 1"),
        ("seed = 9", "seed = 9\nflip = maybe", "unknown config key 'flip'"),
        ("seed = 9", "seed = 9\ncheckpoint_every = -1", "checkpoint_every must be >= 0"),
        ("seed = 9", "seed = -1", "seed must be >= 0"),
    ])
    def test_train(self, workspace, tmp_path, capsys, started, old, new, message):
        cfg = tmp_path / "train.txt"
        cfg.write_text(TRAINCFG.replace(old, new))
        assert run(["train", "--config", str(cfg), "--dataset", str(workspace / "ds"),
                    "--anchors", str(workspace / "anchors.txt"),
                    "--out", str(tmp_path / "run")]) == 2
        assert f"{cfg}: {message}" in capsys.readouterr().err
        assert started == [] and not (tmp_path / "run").exists()

    @pytest.mark.parametrize("text,message", [
        ("lr0 = abc\n", "lr0: could not convert string to float: 'abc'"),
        ("levels = 1\n", "levels must be >= 2"),
        ("n_a = x\n", "n_a must be a whole number >= 1, got 'x'"),
        ("n_a = 0\n", "n_a must be a whole number >= 1, got '0'"),
        (f"n_a = {MAX_N_A + 1}\n", f"n_a must be at most {MAX_N_A}, got '{MAX_N_A + 1}'"),
    ])
    def test_ablate(self, workspace, tmp_path, capsys, started, text, message):
        cfg = tmp_path / "ablate.txt"
        cfg.write_text(f"dataset = {workspace / 'ds'}\n"
                       f"cells = AMS:learned:CE,AO:unit:FL\n{text}")
        assert run(["ablate", "--config", str(cfg), "--out", str(tmp_path / "ab")]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}: {message}" in err and "ablation cell" not in err
        assert started == []


class TestFlagRanges:
    """A flag value out of its range exits 1 naming the flag, before
    anything is loaded, trained or written."""

    @pytest.fixture
    def started(self, monkeypatch):
        calls = []
        for name in ("run_training", "load_run", "kmeans_anchors", "_read_config",
                     "load_anchor_set"):
            monkeypatch.setattr(f"ponodet.cli.{name}",
                                lambda *a, name=name, **k: calls.append(name))
        for name in ("load_dataset", "load_annotations", "generate", "read_config"):
            monkeypatch.setattr(data_mod, name, lambda *a, name=name, **k: calls.append(name))
        return calls

    @pytest.mark.parametrize("flag,value,message", [
        ("--score-min", "nan", "must be a number in [0, 1), got 'nan'"),
        ("--score-min", "1", "must be a number in [0, 1), got '1'"),
        ("--score-min", "-0.1", "must be a number in [0, 1), got '-0.1'"),
        ("--iou-nms", "2", "must be a number in (0, 1], got '2'"),
        ("--iou-nms", "0", "must be a number in (0, 1], got '0'"),
        ("--iou-nms", "inf", "must be a number in (0, 1], got 'inf'")])
    @pytest.mark.parametrize("command", ["ablate", "eval"])
    def test_eval_flags(self, workspace, tmp_path, capsys, started, command, flag,
                        value, message):
        out = tmp_path / "out"
        if command == "ablate":
            cfg = TestAblate().make_config(tmp_path, workspace / "ds")
            argv = ["ablate", "--config", str(cfg)]
        else:
            argv = ["eval", "--checkpoint", str(workspace / "run" / "final.bin"),
                    "--dataset", str(workspace / "ds")]
        assert run(argv + ["--out", str(out), flag, value]) == 1
        assert f"argument {flag}: {message}" in capsys.readouterr().err
        assert started == [] and not out.exists()

    @pytest.mark.parametrize("value", ["0", "-3", "2.5"])
    def test_gen_data_count(self, workspace, tmp_path, capsys, started, value):
        out = tmp_path / "ds"
        assert run(["gen-data", "--config", str(workspace / "genspec.txt"),
                    "--out", str(out), "-n", value]) == 1
        assert f"argument --count/-n: must be a whole number >= 1, got {value!r}" \
            in capsys.readouterr().err
        assert started == [] and not out.exists()

    @pytest.mark.parametrize("command,flag,value,message", [
        ("anchors", "--n-a", "0", "must be a whole number >= 1, got '0'"),
        ("anchors", "--n-a", "1.5", "must be a whole number >= 1, got '1.5'"),
        ("anchors", "--n-a", f"{MAX_N_A + 1}", f"must be at most {MAX_N_A}, got '{MAX_N_A + 1}'"),
        ("anchors", "--seed", "-1", "must be a whole number >= 0, got '-1'"),
        ("anchors", "--seed", "x", "must be a whole number >= 0, got 'x'"),
        ("gen-data", "--seed", "-1", "must be a whole number >= 0, got '-1'"),
        ("train", "--seed", "-1", "must be a whole number >= 0, got '-1'"),
        ("assign-dump", "--scene", "-1", "must be a whole number >= 0, got '-1'")])
    def test_setup_flags(self, workspace, tmp_path, capsys, started, command, flag,
                         value, message):
        inputs = {"anchors": ["--dataset", str(workspace / "ds")],
                  "gen-data": ["--config", str(workspace / "genspec.txt"), "-n", "2"],
                  "train": ["--config", str(workspace / "train.txt"),
                            "--dataset", str(workspace / "ds"),
                            "--anchors", str(workspace / "anchors.txt")],
                  "assign-dump": ["--dataset", str(workspace / "ds"),
                                  "--anchors", str(workspace / "anchors.txt")]}
        out = tmp_path / "out"
        assert run([command, *inputs[command], "--out", str(out), flag, value]) == 1
        assert f"argument {flag}: {message}" in capsys.readouterr().err
        assert started == [] and not out.exists()


def artifact_script():
    """scripts/artifact_digests.py as a module."""
    spec = importlib.util.spec_from_file_location(
        "artifact_digests", ROOT / "scripts" / "artifact_digests.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def read_manifest(name: str) -> list[str]:
    """The lines of the byte manifest `tests/<name>` below its `#` header,
    which must name this process's numpy version and BLAS: the bytes depend
    on both, so a manifest made on another build fails, never skips."""
    lines = (ROOT / "tests" / name).read_text().splitlines()
    made_on = [line for line in lines if line.startswith("#")]
    here = artifact_script().build()
    assert made_on == here, f"{name} was made on {made_on}, but this build is {here}"
    return [line for line in lines if not line.startswith("#")]


class TestArtifactDigests:
    def test_every_artifact_matches_the_manifest(self, tmp_path):
        """The flow writes exactly the files and bytes of the manifest;
        `python3 scripts/artifact_digests.py > tests/artifact_digests.txt`
        rewrites it after a change that alters bytes on purpose."""
        script = artifact_script()
        want = dict(line.split(" ")[::-1] for line in read_manifest("artifact_digests.txt"))
        got = dict(line.split(" ")[::-1] for line in script.digests(script.run_flow(tmp_path)))
        differ = [rel for rel in sorted(want.keys() | got.keys())
                  if want.get(rel) != got.get(rel)]
        assert not differ, (f"{len(differ)} artifacts differ from the manifest, first "
                            f"{differ[0]}: manifest {want.get(differ[0])}, "
                            f"flow {got.get(differ[0])}")


class TestDemo:
    def test_demo_runs_from_another_directory(self, tmp_path):
        # the script finds ponodet in the src/ beside it, not on a path
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = subprocess.run([sys.executable, str(ROOT / "scripts" / "demo_pipeline.py"),
                               "--out", "demo"], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr[-2000:]
        out = tmp_path / "demo"
        for rel in ("train_ds/annotations.txt", "test_ds/annotations.txt", "anchors.txt",
                    "run/log.csv", "run/final.bin", "eval/report.csv", "maps/maps.csv",
                    "maps/prediou_c1_a2.pgm", "weights/weights.csv"):
            assert (out / rel).is_file(), rel


def test_gen_data_and_ablate_leave_numpy_ma_unimported(tmp_path):
    # np.unique's first call imports numpy.ma (about 1.3 MB and 10-17 ms),
    # so k-means set-up, scene assignment and NMS count ids without it
    (tmp_path / "gen.txt").write_text(GENSPEC.replace("crowding = 0.0", "crowding = 0.5"))
    (tmp_path / "ablate.txt").write_text(
        TRAINCFG.replace("max_iter = 30", "max_iter = 2")
        + "dataset = ds\neval_dataset = test\ncells = AMS:learned:CE\nn_a = 2\n")
    child = ("import sys\n"
             "import numpy as np\n"
             "from ponodet.cli import run\n"
             "codes = [run(['gen-data', '--config', 'gen.txt', '--out', 'ds', '-n', '4']),\n"
             "         run(['gen-data', '--config', 'gen.txt', '--out', 'test', '-n', '2',\n"
             "              '--seed', '7']),\n"
             "         run(['ablate', '--config', 'ablate.txt', '--out', 'ab'])]\n"
             "ma = ['numpy.ma' in sys.modules]\n"
             "np.unique(np.zeros(1))\n"
             "print(codes, ma + ['numpy.ma' in sys.modules])\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", child], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    # the last flag shows np.unique still imports numpy.ma in this numpy
    assert done.stdout.splitlines()[-1] == "[0, 0, 0] [False, True]", done.stderr[-2000:]


class TestAblate:
    def make_config(self, root, ds):
        cfg = TRAINCFG + f"dataset = {ds}\ncells = AMS:learned:CE,PONO:unit:CE\nn_a = 2\nmax_iter = 20\n"
        path = root / "ablate.txt"
        path.write_text(cfg.replace("max_iter = 30\n", ""))
        return path

    def test_matrix_and_summary(self, workspace, tmp_path):
        cfg = self.make_config(tmp_path, workspace / "ds")
        out = tmp_path / "ab"
        assert run(["ablate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "summary.csv").read_text().splitlines()
        assert rows[0].startswith("cell,label_rule,mode,cls_loss,map")
        assert len(rows) == 3
        assert (out / "ams_learned_ce" / "report.csv").exists()
        assert (out / "pono_unit_ce" / "log.csv").exists()

    def test_finished_cell_state_freed_before_the_next_is_built(self, workspace, tmp_path,
                                                                 monkeypatch):
        # a cell's state holds its trained vectors and their momentum and
        # gradient; none may outlive its cell while the next cell trains
        cfg = self.make_config(tmp_path, workspace / "ds")
        cfg.write_text(cfg.read_text().replace("PONO:unit:CE", "PONO:unit:CE,AO:unit:FL")
                       .replace("max_iter = 20", "max_iter = 2"))
        built, alive = [], []
        fresh = RunState.fresh.__func__

        def tracked(cls, *args):
            gc.collect()
            alive.append([ref() is not None for ref in built])
            state = fresh(cls, *args)
            built.append(weakref.ref(state))
            return state

        monkeypatch.setattr(RunState, "fresh", classmethod(tracked))
        assert run(["ablate", "--config", str(cfg), "--out", str(tmp_path / "ab")]) == 0
        assert alive == [[], [False], [False, False]]

    def test_datasets_loaded_once_per_call(self, workspace, tmp_path, monkeypatch):
        test_ds = TestBadInput().make_dataset(tmp_path)
        cfg = self.make_config(tmp_path, workspace / "ds")
        cfg.write_text(cfg.read_text().replace("PONO:unit:CE", "PONO:unit:CE,AO:unit:FL")
                       .replace("max_iter = 20", "max_iter = 3")
                       + f"eval_dataset = {test_ds}\n")
        loaded = []
        load = data_mod.load_dataset

        def counting_load(path):
            loaded.append(str(path))
            return load(path)

        monkeypatch.setattr(data_mod, "load_dataset", counting_load)
        assert run(["ablate", "--config", str(cfg), "--out", str(tmp_path / "ab")]) == 0
        assert sorted(loaded) == sorted([str(workspace / "ds"), str(test_ds)])

    def test_annotations_parsed_once_per_call(self, workspace, tmp_path, monkeypatch):
        cfg = self.make_config(tmp_path, workspace / "ds")
        parsed = []
        parse = data_mod.load_annotations
        monkeypatch.setattr(data_mod, "load_annotations",
                            lambda path: parsed.append(str(path)) or parse(path))
        assert run(["ablate", "--config", str(cfg), "--out", str(tmp_path / "ab")]) == 0
        assert parsed == [str(workspace / "ds" / "annotations.txt")]

    @pytest.mark.parametrize("bad,reason", [
        ("AMS:bogus:CE", "mode must be one of"),
        ("NOPE:learned:CE", "label_rule must be one of"),
        ("AMS:learned:hinge", "cls_loss must be one of"),
        ("AMS:learned", "expected label:mode:loss"),
        ("AMS:learned:CE:FL", "expected label:mode:loss")])
    def test_bad_cell_stops_before_anything_runs(self, workspace, tmp_path, capsys,
                                                 monkeypatch, bad, reason):
        cfg = self.make_config(tmp_path, workspace / "ds")
        cfg.write_text(cfg.read_text().replace("PONO:unit:CE", bad))
        started = []
        monkeypatch.setattr("ponodet.cli.kmeans_anchors",
                            lambda *a, **k: started.append("kmeans"))
        monkeypatch.setattr("ponodet.cli.run_training",
                            lambda *a, **k: started.append("train"))
        out = tmp_path / "ab"
        assert run(["ablate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}: bad ablation cell {bad!r}" in err and reason in err
        assert started == [] and not out.exists()

    def test_duplicate_cell_stops_before_anything_runs(self, workspace, tmp_path,
                                                       capsys, monkeypatch):
        cfg = self.make_config(tmp_path, workspace / "ds")
        cfg.write_text(cfg.read_text().replace("PONO:unit:CE", "AMS:learned:CE"))
        started = []
        monkeypatch.setattr("ponodet.cli.kmeans_anchors",
                            lambda *a, **k: started.append("kmeans"))
        monkeypatch.setattr("ponodet.cli.run_training",
                            lambda *a, **k: started.append("train"))
        out = tmp_path / "ab"
        assert run(["ablate", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{cfg}: ablation cell 'AMS:learned:CE' appears more than once" \
            in capsys.readouterr().err
        assert started == [] and not out.exists()

    def test_net_settings_checked_before_clustering(self, workspace, tmp_path, capsys,
                                                    monkeypatch):
        cfg = self.make_config(tmp_path, workspace / "ds")
        cfg.write_text(cfg.read_text().replace("levels = 2", "levels = 1"))
        started = []
        monkeypatch.setattr("ponodet.cli.kmeans_anchors",
                            lambda *a, **k: started.append("kmeans"))
        out = tmp_path / "ab"
        assert run(["ablate", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{cfg}: levels must be >= 2" in capsys.readouterr().err
        assert started == [] and not (out / "anchors.txt").exists()

    @pytest.mark.parametrize("order", ["n_a first", "anchors first"])
    def test_n_a_and_anchors_exclude_each_other(self, workspace, tmp_path, capsys,
                                                monkeypatch, order):
        keys = [f"anchors = {workspace / 'anchors.txt'}\n", "n_a = 2\n"]
        cfg = tmp_path / "ablate.txt"
        cfg.write_text(TRAINCFG + f"dataset = {workspace / 'ds'}\ncells = AMS:learned:CE\n"
                       + "".join(keys[::-1] if order == "n_a first" else keys))
        started = []
        monkeypatch.setattr(data_mod, "load_dataset", lambda *a: started.append("scenes"))
        monkeypatch.setattr(cli_mod, "load_anchor_set", lambda *a: started.append("anchors"))
        out = tmp_path / "ab"
        assert run(["ablate", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{cfg}: config keys 'n_a' and 'anchors' exclude each other" \
            in capsys.readouterr().err
        assert started == [] and not out.exists()

    def test_empty_anchors_is_absent_beside_n_a(self, workspace, tmp_path, monkeypatch):
        cfg = self.make_config(tmp_path, workspace / "ds")
        cfg.write_text(cfg.read_text().replace("max_iter = 20", "max_iter = 2")
                       + "anchors =\n")
        clustered, cluster = [], cli_mod.kmeans_anchors
        monkeypatch.setattr(cli_mod, "kmeans_anchors",
                            lambda *a, **k: clustered.append(k["n_a"]) or cluster(*a, **k))
        assert run(["ablate", "--config", str(cfg), "--out", str(tmp_path / "ab")]) == 0
        assert clustered == [2] and (tmp_path / "ab" / "anchors.txt").exists()

    def test_later_cells_reuse_the_first_cells_assignments(self, workspace, tmp_path,
                                                           monkeypatch):
        cfg = self.make_config(tmp_path, workspace / "ds")
        assigned, per_cell = [], []
        assign, train = train_mod.assign_ao, cli_mod.run_training
        monkeypatch.setattr(train_mod, "assign_ao",
                            lambda grid, gt: assigned.append(gt) or assign(grid, gt))

        def counting_train(*args, **kwargs):
            before = len(assigned)
            reports = train(*args, **kwargs)
            per_cell.append(len(assigned) - before)
            return reports

        monkeypatch.setattr(cli_mod, "run_training", counting_train)
        assert run(["ablate", "--config", str(cfg), "--out", str(tmp_path / "ab")]) == 0
        assert len(per_cell) == 2 and per_cell[0] > 0 and per_cell[1] == 0

    def test_empty_eval_dataset_scores_on_training_set(self, workspace, tmp_path,
                                                       monkeypatch):
        cfg = self.make_config(tmp_path, workspace / "ds")
        cfg.write_text(cfg.read_text().replace("max_iter = 20", "max_iter = 3"))
        empty = tmp_path / "empty_eval.txt"
        empty.write_text(cfg.read_text() + "eval_dataset =\n")
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")  # holds no annotations.txt
        assert run(["ablate", "--config", str(cfg), "--out", str(tmp_path / "ab")]) == 0
        assert run(["ablate", "--config", str(empty), "--out", str(tmp_path / "ab_e")]) == 0
        assert (tmp_path / "ab_e" / "summary.csv").read_bytes() == \
            (tmp_path / "ab" / "summary.csv").read_bytes()

    def test_rerun_byte_identical(self, workspace, tmp_path):
        cfg = self.make_config(tmp_path, workspace / "ds")
        out_a, out_b = tmp_path / "ab_a", tmp_path / "ab_b"
        assert run(["ablate", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert run(["ablate", "--config", str(cfg), "--out", str(out_b)]) == 0
        for rel in ("summary.csv", "anchors.txt",
                    "ams_learned_ce/log.csv", "ams_learned_ce/report.csv",
                    "ams_learned_ce/final.bin",
                    "pono_unit_ce/log.csv", "pono_unit_ce/report.csv"):
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel
