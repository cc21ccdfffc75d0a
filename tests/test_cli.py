import os

import numpy as np
import pytest

from ponodet.cli import run
from ponodet.anchors import load_anchor_set
from ponodet.data import load_dataset, read_kv


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
        assert aset.n_classes == 2 and aset.n_anchors == 2

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


class TestBadInput:
    def make_dataset(self, root, objects="1,2", count=3):
        spec = root / "gen.txt"
        spec.write_text(GENSPEC.replace("objects_per_scene = 1,2",
                                        f"objects_per_scene = {objects}"))
        assert run(["gen-data", "--config", str(spec), "--out", str(root / "d"),
                    "-n", str(count)]) == 0
        return root / "d"

    def train_argv(self, workspace, dataset, anchors, out):
        return ["train", "--config", str(workspace / "train.txt"), "--dataset",
                str(dataset), "--anchors", str(anchors), "--out", str(out)]

    def test_empty_dataset_names_the_directory(self, workspace, tmp_path, capsys):
        ds = self.make_dataset(tmp_path, count=0)
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

    def test_ablate_on_dataset_without_objects(self, tmp_path, capsys):
        ds = self.make_dataset(tmp_path, objects="0,0")
        cfg = tmp_path / "ablate.txt"
        cfg.write_text(f"dataset = {ds}\ncells = AMS:learned:CE\nn_a = 2\n")
        assert run(["ablate", "--config", str(cfg), "--out", str(tmp_path / "ab")]) == 2
        assert f"{ds}: no annotated objects" in capsys.readouterr().err


class TestTabularPath:
    def test_tabular_train_and_eval(self, workspace, tmp_path):
        cfg = tmp_path / "tab.txt"
        cfg.write_text("model = tabular\nmax_iter = 25\nlr0 = 0.05\n"
                       "mode = unit\nflip = false\nseed = 2\n")
        out = tmp_path / "tabrun"
        assert run(["train", "--config", str(cfg), "--dataset", str(workspace / "ds"),
                    "--anchors", str(workspace / "anchors.txt"),
                    "--out", str(out)]) == 0
        assert run(["eval", "--checkpoint", str(out / "final.bin"),
                    "--dataset", str(workspace / "ds"),
                    "--out", str(tmp_path / "tabeval")]) == 0


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
