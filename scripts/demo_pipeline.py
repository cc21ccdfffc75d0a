#!/usr/bin/env python3
"""End-to-end CLI walkthrough on a small dataset: generate scenes, cluster
anchors, train briefly, evaluate, and dump the assignment maps.

Writes everything under ./demo_out (override with --out).  Runs from any
directory: ponodet is imported from the src/ next to this script.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from ponodet.cli import run

GENSPEC = """\
n_classes = 2
class_freq = 0.5,0.5
size_ranges = 10:24,10:24
objects_per_scene = 1,3
crowding = 0.3
seed = 7
image_size = 48
"""

TRAINCFG = """\
model = toynet
input_size = 48
base_channels = 8
levels = 2
head_convs = 2
lr0 = 0.005
max_iter = 1500
batch_size = 1
mode = learned
label_rule = AMS
cls_loss = CE
seed = 7
"""


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="demo_out")
    args = ap.parse_args()
    root = args.out
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, "genspec.txt"), "w") as f:
        f.write(GENSPEC)
    with open(os.path.join(root, "train.txt"), "w") as f:
        f.write(TRAINCFG)

    steps = [
        ["gen-data", "--config", f"{root}/genspec.txt", "--out", f"{root}/train_ds", "-n", "120"],
        ["gen-data", "--config", f"{root}/genspec.txt", "--out", f"{root}/test_ds",
         "-n", "60", "--seed", "5007"],
        ["anchors", "--dataset", f"{root}/train_ds", "--out", f"{root}/anchors.txt",
         "--n-a", "3", "--seed", "7"],
        ["train", "--config", f"{root}/train.txt", "--dataset", f"{root}/train_ds",
         "--anchors", f"{root}/anchors.txt", "--out", f"{root}/run"],
        ["eval", "--checkpoint", f"{root}/run/final.bin", "--dataset", f"{root}/test_ds",
         "--out", f"{root}/eval"],
        ["assign-dump", "--dataset", f"{root}/train_ds", "--scene", "0",
         "--anchors", f"{root}/anchors.txt", "--checkpoint", f"{root}/run/final.bin",
         "--out", f"{root}/maps"],
        ["plot-weights", "--checkpoint", f"{root}/run/final.bin", "--out", f"{root}/weights"],
    ]
    for argv in steps:
        print("+ ponodet " + " ".join(argv))
        code = run(argv)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
