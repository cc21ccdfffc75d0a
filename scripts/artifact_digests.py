#!/usr/bin/env python3
"""Digest every artifact of a small end-to-end CLI flow, to prove that a
refactor changed no output byte.

The flow is the ablation of acceptance criterion c10, extended: gen-data
(a train and an eval set), a 3-cell ablate with checkpoints, eval of one
cell's final checkpoint, assign-dump without and with a checkpoint,
plot-weights, a learned-mode train at batch size 2 with checkpoints
(stacked assignments and a batch-2 optimizer step), the anchors command,
an ablate that reads that anchor file, a train with --seed, and gen-data at
the pinned crowded generator's settings with the anchors command on that
set (crowded scenes and 2 anchors per class).  It prints two `#` lines
naming the numpy version and the BLAS build, on which the bytes depend,
then one `sha256 relpath` line per file written, sorted by path.  Run it
from the root of a source checkout; ponodet is imported from that
checkout's src/ directory, so one command compares two checkouts:

    diff <(cd ../parent && python3 "$OLDPWD/scripts/artifact_digests.py") \\
         <(python3 scripts/artifact_digests.py)

Its output is the manifest tests/artifact_digests.txt, which a tier-1
test compares with a fresh run of the flow.  A change that alters output
bytes on purpose rewrites the manifest by rerunning the script:

    python3 scripts/artifact_digests.py > tests/artifact_digests.txt
"""

import contextlib
import hashlib
import os
import sys
import tempfile
from pathlib import Path

GENSPEC = """\
n_classes = 2
class_freq = 0.5,0.5
size_ranges = 8:14,8:14
objects_per_scene = 1,2
crowding = 0.5
seed = 12
image_size = 32
"""

GENSPEC_CROWDED = """\
n_classes = 2
class_freq = 0.5,0.5
size_ranges = 10:24,10:24
objects_per_scene = 2,4
crowding = 0.8
seed = 303
image_size = 48
"""

ABLATE = """\
model = toynet
input_size = 32
base_channels = 2
levels = 2
head_convs = 1
lr0 = 0.01
max_iter = 25
batch_size = 1
seed = 3
n_a = 2
checkpoint_every = 10
dataset = {root}/ds
eval_dataset = {root}/eval_ds
cells = AMS:learned:CE,PONO:unit:CE,AO:retina_norm:FL
"""

TRAIN_BATCH2 = """\
model = toynet
input_size = 32
base_channels = 2
levels = 2
head_convs = 1
lr0 = 0.01
max_iter = 12
batch_size = 2
mode = learned
seed = 4
checkpoint_every = 5
"""

ABLATE_ANCHORS = """\
model = toynet
base_channels = 2
head_convs = 1
lr0 = 0.01
max_iter = 8
seed = 3
anchors = {root}/anchors.txt
dataset = {root}/ds
cells = PONO:learned:FL
"""


def run_flow(root: Path) -> Path:
    """Run the flow with its config files in `root`/inputs and its
    artifacts in `root`/artifacts, which it returns; raises on a failed
    step."""
    from ponodet.cli import run

    inputs, root = root / "inputs", root / "artifacts"
    inputs.mkdir(parents=True)
    (inputs / "genspec.txt").write_text(GENSPEC)
    (inputs / "genspec_crowded.txt").write_text(GENSPEC_CROWDED)
    (inputs / "ablate.txt").write_text(ABLATE.format(root=root))
    (inputs / "train_b2.txt").write_text(TRAIN_BATCH2)
    (inputs / "ablate_anchors.txt").write_text(ABLATE_ANCHORS.format(root=root))
    ckpt = str(root / "ablation" / "ams_learned_ce" / "final.bin")
    steps = [
        ["gen-data", "--config", f"{inputs}/genspec.txt", "--out", f"{root}/ds", "-n", "10"],
        ["gen-data", "--config", f"{inputs}/genspec.txt", "--out", f"{root}/eval_ds",
         "-n", "6", "--seed", "5012"],
        ["ablate", "--config", f"{inputs}/ablate.txt", "--out", f"{root}/ablation"],
        ["eval", "--checkpoint", ckpt, "--dataset", f"{root}/eval_ds", "--out", f"{root}/eval"],
        ["assign-dump", "--dataset", f"{root}/ds", "--scene", "1",
         "--anchors", f"{root}/ablation/anchors.txt", "--out", f"{root}/maps"],
        ["assign-dump", "--dataset", f"{root}/ds", "--scene", "1",
         "--anchors", f"{root}/ablation/anchors.txt", "--checkpoint", ckpt,
         "--out", f"{root}/maps_ckpt"],
        ["plot-weights", "--checkpoint", ckpt, "--out", f"{root}/weights"],
        ["train", "--config", f"{inputs}/train_b2.txt", "--dataset", f"{root}/ds",
         "--anchors", f"{root}/ablation/anchors.txt", "--out", f"{root}/train_b2"],
        ["anchors", "--dataset", f"{root}/ds", "--out", f"{root}/anchors.txt",
         "--n-a", "3", "--seed", "2"],
        ["ablate", "--config", f"{inputs}/ablate_anchors.txt",
         "--out", f"{root}/ablation_anchors"],
        ["train", "--config", f"{inputs}/train_b2.txt", "--dataset", f"{root}/ds",
         "--anchors", f"{root}/anchors.txt", "--out", f"{root}/train_seed", "--seed", "8"],
        ["gen-data", "--config", f"{inputs}/genspec_crowded.txt", "--out",
         f"{root}/crowded_ds", "-n", "8"],
        ["anchors", "--dataset", f"{root}/crowded_ds", "--out", f"{root}/crowded_anchors.txt",
         "--n-a", "2", "--seed", "33"],
    ]
    for argv in steps:
        with contextlib.redirect_stdout(sys.stderr):
            code = run(argv)
        if code != 0:
            raise RuntimeError(f"ponodet {argv[0]} exited {code}")
    return root


def digests(root: Path) -> list[str]:
    """`sha256 relpath` of every file under `root`, sorted by path."""
    paths = sorted(p for p in root.rglob("*") if p.is_file())
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()} {p.relative_to(root).as_posix()}"
            for p in paths]


def build() -> list[str]:
    """The `#` lines naming the numpy version and its BLAS."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [f"# numpy {np.__version__}", f"# blas {blas['name']} {blas['version']}"]


def main() -> int:
    sys.path.insert(0, os.path.abspath("src"))
    with tempfile.TemporaryDirectory() as tmp:
        for line in build() + digests(run_flow(Path(tmp))):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
