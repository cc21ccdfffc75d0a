"""Ablation-cell benchmark for ponodet.

    python3 bench/run.py --workload imbalanced_modes --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; ``ponodet`` is imported from its
``src/`` directory.  A workload trains and scores ablation cells
(generate -> k-means anchors -> training -> AP eval) the way the acceptance
matrix and the CLI do.  ``--seconds`` sets the training budget (iterations
per cell scale with it); ``--seed`` derives every generator and training
seed, and seed 0 reproduces the pinned benchmark seeds.

The last stdout line is one JSON object: ``correct``, ``attempted`` and
``failed`` (ablation cells), and ``metrics``.  With ``--trace 0`` they are
the end-to-end metrics of an untraced run.  With ``--trace 1`` the workload
runs twice on the same seed, untraced and then traced, and the metrics are
the per-layer figures plus the tracing overhead on ``cell_s``.  See
bench/README.md for why each workload exists.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads, so BLAS thread scheduling adds
# no run-to-run noise on a small box
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import LAYERS, PROBES, Tracer, layer_metrics  # noqa: E402

# Seeds of a workload are the pinned benchmark seeds plus STRIDE * --seed,
# so seed 0 is the pinned set and no two seeds share a generator stream.
SEED_STRIDE = 100_003

# Training iterations per cell for each second of --seconds, chosen so the
# training phase of a workload takes about --seconds on a 2-core x86 box.
ITERS_PER_SECOND = {"imbalanced_modes": 30, "crowded_rules": 20, "ablate_cli": 45}

END_TO_END_UNITS = {
    "setup_s": "s", "train_scenes_per_s": "scenes/s", "train_iter_ms_p50": "ms",
    "cell_s": "s", "peak_rss_mb": "MB",
}


# per-layer figures that repeat exactly at a fixed seed
EXACT_UNITS = ("count", "records/iter", "ratio", "mAP")


@dataclass
class Cell:
    """One ablation cell: its mAP and per-iteration loss rows, or the error."""

    name: str
    map: float | None = None
    rows: list[str] = field(default_factory=list)
    error: str | None = None


def _seeded(bench, seed: int):
    return replace(bench,
                   gen=replace(bench.gen, seed=bench.gen.seed + SEED_STRIDE * seed),
                   train_cfg=replace(bench.train_cfg,
                                     seed=bench.train_cfg.seed + SEED_STRIDE * seed))


def _run_cells(bench, key: str, values, iters: int) -> list[Cell]:
    from ponodet import benchmarks as B
    from ponodet.train import lr_at
    cfg = replace(bench.train_cfg, max_iter=iters)
    cells = []
    for value in values:
        cell = Cell(f"{key}={value}")
        try:
            res = B.run_cell(bench, max_iter=iters, **{key: value})
        except Exception:  # a failed cell is counted, never dropped
            cell.error = traceback.format_exc()
        else:
            cell.map = res["map"]
            cell.rows = [r.csv_row(i, lr_at(i, cfg))
                         for i, r in enumerate(res["reports"])]
        cells.append(cell)
    return cells


def imbalanced_modes(seed: int, iters: int, workdir: Path) -> list[Cell]:
    from ponodet import benchmarks as B
    return _run_cells(_seeded(B.imbalanced_benchmark(), seed), "mode",
                      ("learned", "retina_norm", "unit"), iters)


def crowded_rules(seed: int, iters: int, workdir: Path) -> list[Cell]:
    from ponodet import benchmarks as B
    return _run_cells(_seeded(B.crowded_benchmark(), seed), "label_rule",
                      ("AMS", "PONO", "AO"), iters)


ABLATE_CELLS = ("AMS:learned:CE", "AO:retina_norm:FL")


def ablate_cli(seed: int, iters: int, workdir: Path) -> list[Cell]:
    """gen-data for a train and a test set on disk, then one `ablate`."""
    from ponodet import benchmarks as B
    from ponodet.cli import run as cli_run
    from ponodet.data import save_gen_spec

    bench = _seeded(B.imbalanced_benchmark(), seed)
    train_dir, test_dir, out_dir = (workdir / d for d in ("train", "test", "ablation"))
    save_gen_spec(workdir / "genspec.txt", bench.gen)
    every = max(1, iters // 2)
    net = bench.net
    (workdir / "ablate.txt").write_text(
        f"model = toynet\ninput_size = {net.input_size}\n"
        f"base_channels = {net.base_channels}\nlevels = {net.levels}\n"
        f"head_convs = {net.head_convs}\nmax_iter = {iters}\nbatch_size = 1\n"
        f"seed = {bench.train_cfg.seed}\nn_a = 3\ncheckpoint_every = {every}\n"
        f"dataset = {train_dir}\neval_dataset = {test_dir}\n"
        f"cells = {','.join(ABLATE_CELLS)}\n")
    steps = (
        ["gen-data", "--config", str(workdir / "genspec.txt"), "--out", str(train_dir),
         "-n", str(bench.n_train)],
        ["gen-data", "--config", str(workdir / "genspec.txt"), "--out", str(test_dir),
         "-n", str(bench.n_test), "--seed", str(bench.gen.seed + 5000)],
        ["ablate", "--config", str(workdir / "ablate.txt"), "--out", str(out_dir)],
    )
    code = 0
    for argv in steps:
        code = cli_run(argv)
        if code != 0:
            break

    summary = {}
    if code == 0:
        with open(out_dir / "summary.csv") as f:
            next(f)
            for line in f:
                parts = line.strip().split(",")
                summary[parts[0]] = float(parts[4])
    cells = []
    for spec in ABLATE_CELLS:
        name = spec.replace(":", "_").lower()
        cell = Cell(name)
        if name not in summary:
            cell.error = f"ablate produced no result for {name} (exit code {code})"
        else:
            cell.map = summary[name]
            cell_dir = out_dir / name
            cell.rows = (cell_dir / "log.csv").read_text().splitlines()[1:]
            ckpts = len(glob.glob(str(cell_dir / "ckpt_*.bin")))
            if not (cell_dir / "final.bin").is_file() or ckpts != iters // every:
                cell.error = f"{name}: final.bin missing or {ckpts} checkpoints"
        cells.append(cell)
    return cells


WORKLOADS = {"imbalanced_modes": imbalanced_modes, "crowded_rules": crowded_rules,
             "ablate_cli": ablate_cli}


@dataclass
class Run:
    cells: list[Cell]
    tracer: Tracer
    start: float
    seconds: float

    @property
    def done(self) -> list[Cell]:
        return [c for c in self.cells if c.error is None]

    def digest(self) -> str:
        h = hashlib.sha256()
        for cell in self.cells:
            h.update(f"{cell.name}\n".encode())
            for row in cell.rows:
                h.update(f"{row}\n".encode())
        return h.hexdigest()

    def mean_map(self) -> float:
        maps = [c.map for c in self.done]
        return sum(maps) / len(maps) if maps else 0.0


def run_workload(name: str, seed: int, iters: int, targets) -> Run:
    workdir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        with Tracer(targets) as tracer:
            start = time.perf_counter()
            cells = WORKLOADS[name](seed, iters, workdir)
            seconds = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for cell in cells:
        if cell.error:
            print(f"cell {cell.name} failed:\n{cell.error}", file=sys.stderr)
    return Run(cells, tracer, start, seconds)


# ---------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------

def check(run: Run, iters: int) -> list[str]:
    """Problems with a run's outputs; empty when every check passes."""
    problems = []
    for cell in run.done:
        if len(cell.rows) != iters:
            problems.append(f"{cell.name}: {len(cell.rows)} loss rows, expected {iters}")
        for row in cell.rows:
            losses = [float(v) for v in row.split(",")[1:5]]
            if not all(math.isfinite(v) for v in losses):
                problems.append(f"{cell.name}: non-finite loss in row {row!r}")
                break
        if not 0.0 <= cell.map <= 1.0:
            problems.append(f"{cell.name}: mAP {cell.map!r} outside [0, 1]")
    evals = run.tracer.named("evaluation.dataset_detections")
    if len(evals) != len(run.done):
        problems.append(f"{len(evals)} evaluations for {len(run.done)} finished cells")
    if any(s.info["dets"] == 0 for s in evals):
        problems.append("a cell returned no detections")
    return problems


def _source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.glob("ponodet/*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_repeat(kind: str, seed: int, iters: int, values: dict) -> list[str]:
    """Compare `values` with those of an earlier run of the same seed.

    The first run of a (kind, seed, budget, source) leaves a record in the
    checkout; every later one must reproduce it exactly.
    """
    path = WORK / "records" / f"{kind}-seed{seed}-iters{iters}-{_source_hash()}.json"
    values = json.loads(json.dumps(values))
    if path.is_file():
        earlier = json.loads(path.read_text())
        if earlier != values:
            return [f"same-seed rerun differs from {path.name}: {earlier} vs {values}"]
        return []
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(values))
    os.replace(tmp, path)
    return []


# ---------------------------------------------------------------------
# end-to-end metrics
# ---------------------------------------------------------------------

def tail_percentile(n: int) -> float:
    """Highest of the usual percentiles that leaves ten samples above it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return 50.0


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(0, math.ceil(p / 100.0 * len(ordered)) - 1)
    return ordered[k]


def setup_seconds(run: Run) -> float:
    """Time before the first iteration of each cell, summed over cells.

    A cell's set-up starts where the previous cell's AP eval ended (the
    workload start for the first cell) and ends at its first iteration.
    """
    boundary, total, pending = run.start, 0.0, False
    for s in run.tracer.spans:
        if s.name == "train.run_training":
            pending = True
        elif s.name == "train.iteration" and pending:
            total += s.start - boundary
            pending = False
        elif s.name == "evaluation.map_eval":
            boundary = s.end
    return total


def end_to_end(run: Run) -> tuple[dict[str, float], list[str]]:
    tracer = run.tracer
    iters = tracer.named("train.iteration")
    times_ms = [s.seconds * 1e3 for s in iters] or [0.0]
    train_s = sum(s.seconds for s in tracer.named("train.run_training"))
    evals = tracer.named("evaluation.dataset_detections")
    eval_s = sum(s.seconds for s in evals + tracer.named("evaluation.map_eval"))
    p_tail = tail_percentile(len(times_ms))
    metrics = {
        "setup_s": setup_seconds(run),
        "train_scenes_per_s": sum(s.info["scenes"] for s in iters) / max(train_s, 1e-9),
        "train_iter_ms_p50": statistics.median(times_ms),
        "cell_s": run.seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    eval_scenes = sum(s.info["scenes"] for s in evals)
    # printed, not bounded: both swing between runs more than any allowed
    # bound (see bench/README.md)
    notes = [f"train_iter_ms_tail = {percentile(times_ms, p_tail):.6g} ms, the "
             f"p{p_tail:g} of {len(times_ms)} iterations "
             f"({len(times_ms) - math.ceil(p_tail / 100.0 * len(times_ms))} beyond)",
             f"train {train_s:.3f} s; eval {eval_s:.3f} s over {eval_scenes} test scenes, "
             f"eval_scenes_per_s = {eval_scenes / max(eval_s, 1e-9):.6g} scenes/s"]
    return metrics, notes


def environment() -> str:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas.get('name')}-{blas.get('version')} "
            f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']} "
            f"nproc={len(os.sched_getaffinity(0))} machine={platform.machine()}")


def _import_ponodet() -> None:
    """Import ponodet from this checkout's src/, never from elsewhere."""
    if not (SRC / "ponodet" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'ponodet'} not found; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import ponodet
    if not Path(ponodet.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: ponodet imported from {ponodet.__file__}, not {SRC}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    _import_ponodet()

    iters = max(10, round(args.seconds * ITERS_PER_SECOND[args.workload]))
    print(f"env {environment()}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"iterations/cell={iters} trace={args.trace}")

    run = run_workload(args.workload, args.seed, iters, PROBES)
    problems = check(run, iters) + check_repeat(
        args.workload, args.seed, iters,
        {"loss_digest": run.digest(), "map": run.mean_map()})
    for cell in run.cells:
        status = f"mAP {cell.map:.4f}" if cell.error is None else "FAILED"
        print(f"cell {cell.name}: {status}")
    print(f"map {run.mean_map():.6f} (mean over finished cells), "
          f"loss digest {run.digest()[:16]}")

    if args.trace:
        traced = run_workload(args.workload, args.seed, iters, LAYERS)
        problems += [f"traced run: {p}" for p in check(traced, iters)]
        if (traced.digest(), traced.mean_map()) != (run.digest(), run.mean_map()):
            problems.append("traced and untraced runs of one seed differ")
        figures = layer_metrics(traced.tracer)
        figures["evaluation.map"] = (traced.mean_map(), "mAP")
        figures["trace.overhead_s"] = (traced.seconds - run.seconds, "s")
        problems += check_repeat(
            f"{args.workload}-counts", args.seed, iters,
            {k: v for k, (v, unit) in figures.items() if unit in EXACT_UNITS})
        print(f"traced cell_s {traced.seconds:.3f} s, untraced {run.seconds:.3f} s")
        cells, metrics = traced.cells, {
            name: {"value": value, "unit": unit} for name, (value, unit) in figures.items()}
    else:
        values, notes = end_to_end(run)
        for note in notes:
            print(note)
        cells, metrics = run.cells, {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()}

    failed = sum(1 for c in cells if c.error is not None)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed {failed} of {len(cells)} cells attempted")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": len(cells),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
