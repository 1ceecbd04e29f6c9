"""The output protocol: generate, train, eval and grid through the command
line, then print one SHA-256 per output file.

Two versions of the package give the same outputs exactly when this script
prints the same lines for both, at the same BLAS thread count:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/protocol.py > after.txt
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=../other/src python tests/protocol.py > before.txt
    diff before.txt after.txt

The eleven runs train for 3 epochs. Ten use built-in datasets at their
default sizes: checkerboard SNL and NCE; four_circles SNL with a Gaussian base
and the standard proposal; regression1 SNL and NCE with the MDN proposal;
regression2 SNL and NCE with the fitted proposal; then the uniform proposal in
checkerboard SGD, pinwheel NCE and regression1 without the normalizer head.
The eleventh trains from ``data.path`` on the train file of a 2000-point
funnel that ``generate`` wrote, and its evals score the generated test file
with ``--data``. ``eval --seeds 0,1`` scores each best checkpoint and ``eval
--seeds 0`` each final one. ``grid`` tabulates each density best checkpoint at
its defaults and each density final one at ``--resolution 50
--bounds=-3,3,-2,2``. That makes 93 files: the generate log and its three
CSVs, then per run the train log, ``config.resolved``, ``metrics.csv`` and
both checkpoints, 22 eval reports and 14 grids. Each file is hashed with the
temporary directory's path masked, and ``metrics.csv`` without its
``seconds`` column, the one value that differs between two runs of the same
code. The package's location goes to stderr. pytest does not collect this
file; it takes about 12 s on a 2-CPU machine.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import snl_ebm
from snl_ebm.cli import main

RUNS = {
    "checkerboard-snl": ["data.name=checkerboard"],
    "checkerboard-nce": ["data.name=checkerboard", "train.objective=nce"],
    "four_circles-snl": ["data.name=four_circles", "model.base=gaussian", "proposal.kind=standard"],
    "regression1-snl": ["data.name=regression1", "proposal.kind=mdn"],
    "regression1-nce": ["data.name=regression1", "proposal.kind=mdn", "train.objective=nce"],
    "regression2-snl": ["data.name=regression2"],
    "regression2-nce": ["data.name=regression2", "train.objective=nce"],
    "checkerboard-sgd-uniform": ["data.name=checkerboard", "train.optimizer=sgd", "proposal.kind=uniform"],
    "pinwheel-nce-uniform": ["data.name=pinwheel", "train.objective=nce", "proposal.kind=uniform"],
    "regression1-uniform-nonormalizer": ["data.name=regression1", "proposal.kind=uniform", "model.normalizer=false"],
    "funnel-path": ["data.path={train}"],
}
# the dataset ``generate`` writes, whose train file a data.path run trains on
# and whose test file its evals score with ``--data``
GENERATED = ["--dataset", "funnel", "--n", "2000"]
EVAL_SEEDS = {"best": "0,1", "final": "0"}
GRID_FLAGS = {"best": [], "final": ["--resolution", "50", "--bounds=-3,3,-2,2"]}


def call(log: Path | None, *argv: str) -> None:
    """Run one command in this process; its stdout goes to ``log``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    if code != 0:
        sys.exit(f"snl-ebm {' '.join(argv)} exited with {code}")
    if log is not None:
        log.write_text(out.getvalue())


def digest(path: Path, root: Path) -> str:
    data = path.read_bytes().replace(str(root).encode(), b"<out>")
    if path.name == "metrics.csv":
        rows = [line.split(b",") for line in data.splitlines()]
        col = rows[0].index(b"seconds")
        data = b"\n".join(b",".join(row[:col] + row[col + 1:]) for row in rows) + b"\n"
    return hashlib.sha256(data).hexdigest()


def run_protocol(root: Path) -> None:
    data = root / "data"
    data.mkdir()
    call(data / "generate.log", "generate", *GENERATED, "--out-dir", str(data))
    train_file, test_file = (data / f"{GENERATED[1]}_{part}.csv" for part in ("train", "test"))
    for name, settings in RUNS.items():
        out = root / name
        overrides = [f"out.dir={out}", "train.epochs=3", *(s.format(train=train_file) for s in settings)]
        from_path = any(s.startswith("data.path=") for s in settings)
        eval_data = ["--data", str(test_file)] if from_path else []
        out.mkdir()
        call(out / "train.log", "train", *(arg for s in overrides for arg in ("--set", s)))
        for which in ("best", "final"):
            checkpoint = str(out / f"checkpoint_{which}.json")
            call(out / f"eval_{which}.txt", "eval", "--checkpoint", checkpoint, "--seeds", EVAL_SEEDS[which],
                 *eval_data)
            if not name.startswith("regression"):
                call(None, "grid", "--checkpoint", checkpoint, "--out", str(out / f"grid_{which}.csv"),
                     *GRID_FLAGS[which])


def main_protocol() -> None:
    print(f"snl_ebm from {Path(snl_ebm.__file__).parent}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        run_protocol(root)
        files = sorted(p for p in root.rglob("*") if p.is_file())
        for path in files:
            print(f"{digest(path, root)}  {path.relative_to(root)}")
    print(f"{len(files)} files", file=sys.stderr)


if __name__ == "__main__":
    main_protocol()
