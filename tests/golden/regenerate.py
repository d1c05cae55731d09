"""Golden artifacts: the SHA-256 of every file the CLI writes on the test
fixture, and of `selfcheck`'s stdout, kept in `manifest.json` next to this file.

    PYTHONPATH=src python tests/golden/regenerate.py

reruns the commands in a temporary directory and rewrites the manifest. A
change that does so changes behaviour: it says which hashes moved and why.
`tests/test_golden.py` reruns the same commands and compares.

Two masks keep the hashes independent of the run: `train_log.csv` loses its
`seconds` column (wall time) and `config.txt` its `data=` and `out=` lines
(paths). Files that pass through a matrix product (checkpoints, training
logs, model reports, selfcheck's errors) are pinned only under the numpy and
BLAS build the manifest records; corpus files, baseline reports and configs
are pinned everywhere.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # the tests dir, for conftest
from conftest import foursquare_lines  # noqa: E402

from bistddp.cli import main  # noqa: E402

MANIFEST = Path(__file__).with_name("manifest.json")
SIZE = ("--d", "4", "--h", "8", "--epochs", "3")

# (output name, command line); "{name}" is that command's output directory and
# "{raw}" the fixture's raw dump.
# On the fixture, w = 2 leaves no test samples, so its corpus is scored on val.
COMMANDS = [
    ("prepare", ["prepare", "--data", "{raw}"]),
    ("train", ["train", "--data", "{prepare}/corpus.tsv"]),
    ("train-again", ["train", "--data", "{prepare}/corpus.tsv"]),
    ("evaluate-val", ["evaluate", "--data", "{prepare}/corpus.tsv", "--split", "val",
                      "--checkpoint", "{train}/checkpoint.bin"]),
    ("evaluate-test", ["evaluate", "--data", "{prepare}/corpus.tsv", "--split", "test",
                       "--checkpoint", "{train}/checkpoint.bin"]),
    ("baselines-val", ["baselines", "--data", "{prepare}/corpus.tsv", "--split", "val"]),
    ("baselines-test", ["baselines", "--data", "{prepare}/corpus.tsv", "--split", "test"]),
    ("ablate", ["ablate", "--data", "{prepare}/corpus.tsv"]),
    ("sweep", ["sweep", "--data", "{prepare}/corpus.tsv", "--grid", "d=2,4"]),
    ("prepare-w2", ["prepare", "--data", "{raw}", "--w", "2"]),
    ("train-w2", ["train", "--data", "{prepare-w2}/corpus.tsv"]),
    ("evaluate-w2-val", ["evaluate", "--data", "{prepare-w2}/corpus.tsv", "--split", "val",
                         "--checkpoint", "{train-w2}/checkpoint.bin"]),
    ("selfcheck", ["selfcheck"]),
]


def build() -> dict:
    """What a matrix product's bits depend on: numpy, its BLAS and the SIMD
    extensions numpy found on this CPU."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}: {blas.get('openblas configuration', '')}",
            "simd": config["SIMD Extensions"]["found"]}


def _masked(path: Path) -> bytes:
    lines = path.read_bytes().splitlines(keepends=True)
    if path.name == "config.txt":
        return b"".join(line for line in lines if not line.startswith((b"data=", b"out=")))
    if path.name == "train_log.csv":
        return b"".join(line.rsplit(b",", 1)[0] + b"\n" for line in lines)  # seconds is last
    return path.read_bytes()


def through_gemm(name: str) -> bool:
    """Whether the artifact `name` ("<command>/<file>") passes through a matrix product."""
    command, file = name.split("/")
    return not (command.startswith(("prepare", "baselines")) or file == "config.txt")


def produce(workdir: Path) -> dict[str, str]:
    """Run COMMANDS in `workdir` on the fixture; the SHA-256 of each masked
    artifact, keyed "<command>/<file>", and of selfcheck's stdout."""
    dirs = {"raw": str(workdir / "raw.tsv"), **{name: str(workdir / name) for name, _ in COMMANDS}}
    Path(dirs["raw"]).write_text("\n".join(foursquare_lines()) + "\n", encoding="utf-8")
    digests = {}
    for name, argv in COMMANDS:
        argv = [a.format(**dirs) for a in argv]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([*argv, "--out", dirs[name], *SIZE])
        if name == "selfcheck":  # a failed check shows in its stdout
            digests["selfcheck/stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
            continue
        if code != 0:
            raise RuntimeError(f"{name}: {' '.join(argv)} exited {code}")
        for path in sorted(Path(dirs[name]).iterdir()):
            digests[f"{name}/{path.name}"] = hashlib.sha256(_masked(path)).hexdigest()
    return digests


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        files = produce(Path(tmp))
    MANIFEST.write_text(json.dumps({"build": build(), "files": files}, indent=1) + "\n",
                        encoding="utf-8")
    print(f"wrote {len(files)} hashes to {MANIFEST}")
