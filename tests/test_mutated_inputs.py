"""Mutated input files are bad input or an unusable model, never a package
fault: `cli.main` on a corpus file or checkpoint with edited bytes or lines
exits 0, 2, or 1 with the `diverged: ` prefix."""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bistddp.cli import main
from conftest import foursquare_lines

SMALL = ("--d", "3", "--h", "4", "--epochs", "1", "--batch", "64")
BYTES = st.one_of(st.sampled_from(b"0123456789-+.e\t\n\rCPUx \xff"), st.integers(0, 255))
FIELDS = ["", "0", "-1", "1", "2", "12", "20", "99999", "x", "1e3", "nan", "inf", "-0", "1.5",
          "+3", "1500000000", "4102444800", "999999999999999999"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    raw = root / "raw.tsv"
    raw.write_text("\n".join(foursquare_lines()) + "\n", encoding="utf-8")
    assert run("prepare", "--data", raw, "--out", root / "prep")[0] == 0
    assert run("train", "--data", root / "prep" / "corpus.tsv", "--out", root / "run",
               *SMALL)[0] == 0
    return root / "prep" / "corpus.tsv", root / "run" / "checkpoint.bin"


def run(*args):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in args])
    return code, err.getvalue()


def assert_not_a_fault(code, err):
    assert code == 0 or code == 2 or code == 1 and err.startswith("diverged: "), (code, err)
    assert "internal error:" not in err


@st.composite
def byte_edits(draw, data: bytes) -> bytes:
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(out) - 1))
        kind = draw(st.sampled_from(["replace", "insert", "delete"]))
        if kind == "delete":
            del out[at]
        else:
            byte = draw(BYTES)
            out[at:at + (kind == "replace")] = bytes([byte])
    return bytes(out)


@st.composite
def line_edits(draw, data: bytes) -> bytes:
    lines = data.decode("utf-8").split("\n")[:-1]
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["delete", "duplicate", "swap", "field"]))
        if kind == "delete":
            del lines[k]
        elif kind == "duplicate":
            lines.insert(k, lines[k])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[k], lines[j] = lines[j], lines[k]
        else:
            parts = lines[k].split("\t")
            parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(FIELDS))
            lines[k] = "\t".join(parts)
        if not lines:
            break
    return ("\n".join(lines) + "\n").encode("utf-8")


def run_corpus_commands(text: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.tsv"
        path.write_bytes(text)
        assert_not_a_fault(*run("baselines", "--data", path, "--out", Path(tmp) / "bl"))
        assert_not_a_fault(*run("train", "--data", path, "--out", Path(tmp) / "tr", *SMALL))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_corpus_with_edited_bytes_is_never_a_fault(inputs, data):
    run_corpus_commands(data.draw(byte_edits(inputs[0].read_bytes())))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_corpus_with_edited_lines_is_never_a_fault(inputs, data):
    run_corpus_commands(data.draw(line_edits(inputs[0].read_bytes())))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_checkpoint_with_edited_bytes_is_never_a_fault(inputs, data):
    corpus, checkpoint = inputs
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.bin"
        path.write_bytes(data.draw(byte_edits(checkpoint.read_bytes())))
        assert_not_a_fault(*run("evaluate", "--data", corpus, "--checkpoint", path,
                                "--out", Path(tmp) / "ev"))
