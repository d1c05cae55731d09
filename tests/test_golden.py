"""Every CLI artifact on the fixture keeps the bytes recorded in
`tests/golden/manifest.json` (see `tests/golden/regenerate.py` for the
commands, the masks and how to regenerate it)."""

import json

import pytest

from golden.regenerate import MANIFEST, build, produce, through_gemm

RECORDED = json.loads(MANIFEST.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return produce(tmp_path_factory.mktemp("golden"))


def moved(produced, gemm: bool) -> list[str]:
    return [name for name, digest in RECORDED["files"].items()
            if through_gemm(name) == gemm and produced.get(name) != digest]


def test_the_commands_write_the_recorded_files(produced):
    assert sorted(produced) == sorted(RECORDED["files"])


def test_artifacts_outside_matrix_products_keep_their_bytes(produced):
    assert not moved(produced, gemm=False)


def test_artifacts_through_matrix_products_keep_their_bytes(produced):
    if build() != RECORDED["build"]:
        pytest.skip(f"numpy/BLAS build {build()} is not the manifest's {RECORDED['build']}, "
                    "so the bits of a matrix product may differ: not compared "
                    f"{sorted(n for n in RECORDED['files'] if through_gemm(n))}")
    assert not moved(produced, gemm=True)
