"""Same seed => the same bits as the committed record, ``tests/golden.json``.

The record holds the fingerprints of ``fingerprint_cells.GOLDEN_CELLS``
and the key of the numpy build that wrote it. On that build every hash must
match. On another build (numpy version, BLAS or CPU features) summation
orders may differ, so only the floats of the short cells are compared, to
1e-9 relative, and a warning says the hashes were not.
"""

import copy
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import fingerprint_cells

GOLDEN = json.loads(Path(__file__).with_name("golden.json").read_text(encoding="utf-8"))


def compare(got: dict, golden: dict) -> None:
    assert got["cells"].keys() == golden["cells"].keys()
    if got["key"] == golden["key"]:
        changed = sorted(c for c, rec in got["cells"].items() if rec != golden["cells"][c])
        assert changed == [], f"cells whose bits moved: {changed}"
        return
    warnings.warn(f"numpy build {got['key']} is not the golden record's {golden['key']}: "
                  f"hashes not compared, only the floats of the short cells")
    short = [c for c, rec in golden["cells"].items() if "floats" in rec]
    assert short
    for cell in short:
        np.testing.assert_allclose(np.array(got["cells"][cell]["floats"], dtype=np.float64),
                                   np.array(golden["cells"][cell]["floats"], dtype=np.float64),
                                   rtol=1e-9, err_msg=cell)


@pytest.fixture(scope="module")
def cells():
    return fingerprint_cells.golden()


def test_cells_match_the_golden_record(cells):
    compare(cells, GOLDEN)


def test_another_numpy_build_compares_the_short_cells_floats(cells):
    other = copy.deepcopy(cells)
    other["key"]["numpy"] = "0.0"
    with pytest.warns(UserWarning, match="hashes not compared"):
        compare(other, GOLDEN)
    cell = next(c for c, rec in other["cells"].items() if "floats" in rec)
    other["cells"][cell]["floats"][0] *= 1.0 + 1e-8
    with pytest.warns(UserWarning), pytest.raises(AssertionError, match=cell):
        compare(other, GOLDEN)
