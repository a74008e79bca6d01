"""Every output family of klctrl against the committed golden corpus.

The corpus and its inputs are defined in ``golden/make_golden.py``.  Outputs
are compared bitwise when this machine's ``build_key`` matches the file's,
and within ``FOREIGN_ULP`` ulp otherwise, with the largest gap printed.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).with_name("golden")))
from make_golden import BUILD, FOREIGN_ULP, GOLDEN, build_key, outputs  # noqa: E402


def _ordered(a: np.ndarray) -> np.ndarray:
    """float64 bits as int64 that order like the floats, with -0.0 just
    below 0.0: two floats are n ulp apart when these differ by n, and 0 ulp
    only when their bits are equal."""
    bits = a.astype(np.float64).view(np.int64)
    return bits ^ ((bits >> 63) & np.iinfo(np.int64).max)


def ulp_gap(stored: np.ndarray, fresh: np.ndarray) -> float:
    """Largest gap in ulp between two float arrays; inf when the shapes or
    the kinds differ, or a non-float array differs at all."""
    if stored.shape != fresh.shape or stored.dtype.kind != fresh.dtype.kind:
        return np.inf
    if stored.dtype.kind != "f":
        return 0 if np.array_equal(stored, fresh) else np.inf
    a, b = _ordered(stored).ravel(), _ordered(fresh).ravel()
    return max((abs(int(a[i]) - int(b[i])) for i in np.flatnonzero(a != b)), default=0)


def test_outputs_match_the_golden_corpus():
    with np.load(GOLDEN, allow_pickle=False) as data:
        golden = {name: data[name] for name in data.files}
    bound = 0 if str(golden.pop(BUILD)) == build_key() else FOREIGN_ULP
    fresh = outputs()
    assert sorted(fresh) == sorted(golden), "the set of golden outputs changed"
    gaps = {name: ulp_gap(stored, fresh[name]) for name, stored in golden.items()}
    faults = [f"{name}: largest gap {gap} ulp" for name, gap in gaps.items() if gap > bound]
    assert not faults, "outputs moved from the golden corpus:\n" + "\n".join(faults)
    if bound:
        print(f"other build: largest gap {max(gaps.values())} ulp, within {bound}")


def test_ulp_gap_counts_adjacent_floats():
    x = np.array([1.0, -2.0, 0.0])
    y = np.array([np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(-2.0, 0.0), 0.0), 0.0])
    assert ulp_gap(x, y) == 2
    assert ulp_gap(x, x.copy()) == 0
    assert ulp_gap(np.array([0.0]), np.array([-0.0])) == 1
    assert ulp_gap(np.array(["a"]), np.array(["b"])) == np.inf
