"""The arithmetic and the cache check of tools/import_cost.py. The tool's
process runs themselves are run in CI."""

import importlib.util
import py_compile
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "import_cost.py"
spec = importlib.util.spec_from_file_location("import_cost", TOOL)
import_cost = importlib.util.module_from_spec(spec)
spec.loader.exec_module(import_cost)


def test_the_min_above_pass_is_the_least_difference_of_one_round():
    # The fastest `pass` is in round 1 and the fastest case in round 2: the
    # difference of the two minima, 25 ms, is no round's figure.
    times = {"pass": [0.050, 0.060, 0.058], "case": [0.080, 0.075, 0.085]}
    low, q1, median, q3 = import_cost._above_pass(times, "case")
    assert low == pytest.approx(15.0)
    assert (q1, median, q3) == pytest.approx((21.0, 27.0, 28.5))
    assert low <= q1


def test_a_cache_is_fresh_only_for_the_source_it_was_compiled_from(tmp_path):
    source = tmp_path / "module.py"
    source.write_text("x = 1\n")
    assert not import_cost._fresh_cache(source)
    py_compile.compile(str(source), doraise=True)
    assert import_cost._fresh_cache(source)
    source.write_text("x = 12\n")
    assert not import_cost._fresh_cache(source)
