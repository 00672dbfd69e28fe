"""The arithmetic and the copy step of tools/import_cost.py. The tool's
process runs themselves are run in CI."""

import importlib.util
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


@pytest.mark.parametrize("a, b, rounds, ratio", [
    # one round: each quartile is the one value, and no ratio is read off it
    ((20.0, 20.0, 20.0, 20.0), (30.0, 30.0, 30.0, 30.0), 1, None),
    # a negative median: B ran faster than its `pass`
    ((0.1, 0.2, 0.3, 0.5), (-9.0, -8.0, -7.4, -6.0), 5, None),
    # A's median of 3 ms inside B's spread of 12 ms
    ((2.0, 2.5, 3.0, 4.0), (1.0, 4.0, 9.0, 16.0), 5, None),
    # both medians clear of the wider spread, 2 ms
    ((18.0, 19.0, 20.0, 21.0), (28.0, 29.5, 30.0, 31.0), 5, 1.5),
], ids=["one-round", "negative-median", "median-inside-spread", "clear"])
def test_the_median_ratio_is_read_only_above_the_spread(a, b, rounds, ratio):
    assert import_cost._median_ratio(a, b, rounds) == (
        None if ratio is None else pytest.approx(ratio))


def test_each_tree_is_timed_from_a_compiled_copy_beside_the_other(tmp_path):
    tree = tmp_path / "src"
    (tree / "pkg").mkdir(parents=True)
    (tree / "pkg" / "__init__.py").write_text("x = 1\n")
    (tree / "pkg" / "mod.py").write_text("y = 2\n")
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    copies = import_cost._compiled_copies([tree, tree], scratch)
    assert len(copies) == 2 and len({len(str(copy)) for copy in copies}) == 1
    assert {copy.parent for copy in copies} == {scratch}
    for copy in copies:
        modules = sorted(copy.rglob("*.py"))
        assert [m.relative_to(copy) for m in modules] == [
            Path("pkg/__init__.py"), Path("pkg/mod.py")]
        for module in modules:
            assert Path(importlib.util.cache_from_source(module)).is_file()
    assert not list(tree.rglob("__pycache__"))
