"""The arithmetic of tools/bench_pairs.py: pairs won, ratios, spreads and
the claim rule. The tool's runs themselves are smoke-tested in CI."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

SIDES = ("parent", "change")


def test_pairs_won_follow_the_metric_direction_and_ties_count_for_neither():
    values = {"parent": [10.0, 12.0, 11.0, 9.0], "change": [11.0, 12.0, 10.0, 13.0]}
    higher = bench_pairs.compare(values, SIDES, "higher")
    lower = bench_pairs.compare(values, SIDES, "lower")
    assert (higher["pairs_won"], lower["pairs_won"]) == (2, 1)
    # Medians 10.5 and 11.5; the parent's quartiles 9.75 and 11.25.
    assert higher["ratio"] == 11.5 / 10.5
    assert higher["parent_iqr"] == 11.25 - 9.75
    assert higher["quartiles"]["parent"] == (9.75, 10.5, 11.25)


def block(parent, change, better="higher"):
    return {"metrics": {"m": {"better": better, **bench_pairs.compare(
        {"parent": parent, "change": change}, SIDES, better)}}}


def test_a_claim_holds_on_nine_tenths_of_the_pairs_and_a_gain_beyond_the_spread():
    parent = [100.0 + i for i in range(10)]
    blocks = {
        "w_1": block(parent, [p + 20 for p in parent[:9]] + [90.0]),  # 9 of 10
        "w_2": block(parent, [p + 20 for p in parent[:8]] + [90.0, 90.0]),  # 8 of 10
        "w_3": block(parent, [p + 1 for p in parent]),  # gain inside the IQR
        "w_4": block(parent, [p - 20 for p in parent], "lower"),
        "aa_w_1": block(parent, parent),
    }
    found = bench_pairs.claim_result(blocks, "w", "m", [1, 2, 3, 4])
    assert [found[seed]["holds"] for seed in "1234"] == [True, False, False, True]
    assert (found["1"]["aa_ratio"], found["1"]["aa_parent_iqr"]) == (1.0, 4.5)
    assert found["2"]["aa_ratio"] is None


def test_a_claim_inside_the_aa_spread_does_not_hold():
    parent = [100.0 + i for i in range(10)]
    # 10 of 10 pairs and a median gain of 5 against a parent IQR of 4.5, but
    # two copies of the parent read further apart (1.057x) than the change
    # reads from the parent (1.048x).
    blocks = {"w_1": block(parent, [p + 5 for p in parent]),
              "aa_w_1": block(parent, [p + 6 for p in parent])}
    found = bench_pairs.claim_result(blocks, "w", "m", [1])["1"]
    assert (found["pairs_won"], found["median_gain"], found["parent_iqr"]) == (10, 5.0, 4.5)
    assert 1 < found["ratio"] < found["aa_ratio"]
    assert found["holds"] is False
