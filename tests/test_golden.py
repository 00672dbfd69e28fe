"""Golden transcripts: the scenario corpus, `order_demo()` and every
`--help` text, byte for byte.

The files in `tests/golden/` were written by `evosim scenario
scenarios/NAME.scn` (one `NAME.txt` per scenario) and by `order_demo()`.
Criterion 9 checks that two replays in one process agree; these tests check
that the output has not changed at all. The files in `tests/golden/help/`
were written by `evosim --help` (`evosim.txt`) and `evosim COMMAND --help`
(`COMMAND.txt`) with COLUMNS=80.
"""

from pathlib import Path

import pytest

from evosim import order_demo
from evosim.cli import main
from evosim.scenario import execute_scenario, parse_scenario

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SCENARIOS = sorted((ROOT / "scenarios").glob("*.scn"))
COMMANDS = ("run", "query", "scenario", "repl", "snapshot", "trace")


def test_every_scenario_has_a_golden_transcript():
    assert SCENARIOS
    names = {p.stem for p in SCENARIOS} | {"order_demo"}
    assert names == {p.stem for p in GOLDEN.glob("*.txt")}


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_scenario_transcript_matches_the_golden_file(path, capsys):
    golden = (GOLDEN / f"{path.stem}.txt").read_text(encoding="utf-8")
    scenario = parse_scenario(path.read_text(encoding="utf-8"))
    transcript, passed = execute_scenario(scenario, base_dir=path.parent)
    assert passed
    assert transcript == golden
    assert main(["scenario", str(path)]) == 0
    assert capsys.readouterr().out == golden


def test_order_demo_matches_the_golden_file():
    golden = (GOLDEN / "order_demo.txt").read_text(encoding="utf-8")
    assert order_demo() == golden


def test_every_help_text_has_a_golden_file():
    names = {"evosim", *COMMANDS}
    assert names == {p.stem for p in (GOLDEN / "help").glob("*.txt")}


@pytest.mark.parametrize("command", ("evosim", *COMMANDS))
def test_help_text_matches_the_golden_file(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    golden = (GOLDEN / "help" / f"{command}.txt").read_text(encoding="utf-8")
    argv = ["--help"] if command == "evosim" else [command, "--help"]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 0
    assert capsys.readouterr().out == golden
