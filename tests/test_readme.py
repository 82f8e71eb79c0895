"""The README's library tour and CLI examples run as written."""

import re
import shlex
from pathlib import Path

from genimpl import cli, specs

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_cli_examples_run(monkeypatch, tmp_path, capsys):
    # each `genimpl ...` line of the sh blocks, in a scratch directory for
    # the files it writes; counterexample finds its witness and exits 1
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = [shlex.split(line)[1:] for block in blocks
             for line in block.splitlines() if line.startswith("genimpl ")]
    assert len(lines) == 8
    monkeypatch.chdir(tmp_path)
    codes = [(argv[0], cli.main(argv)) for argv in lines]
    capsys.readouterr()
    assert codes == [(command, int(command == "counterexample")) for command, _ in codes]


def test_kinds_table_names_every_kind():
    # each role's row of the kinds table backquotes every kind of its table
    rows = dict(re.findall(r"^\| (\w+) \| (.*) \|$", README.read_text(), re.M))
    for role, kinds in (("operator", specs.OPERATORS), ("generator", specs.GENERATORS),
                        ("negation", specs.NEGATIONS), ("bijection", specs.BIJECTIONS)):
        named = set(re.findall(r"`(\w+)`", rows[role]))
        assert set(kinds) <= named, (role, sorted(set(kinds) - named))
