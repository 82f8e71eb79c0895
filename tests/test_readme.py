"""The README's library tour and CLI examples run as written."""

import re
import shlex
from pathlib import Path

from genimpl import cli

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
