"""README.md's examples, run as written.

The Python quick start is executed, and each of its `# True` lines must
hold.  Each `$ lorentzmet ...` transcript of a shell block is run through
`cli.main` on the files its `$ cat ...` transcripts show, and its output
must equal the one printed: as JSON when it is JSON, else line by line.
"""

import json
import shlex
from pathlib import Path

import pytest

from lorentzmet.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    parts = README.split(f"```{lang}\n")[1:]
    return [part.split("```", 1)[0] for part in parts]


def _transcripts() -> list[tuple[str, str]]:
    """(command, printed output) for each `$ ` line of the shell blocks."""
    out = []
    for block in _blocks("sh"):
        for chunk in block.split("$ ")[1:]:
            command, _, printed = chunk.partition("\n")
            out.append((command, printed.strip()))
    return out


TRANSCRIPTS = _transcripts()
FILES = {cmd.split()[1]: printed for cmd, printed in TRANSCRIPTS
         if cmd.startswith("cat ")}
COMMANDS = [(cmd, printed) for cmd, printed in TRANSCRIPTS
            if cmd.startswith("lorentzmet ")]


def test_quick_start_runs_as_written():
    code, = _blocks("python")
    namespace = {}
    exec(code, namespace)
    claims = [line.split("#")[0] for line in code.splitlines()
              if line.rstrip().endswith("# True")]
    assert claims
    for claim in claims:
        assert eval(claim, namespace) is True, claim


def test_readme_shows_the_chains_it_reads():
    assert json.loads(FILES["chain.json"])["d"] == [[0, 1], [0, 0]]
    assert json.loads(FILES["chain125.json"])["d"] == [[0, 1.25], [0, 0]]
    shown = {cmd.split()[1] for cmd, _ in COMMANDS}
    assert {"validate", "tau", "gh"} <= shown


@pytest.mark.parametrize("command, printed", COMMANDS,
                         ids=[cmd for cmd, _ in COMMANDS])
def test_cli_example_prints_what_the_readme_shows(
        tmp_path, monkeypatch, capsys, command, printed):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    command, _, pipe = command.partition("|")
    argv = [a for a in shlex.split(command)[1:] if a != "2>/dev/null"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    if pipe:  # the one filter the README uses: head -N
        head, count = pipe.split()
        assert head == "head"
        out = "\n".join(out.splitlines()[:int(count.lstrip("-"))])
    if printed.startswith("{"):
        assert json.loads(out) == json.loads(printed)
    else:
        assert out.strip().splitlines() == printed.splitlines()
