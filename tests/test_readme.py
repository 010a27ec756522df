"""The README's CLI and library examples, run as written on the README's model document.

Every `$ jacprop ...` line of the CLI section runs through `python -m
jacprop` (a trailing `# ...` comment is dropped) and must exit 0 and print
exactly the lines the README shows under it. The "Library use" block runs
as a script and must exit 0 without writing to stderr.
"""

import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(text: str, lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)


def _cli_examples() -> list[tuple[str, list[str]]]:
    section = README.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in _blocks(section, "sh"):
        for line in block.splitlines():
            if line.startswith("$ "):
                examples.append((line[2:], []))
            else:
                examples[-1][1].append(line)
    return examples


EXAMPLES = _cli_examples()


def test_every_subcommand_has_an_example():
    shown = {shlex.split(command)[1] for command, _ in EXAMPLES}
    assert shown == {"validate", "forward", "jacobian", "check", "report"}


@pytest.mark.parametrize("command,expected", EXAMPLES, ids=[command for command, _ in EXAMPLES])
def test_example_output_is_reproduced(tmp_path, command, expected):
    (doc,) = [block for block in _blocks(README, "json") if '"schema_version"' in block]
    (tmp_path / "net.json").write_text(doc, encoding="utf-8")
    program, *args = shlex.split(command, comments=True)
    assert program == "jacprop"
    result = subprocess.run(
        [sys.executable, "-m", "jacprop", *args], cwd=tmp_path, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "".join(line + "\n" for line in expected)


def test_library_example_runs(tmp_path):
    # the "Library use" block, run as a script next to the README's model document
    (doc,) = [block for block in _blocks(README, "json") if '"schema_version"' in block]
    (tmp_path / "net.json").write_text(doc, encoding="utf-8")
    (code,) = _blocks(README.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0], "python")
    result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "")
