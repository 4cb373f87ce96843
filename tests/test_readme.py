"""The README's command-line examples print what their comments say, and
its "Limits" table names every bound.

In the README's "Command line" block, a ``polyplane ...`` line shows its
output either in a trailing ``# ...`` comment or in the comment lines that
follow it directly.  Each such line is run through ``cli.run`` and its
stdout compared with that text.
"""

import re
import shlex
from pathlib import Path

import pytest

from polyplane.cli import run

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def examples():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", text, re.S).group(1)
    lines = block.splitlines()
    found = []
    for k, line in enumerate(lines):
        if not line.startswith("polyplane "):
            continue
        command, _, inline = line.partition("  #")
        if inline:
            output = [inline.strip()]
        else:
            output = []
            for follow in lines[k + 1 :]:
                if not follow.startswith("#"):
                    break
                output.append(follow[2:])
        if output:
            found.append((shlex.split(command)[1:], "".join(out + "\n" for out in output)))
    return found


def test_the_readme_has_examples_with_outputs():
    commands = {argv[0] for argv, _ in examples()}
    assert {"expand", "render", "order", "invert", "dseq", "lfsr", "map", "encode", "decode"} <= commands


@pytest.mark.parametrize("argv, expected", examples(), ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_readme_example_prints_its_comment(argv, expected, capsys):
    assert run(argv) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (expected, "")


def test_the_limits_table_names_every_bound_and_no_other():
    text = README.read_text(encoding="utf-8")
    table = re.search(r"## Limits\n.*?\n(\|.*?)\n\n", text, re.S).group(1)
    listed = {name for row in table.splitlines()[2:] for name in re.findall(r"MAX_\w+", row.split("|")[1])}
    defined = {name for path in (ROOT / "src" / "polyplane").glob("*.py")
               for name in re.findall(r"^(MAX_\w+) =", path.read_text(encoding="utf-8"), re.M)}
    assert listed == defined
