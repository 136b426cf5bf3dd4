"""The README's examples, run: each ``$ capsid ...`` line of its shell block
through ``capsid.cli.main``, and its Python library block as written."""

import re
import shlex
from pathlib import Path

import pytest

from capsid.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)


def _shell_examples():
    """(argv, shown output or None) for every ``$ capsid`` line; the output
    is the lines under it up to a blank line or the next ``$`` line."""
    examples = []
    for _, body in BLOCKS:
        lines = body.splitlines()
        for i, line in enumerate(lines):
            if not line.startswith("$ capsid "):
                continue
            shown = []
            for out in lines[i + 1:]:
                if not out or out.startswith("$ "):
                    break
                shown.append(out)
            argv = shlex.split(line[len("$ capsid "):], comments=True)
            examples.append((argv, "\n".join(shown) + "\n" if shown else None))
    return examples


SHELL_EXAMPLES = _shell_examples()


def test_the_readme_has_examples_of_both_kinds():
    assert len(SHELL_EXAMPLES) >= 8
    assert sum(out is not None for _, out in SHELL_EXAMPLES) >= 4
    assert [lang for lang, _ in BLOCKS].count("python") == 1


@pytest.mark.parametrize("argv, shown", SHELL_EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in SHELL_EXAMPLES])
def test_shell_example(argv, shown, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    if shown is not None:
        assert out == shown


def test_library_example():
    (source,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(source, "README.md", "exec"), {})
