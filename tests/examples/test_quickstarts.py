"""The documented quickstarts run as written.

The README's "Quickstart" section and the ``repro`` package docstring
each show the pipeline in a few lines of Python.  Both are executed here,
each in one fresh namespace (later blocks reuse earlier blocks' names,
as a reader pasting them in order would).
"""

import pathlib
import re
import textwrap

import repro

ROOT = pathlib.Path(__file__).resolve().parents[2]


def readme_quickstart_blocks():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Quickstart", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def docstring_literal_blocks():
    """Every ``::`` literal block of the package docstring."""
    blocks = []
    for match in re.finditer(r"::\n\n((?:    .*\n|\n)+)", repro.__doc__):
        blocks.append(textwrap.dedent(match.group(1)))
    return blocks


def run_blocks(blocks):
    namespace = {"__name__": "quickstart"}
    for block in blocks:
        exec(compile(block, "<quickstart>", "exec"), namespace)
    return namespace


def test_readme_quickstart_runs(capsys):
    blocks = readme_quickstart_blocks()
    assert len(blocks) == 2
    namespace = run_blocks(blocks)
    assert namespace["result"].cycles_proposed > 0
    assert "speedup over no prediction" in capsys.readouterr().out


def test_package_docstring_quickstart_runs(capsys):
    blocks = docstring_literal_blocks()
    assert len(blocks) == 2
    namespace = run_blocks(blocks)
    assert namespace["result"].cycles_proposed > 0
    assert namespace["compilation"].speculated_labels
    assert "speedup over no prediction" in capsys.readouterr().out
