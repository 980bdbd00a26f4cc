"""The README as a checked reference.

Its fenced ``python`` blocks and its ``sh`` examples run as written, its
exit-code table agrees with the ``cli`` module, its Library section lists
every exported name, every backticked module attribute resolves, and no
dated measurement stands outside the one cost-table section, which states
its commit, date, machine and Python.
"""

import importlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import superhaar
from superhaar import cli
from superhaar.fileio import builtin_fixture

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.MULTILINE | re.DOTALL)
SH_BLOCKS = re.findall(r"^```sh\n(.*?)^```", README, re.MULTILINE | re.DOTALL)
MODULES = ("fileio", "linalg", "enveloping", "frobenius", "modules", "algebra", "cli")
SHA = re.compile(r"`[0-9a-f]{7,40}`")
DATE = re.compile(r"\b\d{4}-\d{2}-\d{2}\b")


def sections():
    """(heading, text) of each ``## `` section, heading "" for the text
    before the first."""
    parts = re.split(r"^## (.*)\n", README, flags=re.MULTILINE)
    return [("", parts[0])] + list(zip(parts[1::2], parts[2::2]))


def test_readme_python_blocks_run():
    assert BLOCKS
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    for block in BLOCKS:
        run = subprocess.run([sys.executable, "-c", block], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr


def test_sh_examples_exit_as_annotated(monkeypatch):
    # the example block sets F to the fixture directory; each superhaar
    # line exits with its trailing "# exit N", or 0 without one
    (block,) = [b for b in SH_BLOCKS if b.startswith("F=")]
    lines = block.splitlines()
    fixtures = os.path.dirname(builtin_fixture("gl11.json"))
    assert (ROOT / lines[0][2:]).resolve() == Path(fixtures).resolve()
    monkeypatch.delenv("SUPERHAAR_MAX_ODD", raising=False)
    calls = [line for line in lines[1:] if line.startswith("superhaar ")]
    assert calls
    for line in calls:
        argv = shlex.split(line.replace("$F", shlex.quote(fixtures)), comments=True)
        expected = re.search(r"#\s*exit\s+(\d+)", line)
        assert cli.main(argv[1:]) == (int(expected.group(1)) if expected else 0), line


def test_exit_codes_agree():
    table = README.split("| code | meaning")[1].split("\n\n")[0]
    tabled = sorted(int(c) for c in re.findall(r"^\|\s*(\d+)\s*\|", table, re.MULTILINE))
    constants = sorted(v for k, v in vars(cli).items() if k.startswith("EXIT_"))
    documented = sorted(int(c) for c in re.findall(r"^\s+(\d+)\s", cli.__doc__, re.MULTILINE))
    assert tabled == documented == constants == [0, 1, 2, 3, 4, 70, 71, 130]


def test_library_section_documents_every_exported_name():
    library = dict(sections())["Library"]
    missing = [name for name in superhaar.__all__
               if not re.search(rf"`{re.escape(name)}\b", library)]
    assert missing == []


def test_backticked_module_attributes_resolve():
    # every backticked <mod>.<name> outside the fenced blocks
    prose = re.sub(r"^```.*?^```", "", README, flags=re.MULTILINE | re.DOTALL)
    pattern = re.compile(rf"(?:superhaar\.)?({'|'.join(MODULES)})\.(\w+)")
    found = [m.groups() for m in map(pattern.match, re.findall(r"`([^`]+)`", prose)) if m]
    assert len(found) >= 10
    unresolved = [f"{mod}.{name}" for mod, name in found
                  if not hasattr(importlib.import_module(f"superhaar.{mod}"), name)]
    assert unresolved == []


def test_no_dated_measurement_outside_the_cost_table():
    # a speed change rewrites the one cost table and nothing else
    found, costs = [], []
    for heading, text in sections():
        if heading.startswith("Cost"):
            costs.append(text)
        else:
            found += SHA.findall(text) + DATE.findall(text)
    assert found == []
    (cost,) = costs
    # the table states its commit, date, machine and Python
    assert SHA.search(cost) and DATE.search(cost)
    assert re.search(r"\d+-core", cost) and re.search(r"Python 3\.\d+\.\d+", cost)
    assert re.search(r"^\| gl\(", cost, re.MULTILINE)
