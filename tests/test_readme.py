"""The README's examples: each printed command-line block must be the exact
stdout of `cli.main`, and the library quick start must run, so the examples
cannot go stale."""

import json
import shlex
from pathlib import Path

import pytest

from uplink_noma.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples():
    """(argv, printed output) of every `$ uplink-noma ...` line in a README
    code block; the output is the block's lines up to the next command."""
    examples, current, in_block = [], None, False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block, current = not in_block, None
        elif in_block and line.startswith("$ uplink-noma "):
            current = (shlex.split(line[2:])[1:], [])
            examples.append(current)
        elif current is not None:
            current[1].append(line)
    return [(argv, "\n".join(lines).rstrip("\n") + "\n") for argv, lines in examples]


EXAMPLES = _examples()


def test_every_subcommand_has_an_example():
    assert {argv[0] for argv, _ in EXAMPLES} == {"alloc", "pair", "sweep"}


@pytest.mark.parametrize("argv, printed", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_example_prints_its_readme_block(capsys, argv, printed):
    assert main(argv) == 0
    assert capsys.readouterr().out == printed


def test_configuration_example_runs_as_a_sweep_config(tmp_path, capsys):
    section = README.read_text(encoding="utf-8").split("## Configuration", 1)[1]
    block = section.split("```", 2)[1]
    config = tmp_path / "example.cfg"
    config.write_text(block, encoding="utf-8")
    assert main(["sweep", "--config", str(config)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["mode"], payload["trials"], payload["seed"]) == ("four-user-cases", 5000, 7)


def test_library_quick_start_runs():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, f"{README}:library quick start", "exec"), namespace)
    assert namespace["result"].series["sum_noma"].size == 9
