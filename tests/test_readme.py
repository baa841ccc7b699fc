"""Every fenced Python block of README.md runs as written, every uqagg
command of its sh blocks parses, and its JSON spec example is a valid spec."""

import re
import shlex
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run():
    blocks = _python_blocks(README.read_text(encoding="utf-8"))
    assert blocks, "README.md has no fenced Python block"
    # One namespace for all blocks, in order, as in one interpreter session.
    namespace = {"__name__": "__readme__"}
    for i, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)


def _names(lines, pattern):
    return {m.group(1) for m in map(re.compile(pattern).match, lines) if m}


def test_strategy_docs_list_exactly_the_table_names():
    from uqagg import strategies

    text = README.read_text(encoding="utf-8")
    section = text.split("## Aggregation strategies", 1)[1].split("\n## ", 1)[0]
    names = set(strategies.TABLE)
    assert _names(section.splitlines(), r"\| `([a-z]+)[:`]") == names
    assert _names(strategies.__doc__.splitlines(), r"    ([a-z]+)[\[: ]") == names


def _sh_commands(text):
    """Every ``uqagg`` command line of the README's sh blocks, continuations
    joined, as an argument list."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("uqagg "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_readme_commands_parse():
    from uqagg import cli

    commands = _sh_commands(README.read_text(encoding="utf-8"))
    assert {argv[0] for argv in commands} == {
        "synth", "aggregate", "gmm-fit", "gmm-score", "eval", "rank"}
    for argv in commands:
        try:
            cli._build_parser().parse_args(argv)
        except SystemExit:  # argparse's usage error
            pytest.fail(f"README command does not parse: uqagg {shlex.join(argv)}")


def test_readme_spec_example_is_a_valid_spec(tmp_path):
    from uqagg import cli

    blocks = re.findall(r"^```json\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1, "README.md should hold one ```json spec example"
    (tmp_path / "spec.json").write_text(blocks[0])
    assert cli.main(["synth", "--spec", str(tmp_path / "spec.json"),
                     "--out-dir", str(tmp_path / "data")]) == 0
    # five ladder steps of 50 + 50 samples
    manifests = sorted((tmp_path / "data").glob("manifest_step*.csv"))
    assert [len(m.read_text().splitlines()) - 1 for m in manifests] == [100] * 5
