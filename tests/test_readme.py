"""README's examples run and print what README says they print.

Python blocks are executed statement by statement. Each expression
statement with a trailing comment is checked: the comment's first
field (up to two spaces) is evaluated in the package namespace and
must equal the expression's value.

Shell blocks: each ``$ votephase ...`` command followed by printed
lines runs through ``cli.main``, and its stdout must equal those lines.
A trailing ``| head -N`` keeps the first N lines. Commands that show no
output are skipped: the two ``oracle`` examples. So is
``diagnose --input preds.csv``, whose input file is not in the repo.
"""

import ast
import io
import re
import shlex
import tokenize
from pathlib import Path

import pytest

import votephase
from votephase.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.M | re.S)


def _comments(source: str) -> dict:
    """Line number -> comment text without the leading '#'."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {t.start[0]: t.string[1:].strip() for t in tokens if t.type == tokenize.COMMENT}


def _checked_values() -> list:
    """(expression, actual, expected) for each commented expression."""
    namespace: dict = {}
    exports = {name: getattr(votephase, name) for name in votephase.__all__}
    checks = []
    for source in (body for lang, body in BLOCKS if lang == "python"):
        comments = _comments(source)
        for stmt in ast.parse(source).body:
            code = ast.get_source_segment(source, stmt)
            comment = comments.get(stmt.end_lineno)
            if isinstance(stmt, ast.Expr) and comment:
                actual = eval(code, namespace)
                expected = eval(re.split(r"\s{2,}", comment)[0], exports)
                checks.append((code, actual, expected))
            else:
                exec(code, namespace)
    return checks


def _shell_examples() -> list:
    """(command, printed lines) for each ``$ votephase`` command."""
    examples = []
    for source in (body for lang, body in BLOCKS if lang == "sh"):
        for chunk in re.split(r"^(?=\$ )", source, flags=re.M)[1:]:
            lines = chunk.splitlines()
            command = lines.pop(0)[2:]
            while command.endswith("\\"):
                command = command[:-1] + lines.pop(0)
            examples.append((command, lines))
    return examples


def test_python_values():
    checks = _checked_values()
    assert [code for code, _, _ in checks] == [
        "estimated_error(cfg)",
        "exact_error(cfg)",
        "delta(cfg)",
        "verdict.phase",
        "verdict.delta_inf",
        "verdict.region",
        "estimated_error(geom)",
        "est.value, est.std_error",
    ]
    for code, actual, expected in checks:
        assert actual == expected, code


SHELL = _shell_examples()
SKIPPED = [
    "votephase oracle --n 101 --p 0.6 --q 0.4 --pi 0.5          # exact error",
    "votephase oracle --n 15 --p 0.7 --q 0.3 --pi 0.5 --pmf     # + full pmf",
    "votephase diagnose --input preds.csv",
]


def test_skipped_shell_examples_are_the_documented_ones():
    assert [command for command, _ in SHELL if command in SKIPPED] == SKIPPED
    assert all(lines for command, lines in SHELL if command not in SKIPPED)


RUN = [(command, lines) for command, lines in SHELL if command not in SKIPPED]


@pytest.mark.parametrize("command,printed", RUN, ids=[command.split()[1] for command, _ in RUN])
def test_shell_output(command, printed, capsys):
    argv = shlex.split(command)
    assert argv[0] == "votephase"
    keep = None
    if argv[-3:-1] == ["|", "head"]:
        keep = int(argv[-1].lstrip("-"))
        argv = argv[:-3]
    assert main(argv[1:]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:keep] == printed
