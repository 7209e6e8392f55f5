"""Shared pytest wiring for the acceptance battery.

The acceptance tests record one summary line per criterion; the hook below
replays them after the run so they survive output capture.  `src/` is also
put on PYTHONPATH, so that the tests that start a fresh interpreter import
the same package as pytest itself (see `pythonpath` in pyproject.toml).
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

acceptance_lines: list = []


def record_line(line: str) -> None:
    acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if not acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in acceptance_lines:
        terminalreporter.write_line(line)
