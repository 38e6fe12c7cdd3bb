"""Session hooks: every run ends by stating the package's code lines."""

from code_lines import package_lines


def pytest_terminal_summary(terminalreporter):
    total = sum(package_lines().values())
    terminalreporter.write_line(f"votephase src code lines (tests/code_lines.py): {total}")
