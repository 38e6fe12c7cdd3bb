from code_lines import code_lines

SNIPPET = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line


class Box:
    """Class docstring."""

    # a comment line
    def area(self, w, h):
        """Function docstring."""
        text = """a string that is
not a docstring"""
        return math.prod(
            [w, h],
        )
'''


def test_counts_code_without_docstrings_comments_or_blanks():
    # import, class, def, the two-line string, the three-line call
    assert code_lines(SNIPPET) == 1 + 1 + 1 + 2 + 3
