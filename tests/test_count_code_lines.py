"""tools/count_code_lines.py counts code lines: no docstrings, comments or blanks."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_code_lines.py"
spec = importlib.util.spec_from_file_location("count_code_lines", TOOL)
counter = importlib.util.module_from_spec(spec)
spec.loader.exec_module(counter)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment-only line

import os  # a code line with a trailing comment

TEMPLATE = """first
second
third"""


class Box:
    """Class docstring."""

    def size(self):
        """Function docstring,

        over three lines."""
        return len(TEMPLATE)
'''


def test_counts_code_and_multiline_strings_not_docstrings_or_comments(tmp_path, capsys):
    f = tmp_path / "sample.py"
    f.write_text(SOURCE)
    # import, the three TEMPLATE lines, class, def, return
    assert counter.count_code_lines(f) == 7
    assert counter.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"     7  {f}\n     7  total\n"
