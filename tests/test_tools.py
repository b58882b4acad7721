"""The repository's tools, run on fixed inputs."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"

# a blank line, comments, docstrings at three levels, a multi-line call and
# strings that are not docstrings; the code lines are marked "code"
SNIPPET = '''"""Module docstring,
over two lines."""

# a comment
import os  # code


class C:  # code
    """Class docstring."""

    def f(self, x):  # code
        """Function docstring,
        over two lines."""
        y = max(  # code
            x,  # code
            1,  # code
        )  # code
        "a later string is not a docstring"  # code
        return """a string  # code
over two lines"""  # code
'''


def test_loc_counts_lines_and_code_lines_of_a_snippet():
    spec = importlib.util.spec_from_file_location("loc", TOOLS / "loc.py")
    loc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loc)
    code_lines = [line for line in SNIPPET.splitlines() if line.endswith("# code")]
    assert loc.count(SNIPPET) == (len(SNIPPET.splitlines()), len(code_lines)) == (20, 10)
