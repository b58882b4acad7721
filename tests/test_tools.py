"""The repository's tools, run on fixed inputs."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TOOLS = REPO / "tools"

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


def _ab(parent_src, change_src):
    return subprocess.run(
        [sys.executable, str(TOOLS / "ab.py"), str(parent_src), str(change_src),
         "--rounds", "1"],
        capture_output=True, text=True, timeout=300,
    )


def test_ab_reports_equal_traces_for_two_copies_of_one_tree():
    done = _ab(REPO / "src", REPO / "src")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "louvain: 24 questions, traces equal" in lines
    assert "hierarchical: 24 questions, traces equal" in lines
    assert sum("change cheaper in " in line for line in lines) == 3  # louvain, hierarchical, ingest


def test_ab_exits_nonzero_when_the_traces_differ(tmp_path):
    shutil.copytree(REPO / "src" / "fasttog", tmp_path / "fasttog",
                    ignore=shutil.ignore_patterns("__pycache__"))
    detect = tmp_path / "fasttog" / "detect.py"
    source = detect.read_text(encoding="utf-8")
    swapped = source.replace('"louvain": (_louvain_states,', '"louvain": (_random_states,')
    assert swapped != source
    detect.write_text(swapped, encoding="utf-8")
    done = _ab(REPO / "src", tmp_path)
    assert done.returncode == 1, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("louvain: 24 questions, traces differ at question ")
    assert "hierarchical: 24 questions, traces equal" in lines


def test_ab_reports_equal_dumps_for_two_copies_of_one_tree(tmp_path):
    for side in ("parent", "change"):
        shutil.copytree(REPO / "src" / "fasttog", tmp_path / side / "fasttog",
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = _ab(tmp_path / "parent", tmp_path / "change")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    at = lines.index("ingest: 40000 triples, dumps equal")
    assert lines[at + 1].startswith("  parent  median ")
    assert lines[at + 2].startswith("  change  median ")
    assert lines[at + 3].startswith("  change cheaper in ") and "/1 rounds" in lines[at + 3]


def test_ab_exits_nonzero_when_the_stores_differ(tmp_path):
    # the change reads every object as its row's subject; graphs built from
    # triples, as the engine sets build theirs, are unchanged
    shutil.copytree(REPO / "src" / "fasttog", tmp_path / "fasttog",
                    ignore=shutil.ignore_patterns("__pycache__"))
    kg = tmp_path / "fasttog" / "kg.py"
    source = kg.read_text(encoding="utf-8")
    swapped = source.replace("yield cells[0::3], cells[1::3], cells[2::3]",
                             "yield cells[0::3], cells[1::3], cells[0::3]")
    assert swapped != source
    kg.write_text(swapped, encoding="utf-8")
    done = _ab(REPO / "src", tmp_path)
    assert done.returncode == 1, done.stderr
    lines = done.stdout.splitlines()
    assert "louvain: 24 questions, traces equal" in lines
    assert "hierarchical: 24 questions, traces equal" in lines
    assert lines[-1] == "ingest: 40000 triples, dumps differ"
