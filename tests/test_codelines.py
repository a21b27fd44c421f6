"""``tools/codelines.py``'s count on a file that holds every kind of line it skips or keeps."""

import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "codelines.py"
_SPEC = importlib.util.spec_from_file_location("codelines", _PATH)
codelines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(codelines)

# 8 code lines: the import, the def, the call's 4 lines and the assigned
# string's 2; the docstrings, comments and blank lines count for nothing
SAMPLE = '''"""A module docstring,
over two lines."""

import os  # a trailing comment

# a comment line


def join(name):
    """A function docstring."""
    return os.path.join(
        name,
        "leaf",
    )


TEMPLATE = """a string
assigned to a name"""
'''


def test_counts_code_lines_only(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(SAMPLE)
    assert codelines.code_lines(sample) == 8


def test_prints_each_file_of_a_directory_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert codelines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "     8  a", "     1  b", "     9  total", ""]
