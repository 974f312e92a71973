import importlib.util
from pathlib import Path


def load_code_lines():
    path = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_statement_lines_only():
    source = '''"""Module docstring,
over two lines."""

import os  # a trailing comment


class A:
    """Class docstring."""

    def f(self, x):
        """Function docstring."""
        # a comment line
        text = """a string that is
not a docstring"""
        return (x +
                1)


"""A bare string after the first statement is code."""
'''
    # import, class, def, the two lines of text, the two of return, and the
    # bare string
    assert load_code_lines().code_lines(source) == 8


def test_counts_every_module(tmp_path, capsys):
    pkg = tmp_path / "teesplit"
    pkg.mkdir()
    (pkg / "a.py").write_text('"""Doc."""\nx = 1\ny = 2\n')
    (pkg / "b.py").write_text("\n# only a comment\nz = 3\n")
    load_code_lines().main(["code_lines.py", str(tmp_path)])
    assert capsys.readouterr().out.split() == ["a", "2", "b", "1", "total", "3"]
