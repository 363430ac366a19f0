"""Package layout: modules share no private names."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "frameforge"


def private_relative_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{node.lineno} imports {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names if alias.name.startswith("_")]


def test_no_module_imports_another_modules_private_names():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 10
    assert [hit for path in paths for hit in private_relative_imports(path)] == []


def test_checker_sees_function_local_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f():\n    from .framebounds import _analysis_blocks\n")
    assert private_relative_imports(probe) == ["probe.py:2 imports _analysis_blocks"]
