import ast
import sys
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")


def test_oracles_import_only_the_standard_library():
    # The helpers are the tests' second routes, so they may not read singlab
    # (or anything else outside the standard library).
    imported = set()
    for node in ast.walk(ast.parse(ORACLES.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    top_level = {name.split(".")[0] for name in imported}
    assert imported and top_level <= sys.stdlib_module_names, sorted(imported)
