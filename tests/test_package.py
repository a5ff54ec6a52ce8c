import ast
from pathlib import Path

import sdskit


def test_no_assert_statements():
    # python -O strips assert statements, so none may guard a check
    found = []
    for path in sorted(Path(sdskit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
