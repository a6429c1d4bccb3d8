import ast
from pathlib import Path

import lensknots


def test_library_has_no_assert():
    """Invariants are enforced by explicit errors, tests and checks, never by
    assert, which vanishes under python -O."""
    hits = []
    for path in sorted(Path(lensknots.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                hits.append(f"{path.name}:{node.lineno}")
    assert hits == []
