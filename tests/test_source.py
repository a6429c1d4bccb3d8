import ast
import types
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


def test_all_lists_the_public_names():
    """__all__ is written by hand; it must name exactly the package's public
    non-module attributes, once each."""
    names = lensknots.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(lensknots, n)] == []
    public = {
        n
        for n, v in vars(lensknots).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert set(names) == public
