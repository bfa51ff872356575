"""Module boundaries inside the package."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hybridtherm"


def test_no_private_names_imported_across_modules():
    siblings = {path.stem for path in PACKAGE.glob("*.py")}
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            module = node.module.split(".")[-1]
            internal = node.level == 1 or node.module.startswith("hybridtherm.")
            if not (internal and module in siblings):
                continue
            offenders += [
                f"{path.name}: {alias.name} from {module}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert offenders == []
