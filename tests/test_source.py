"""Rules the package's source keeps, read off its syntax trees."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bridgekit"


def modules():
    """Each module of the package, by file name, as a syntax tree."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 8
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sources}


def test_no_assert_does_real_checking():
    # python -O drops assert statements, so every check the package makes raises
    asserts = [
        f"{name}:{node.lineno}"
        for name, tree in modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


# What reads argv and writes stdout: only cli.py imports it.
TEXT_MODULES = {"argparse", "csv", "io", "json", "sys"}


def test_only_the_cli_reads_and_writes_text():
    imports = []
    for name, tree in modules().items():
        for node in ast.walk(tree) if name != "cli.py" else ():
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            imports += [
                f"{name}:{node.lineno} {module}"
                for module in imported
                if module.split(".")[0] in TEXT_MODULES or module == "typing.TextIO"
            ]
    assert imports == []
