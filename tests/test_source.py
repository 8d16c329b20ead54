"""Rules the package's source keeps, read off its syntax trees."""

import ast
import importlib
import importlib.util
import inspect
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


def test_the_bench_tracer_finds_every_function_it_wraps():
    # bench/tracing.py wraps package functions by name: a rename or an inlined
    # function would break the traced bench runs, so tier-1 reads its names too
    path = PACKAGE.parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wrapped = [f"{module}.{name}" for module, names in tracing.SPANNED.items() for name in names]
    wrapped += [f"epim.{name}" for name in tracing.HOT] + [tracing.WORDS]

    def function(key):
        module, name = key.split(".")
        return getattr(importlib.import_module(f"{tracing.PACKAGE}.{module}"), name, None)

    assert [key for key in wrapped if not inspect.isfunction(function(key))] == []
    assert set(tracing.SEARCHES) <= set(wrapped)
    # its self-check compares the words counted with the yields a profiler sees
    assert function(tracing.WORDS).__code__.co_flags & inspect.CO_GENERATOR


def test_brute_counts_checks_every_remainder_it_takes():
    # brute_counts steps its word and fixed-word counts by exact ratios, each a
    # divmod whose remainder must reach the NonIntegralFormula raise.  The
    # fixed-word ratio is exact for any integer start, so no input makes its
    # remainder nonzero, and only the source shows that it is still checked
    tree = modules()["census.py"]
    function = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "brute_counts"
    )
    remainders = [
        node.targets[0].elts[1].id
        for node in ast.walk(function)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Call)
        and getattr(node.value.func, "id", None) == "divmod"
    ]
    raises = [
        node for node in ast.walk(function)
        if isinstance(node, ast.If)
        and any(
            isinstance(statement, ast.Raise)
            and getattr(getattr(statement.exc, "func", None), "id", None) == "NonIntegralFormula"
            for statement in node.body
        )
    ]
    assert len(remainders) >= 2 and len(raises) == 1
    checked = {node.id for node in ast.walk(raises[0].test) if isinstance(node, ast.Name)}
    assert set(remainders) <= checked
