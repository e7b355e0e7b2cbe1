"""Static import checks over the whole ``repro`` package.

Both tests read the ``import`` / ``from`` statements of every module
under ``src/repro`` with :mod:`ast`, without importing anything:

* every module is reached from a command or API entry point, so code
  no command runs does not accumulate;
* the third-party packages the code imports are exactly the runtime
  dependencies ``pyproject.toml`` declares.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:     # Python 3.10
    tomllib = pytest.importorskip("tomli")

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

ENTRY_POINTS = ("repro.cli", "repro.api", "repro.__main__",
                "repro.experiments")

#: Modules no entry point imports, each kept for a stated reason.
UNREACHED = {
    "repro.bus.handshakes":
        "signal-level oracle the bus tests hold the command costs to",
    "repro.obs.__main__": "`python -m repro.obs` trace validator",
    "repro.validate.__main__": "`python -m repro.validate` report checker",
}


def _modules() -> dict[str, Path]:
    """Every module of the package, by dotted name."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _imports(name: str, path: Path) -> set[str]:
    """Absolute names of what *path*'s import statements import,
    including the imported names of ``from`` statements (which may be
    submodules) and lazy imports inside functions."""
    is_package = path.name == "__init__.py"
    package = name if is_package else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")
                base = base[:len(base) - node.level + 1]
                if node.module:
                    base.append(node.module)
                module = ".".join(base)
            else:
                module = node.module
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def _with_parents(name: str) -> list[str]:
    """*name* and the packages whose ``__init__`` importing it runs."""
    parts = name.split(".")
    return [".".join(parts[:i]) for i in range(1, len(parts) + 1)]


def test_every_module_is_reached_from_an_entry_point():
    modules = _modules()
    reached = set()
    frontier = [m for entry in ENTRY_POINTS for m in _with_parents(entry)]
    while frontier:
        name = frontier.pop()
        if name in reached or name not in modules:
            continue
        reached.add(name)
        for imported in _imports(name, modules[name]):
            frontier.extend(_with_parents(imported))
    unreached = set(modules) - reached
    assert unreached == set(UNREACHED), (
        f"modules no entry point imports: "
        f"{sorted(unreached - set(UNREACHED))}; listed as unreached "
        f"but imported: {sorted(set(UNREACHED) - unreached)}")


def test_third_party_imports_are_the_declared_dependencies():
    imported = set()
    for name, path in _modules().items():
        imported.update(module.partition(".")[0]
                        for module in _imports(name, path))
    third_party = imported - set(sys.stdlib_module_names) - {"repro"}
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower()
                .replace("-", "_") for req in requirements}
    assert third_party == declared == {"numpy", "scipy"}
