"""Static checks on the package source that need no linter."""

import ast
import importlib
from pathlib import Path

import loraq

SRC = Path(loraq.__file__).parent


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_no_unused_imports():
    unused = [hit for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
              for hit in _unused_imports(path)]
    assert unused == []


class _RecordingTracer:
    """Stands in for the benchmark's tracer and records what it is asked to wrap."""

    def __init__(self):
        self.pairs = []

    def wrap(self, module, attr, *_, **__):
        self.pairs.append((module, attr))


def test_benchmark_trace_hooks_exist(monkeypatch):
    # The traced benchmark run wraps these call sites by attribute name; a
    # rename would otherwise surface only when a traced run fails.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    layers = importlib.import_module("lqbench.layers")
    tracer = _RecordingTracer()
    layers.install(tracer)
    assert len(tracer.pairs) > 10
    missing = [f"{module.__name__}.{attr}" for module, attr in tracer.pairs
               if not callable(getattr(module, attr, None))]
    assert missing == []
