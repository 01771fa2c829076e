"""Static checks on the package source that need no linter."""

import ast
import importlib
import sys
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


def _imported_roots(path: Path) -> set[str]:
    """Top-level names of the absolute imports in ``path``."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_package_imports_only_numpy_and_the_standard_library():
    # scipy and others may be installed, but the package depends on numpy only
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    foreign = [f"{path.name}: {root}" for path in sorted(SRC.glob("*.py"))
               for root in sorted(_imported_roots(path) - allowed)]
    assert foreign == []


def _environment_reads(path: Path) -> list[str]:
    """``os.environ``/``os.getenv`` uses and imports of them in ``path``."""
    names = {"environ", "environb", "getenv", "getenvb"}
    hits = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in names:
            hits.append(f"{path.name}:{node.lineno}: {node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            hits += [f"{path.name}:{node.lineno}: {alias.name}"
                     for alias in node.names if alias.name in names]
    return hits


def test_package_reads_no_environment():
    # run settings come from flags and --config only, so that a run is
    # reproduced by its command line
    reads = [hit for path in sorted(SRC.glob("*.py")) for hit in _environment_reads(path)]
    assert reads == []


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


def _calls_to(path: Path, name: str) -> int:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sum(1 for node in ast.walk(tree) if isinstance(node, ast.Call)
               and (getattr(node.func, "id", None) == name
                    or getattr(node.func, "attr", None) == name))


def test_only_the_shared_loop_calls_adam_step():
    # absorption and rotation run numerics.adam_descent; an optimizer loop
    # written anywhere else would be a second copy of it
    callers = {path.name: count for path in sorted(SRC.glob("*.py"))
               if (count := _calls_to(path, "adam_step"))}
    assert callers == {"numerics.py": 1}


_FORMAT_CLASSES = {"FormatSpec", "IntCodec", "MinifloatCodec", "PassthroughCodec"}


def _format_builds(path: Path) -> int:
    """Calls in ``path`` of a format or codec class, or of one of its class
    methods: ``FormatSpec(...)``, ``formats.IntCodec(...)``,
    ``FormatSpec.from_dict(...)``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sum(1 for node in ast.walk(tree) if isinstance(node, ast.Call)
               and (getattr(node.func, "id", None) in _FORMAT_CLASSES
                    or getattr(node.func, "attr", None) in _FORMAT_CLASSES
                    or getattr(getattr(node.func, "value", None), "id", None)
                    in _FORMAT_CLASSES))


def test_only_formats_builds_formats():
    # every other module takes its formats from make_format, by name, so no
    # module builds a format or a codec from data
    builders = {path.name for path in sorted(SRC.glob("*.py")) if _format_builds(path)}
    assert builders == {"formats.py"}


def _attribute_reads(path: Path, attr: str) -> int:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sum(1 for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == attr)


def test_only_formats_reads_block_size():
    # the packed layout (block count, padding, bytes per code row) is derived
    # in formats alone; a block size read elsewhere would be a second copy
    readers = {path.name for path in sorted(SRC.glob("*.py"))
               if _attribute_reads(path, "block_size")}
    assert readers == {"formats.py"}


def _names_of_stored_dtypes(path: Path) -> int:
    """Uses in ``path`` of a stored dtype: ``float16``, ``uint16`` or
    ``uint8`` by name or attribute, or ``"<f2"``, ``"<u2"`` or ``"u1"``."""
    names, strings = {"float16", "uint16", "uint8"}, {"<f2", "<u2", "u1"}
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sum(1 for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr in names
               or isinstance(node, ast.Name) and node.id in names
               or isinstance(node, ast.Constant) and node.value in strings)


def test_only_formats_names_the_stored_dtypes():
    # FormatSpec.stored_arrays decides what a tensor stores; a stored dtype
    # named elsewhere would be a second copy of that decision
    namers = {path.name for path in sorted(SRC.glob("*.py"))
              if _names_of_stored_dtypes(path)}
    assert namers == {"formats.py"}


def test_only_formats_reads_the_kept_fields():
    # a tensor's lookup fields are laid out by formats' rules (codes per
    # field, packed bytes or unpacked words); a reader elsewhere would be a
    # second copy of those rules
    readers = {path.name for path in sorted(SRC.glob("*.py"))
               if _attribute_reads(path, "_fields")}
    assert readers == {"formats.py"}


def test_only_pipeline_reads_the_branch_factors():
    # bundle_io and cli reach the three packed tensors through
    # LayerBundle.tensors(), in the order BundleMeta.tensor_layout() names them
    readers = {path.name for path in sorted(SRC.glob("*.py"))
               for attr in ("lowrank_left", "lowrank_right")
               if _attribute_reads(path, attr)}
    assert readers == {"pipeline.py"}


def _readers_of(path: Path, attrs: set[str]) -> set[str]:
    """Qualified names of the functions in ``path`` that read one of
    ``attrs``, as an attribute or as a global."""
    readers = set()

    def visit(node, scope):
        if (isinstance(node, ast.Attribute) and node.attr in attrs
                or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                and node.id in attrs):
            readers.add(".".join(scope))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = [*scope, node.name]
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), [])
    return readers


def test_one_reconstruction_of_the_branch():
    # reconstruct_weight builds the whole reconstruction and
    # _reconstructed_groups streams it by row groups for the error reports;
    # another inline L @ R would be a third copy of it
    readers = _readers_of(SRC / "pipeline.py", {"lowrank_left", "lowrank_right"})
    assert readers == {"LayerBundle.tensors", "reconstruct_weight",
                       "_reconstructed_groups", "forward"}


def test_only_the_lookup_and_the_check_read_the_decode_tables():
    # _code_table decodes by a codec's table and _check_codes refuses the
    # patterns it marks NaN; a third reader would be a second decoder or
    # a second check
    readers = _readers_of(SRC / "formats.py", {"decode_table"})
    assert readers == {"_code_table", "_check_codes"}


def test_only_the_chunk_plan_reads_the_chunk_tags():
    # save_bundle and load_bundle walk bundle_io._chunk_plan; a chunk tag
    # read anywhere else would be a second copy of the LRQB layout
    readers = {f"{path.stem}.{reader}" for path in sorted(SRC.glob("*.py"))
               for reader in _readers_of(path, {"_TAG_PREFIX", "_GAMMA_TAG"})}
    assert readers == {"bundle_io._chunk_plan"}


# Exported functions that no package module calls, each with why it stays.
# Anything exported only for tests belongs in tests/oracles.py instead.
_UNCALLED_EXPORTS = {
    "pipeline.forward": "user API: serving a bundle; the CLI only measures errors",
    "bundle_io.save_tensor": "user API: writes the LQT1 inputs the CLI reads",
    "bundle_io.save_stats": "user API: writes the LQS1 statistics `--stats` reads",
    "formats.registry_names": "user API: lists the names make_format accepts",
    "formats.matmul_dequantized": "user API: one product with finite activations; "
                                  "forward runs its unchecked core and checks its output",
    "rotation.rotation_grad": "benchmark hook: the traced run wraps it per step",
    "pipeline.reconstruct_weight": "user API: the whole effective weight; the error "
                                   "reports stream its row groups instead",
}


def _exported_functions(tree: ast.Module) -> set[str]:
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets):
            exported = {element.value for element in node.value.elts}
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in exported}


def test_every_exported_function_is_called_or_listed():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    uncalled = {f"{module}.{name}" for module, tree in trees.items()
                for name in _exported_functions(tree) if name not in referenced}
    assert uncalled == set(_UNCALLED_EXPORTS)
