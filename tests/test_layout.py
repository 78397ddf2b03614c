"""The session container layout has one owner: only ``session.py`` names the
files of the trial and synced containers, the sidecars that cache their CSVs
included, calls the manifest codec or imports the private helpers of
``session.py``. Every other module goes through ``read_manifest``,
``trial_dirs``, ``read_dialogues``, ``load_synced`` and friends."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sessionforge"
OWNER = "session.py"
OWNED = (
    "manifest.json",
    "dialogue.jsonl",
    "streams/",
    ".timestamps.csv",
    ".wav",
    ".csv.",  # in a sidecar's name, ``.<name>.csv.<sha256>.<dtype code>``
    "_sidecar",
    "_manifest_from_dict",
    "_manifest_to_dict",
    "grid.json",
    "grid.csv",
    "selections/",
    "sync_report.json",
)
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != OWNER)


def test_owner_exists():
    assert (SRC / OWNER).is_file()
    assert MODULES


@pytest.mark.parametrize("module", MODULES, ids=[p.name for p in MODULES])
def test_layout_named_only_in_session(module):
    text = module.read_text(encoding="utf-8")
    assert [name for name in OWNED if name in text] == []


@pytest.mark.parametrize("module", MODULES, ids=[p.name for p in MODULES])
def test_no_private_session_import(module):
    tree = ast.parse(module.read_text(encoding="utf-8"))
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("session", "sessionforge.session")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_recorder_applies_the_whole_session_rule():
    """``transport.py`` checks what it records with ``session_checks``, the
    rule save applies, and imports none of its parts, so it cannot keep a
    subset of the rule of its own."""
    tree = ast.parse((SRC / "transport.py").read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("session", "sessionforge.session")
        for alias in node.names
    }
    parts = {"descriptor_violations", "series_violations", "audio_checks", "validate_session"}
    assert "session_checks" in imported
    assert imported & parts == set()


def test_grid_stage_takes_what_the_native_stage_left():
    """``cli`` sends the grid-rate stage every stream ``denoise_raw`` left, and
    classifies none itself: the filter stages own which stream each filters."""
    assert "classify_stream" not in (SRC / "cli.py").read_text(encoding="utf-8")


def test_stream_roles_are_matched_only_in_filters():
    """``filters.classify_stream`` is the one rule of which stream is which:
    ``metrics`` finds the ee and wheelchair streams by its class and their
    axes, and no other module imports ``re`` to match stream names its own way."""
    importers = {
        module.name
        for module in SRC.glob("*.py")
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Import) and any(alias.name == "re" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "re")
    }
    assert importers == {"filters.py"}


NPY_CODEC = {f"{numpy}.{name}" for numpy in ("np", "numpy") for name in ("save", "load", "lib.format")}


def _npy_codec_uses(tree: ast.AST) -> list[str]:
    """The uses in ``tree`` of numpy's ``.npy`` codec: ``np.save``,
    ``np.load`` and ``np.lib.format``, spelled ``np`` or ``numpy``, called or
    imported."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names = [ast.unparse(node)]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
        else:
            names = []
        found += [name for name in names if name in NPY_CODEC]
    return found


def test_one_sidecar_codec():
    """A sidecar has one writer, ``session._write_sidecar``, and one reader,
    ``session._read_sidecar``, in one format: no module in the package saves,
    loads or parses numpy's ``.npy`` files."""
    sample = ast.parse(
        "np.save(p, a); numpy.load(p); np.lib.format.read_magic(f)\n"
        "from numpy.lib.format import read_array_header_1_0; from numpy import save\n"
        "np.fromfile(f, d, n); np.loadtxt(lines); np.savetxt(p, a); np.lib.stride_tricks"
    )
    assert len(_npy_codec_uses(sample)) == 5
    found = [
        f"{module.name}: {use}"
        for module in sorted(SRC.glob("*.py"))
        for use in _npy_codec_uses(ast.parse(module.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_one_manifest_reader():
    """``read_manifest`` is the only manifest reader, so every command and
    both loaders check a manifest by one rule."""
    tree = ast.parse((SRC / OWNER).read_text(encoding="utf-8"))
    readers = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and "read" in node.name and "manifest" in node.name
    ]
    assert readers == ["read_manifest"]


FRAME_CHECKS = {
    "topic terminator": lambda node: isinstance(node, ast.Call)
    and ast.unparse(node.func).endswith("find")
    and ast.unparse(node.args[:1]) == "b'\\x00'",
    "topic": lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == "_new_topic",
    "payload size": lambda node: isinstance(node, ast.BinOp)
    and isinstance(node.op, ast.Mod)
    and ast.unparse(node.right) == "8",
    "length bound": lambda node: isinstance(node, ast.Compare) and "_MAX_BODY" in ast.unparse(node),
}


def _frame_checks(tree: ast.AST) -> set[tuple[str, str]]:
    """(check, function) for each of ``FRAME_CHECKS`` a function in ``tree``
    applies, named by its innermost function."""
    found = set()

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(child, ast.FunctionDef) else function
            found.update((check, name) for check, test in FRAME_CHECKS.items() if test(child))
            visit(child, name)

    visit(tree, "<module>")
    return found


def test_one_frame_walker():
    """``transport._walk`` is the one rule of a well-formed TCP frame: no
    other function looks for the topic terminator with ``find``, makes a
    topic, tests a payload's size or holds a length field to the bound.
    ``frame_decode`` accepts and refuses through it, and words why only after
    the walk refused; ``TcpFrame.encode`` refuses a body above the bound."""
    sample = ast.parse(
        'def f(buf, n):\n    buf.find(b"\\x00", 4); _new_topic(t, k); n % 8; n > _MAX_BODY\n'
        'def g(buf, n):\n    buf.find(b"x"); n % 4; _MAX_BODY + 1'
    )
    assert _frame_checks(sample) == {(check, "f") for check in FRAME_CHECKS}
    found = {
        (check, f"{module.stem}.{function}")
        for module in sorted(SRC.glob("*.py"))
        for check, function in _frame_checks(ast.parse(module.read_text(encoding="utf-8")))
    }
    assert found == {(check, "transport._walk") for check in FRAME_CHECKS} | {
        ("length bound", "transport.encode")
    }


def _file_writes(tree: ast.AST) -> list[ast.Call]:
    """The calls in ``tree`` that may write a file: ``write_bytes``,
    ``write_text``, an ``os.open`` with a write flag, and an ``open``,
    ``Path.open`` or ``wave.open`` whose mode is not a constant read mode.
    ``wave.open`` of a name bound to an ``io.BytesIO`` writes memory, not a
    file."""
    buffers = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
        and ast.unparse(node.value.func) == "io.BytesIO"
        for target in node.targets
        if isinstance(target, ast.Name)
    }

    def mode_writes(call: ast.Call, mode_at: int) -> bool:
        """Whether the mode, positional ``mode_at`` or ``mode=``, may write."""
        modes = call.args[mode_at : mode_at + 1]
        modes += [k.value for k in call.keywords if k.arg == "mode"]
        if not modes:
            return False
        return not (isinstance(modes[0], ast.Constant) and set(modes[0].value) <= set("rbt"))

    found = []
    for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
        name = ast.unparse(call.func)
        if name == "os.open":
            flags = {n.attr for n in ast.walk(call.args[1]) if isinstance(n, ast.Attribute)}
            hit = bool(flags & {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"})
        elif name == "wave.open":
            first = call.args[0] if call.args else None
            hit = mode_writes(call, 1) and not (isinstance(first, ast.Name) and first.id in buffers)
        elif name == "open":
            hit = mode_writes(call, 1)
        elif isinstance(call.func, ast.Attribute):
            attr = call.func.attr
            hit = attr in ("write_bytes", "write_text") or (attr == "open" and mode_writes(call, 0))
        else:
            hit = False
        if hit:
            found.append(call)
    return found


def test_one_file_writer():
    """Every file the package writes, a container's, a sidecar or one a
    command names, is written by ``session._replace_file``, which replaces it
    whole; the encoders return bytes."""
    sample = ast.parse(
        'open(p, "w"); p.open("ab"); os.open(p, os.O_WRONLY); wave.open(str(p), "wb")\n'
        'p.write_text(""); p.write_bytes(b""); open(p); p.open("rb"); os.open(p, os.O_RDONLY)\n'
        'buf = io.BytesIO(); wave.open(buf, "wb"); wave.open(p)'
    )
    assert len(_file_writes(sample)) == 6
    writer = next(
        node
        for node in ast.walk(ast.parse((SRC / OWNER).read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "_replace_file"
    )
    inside = _file_writes(writer)
    assert inside
    outside = [
        f"{module.name}:{call.lineno}: {ast.unparse(call)}"
        for module in sorted(SRC.glob("*.py"))
        for call in _file_writes(ast.parse(module.read_text(encoding="utf-8")))
        if not (module.name == OWNER and writer.lineno <= call.lineno <= writer.end_lineno)
    ]
    assert outside == []


def _import_time_modules(tree: ast.AST) -> set[str]:
    """The top-level package of every import that runs when the module is
    imported: all but those inside a function body."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            found |= _import_time_modules(node)
    return found


@pytest.mark.parametrize("module", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_filters_imports_scipy_at_import_time(module):
    """scipy is slow to import, and only the filters need it at once: the
    recorder, the loaders and the synthetic generator start without it, so any
    other use of scipy is imported inside the function that makes it."""
    imported = _import_time_modules(ast.parse(module.read_text(encoding="utf-8")))
    assert module.name == "filters.py" or "scipy" not in imported
