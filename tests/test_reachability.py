"""Deletion audit: every public top-level name in src/tailband, and every
public method, property and annotated field of a public class there, is read
by the program itself, by the acceptance gate or by the benchmark, or it is
listed in TEST_ONLY with the reason it stays although only tests use it.
Every private top-level name there is read by the program itself, or it is
listed in PRIVATE_TEST_ONLY."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tailband"

TEST_ONLY = {
    "limitsim.reflection_exit_probability":
        "independent oracle: the reflection series that cone_exit_probability is checked against",
    "plotsets.qq_normalized_set":
        "the QQ plot's fluctuation process, checked against its limit law in test_fluctuation_laws",
    "plotsets.me_normalized_set":
        "the ME plot's fluctuation processes, checked against their limit laws in test_fluctuation_laws",
}

PRIVATE_TEST_ONLY = {
    "data._ingest_lines": "the whole-file line loop that ingest is tested against",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _top_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _public_names(tree: ast.Module) -> set[str]:
    return {n for n in _top_level_names(tree) if not n.startswith("_")}


def _private_names(tree: ast.Module) -> set[str]:
    """Private top-level names, but not dunders such as __version__, which
    the interpreter and packaging read."""
    return {n for n in _top_level_names(tree) if n.startswith("_") and not n.startswith("__")}


def _public_members(tree: ast.Module) -> set[str]:
    """Class.member for each public method, property and annotated field of
    each public top-level class."""
    members = set()
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
            continue
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                members.add(f"{cls.name}.{node.name}")
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                members.add(f"{cls.name}.{node.target.id}")
    return {m for m in members if not m.split(".")[1].startswith("_")}


def _read_names(tree: ast.Module) -> set[str]:
    """Names a module reads, imports, or spells as a whole string (the
    benchmark looks functions up by name)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names | _read_attributes(tree)


def _read_attributes(tree: ast.Module) -> set[str]:
    """Attributes a module reads (obj.name) or spells as a whole string
    (getattr, object.__setattr__).  A bare name is not a member read: a
    local variable of the same name would hide an unread member.  Nor is
    the key of a dict display: {"config": ...} reads no member config."""
    keys = {id(key) for node in ast.walk(tree) if isinstance(node, ast.Dict) for key in node.keys}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in keys
        ):
            names.add(node.value)
    return names


def _unreached() -> list[str]:
    """module.name, or module.Class.member, of each public name or class
    member that no module, the acceptance gate nor the benchmark reads."""
    modules = {path.stem: _parse(path) for path in sorted(SRC.glob("*.py"))}
    bench = sorted((ROOT / "perfbench").glob("*.py"))
    assert bench, "the benchmark's sources are missing"
    readers = [*modules.values(), _parse(ROOT / "tests" / "test_acceptance.py"), *map(_parse, bench)]
    read = set().union(*map(_read_names, readers))
    attributes = set().union(*map(_read_attributes, readers))
    unreached = []
    for module, tree in modules.items():
        unreached += [f"{module}.{name}" for name in sorted(_public_names(tree)) if name not in read]
        unreached += [
            f"{module}.{member}"
            for member in sorted(_public_members(tree))
            if member.split(".")[1] not in attributes
        ]
    return unreached


def test_every_public_name_is_reached():
    unreached = _unreached()
    extra = [name for name in unreached if name not in TEST_ONLY]
    assert not extra, "reached by nothing but tests: " + ", ".join(extra)
    # an entry whose name is gone or is reached after all must leave the list
    stale = sorted(set(TEST_ONLY) - set(unreached))
    assert not stale, "TEST_ONLY entries no longer needed: " + ", ".join(stale)


def test_every_private_name_is_read_by_the_program():
    modules = {path.stem: _parse(path) for path in sorted(SRC.glob("*.py"))}
    read = set().union(*map(_read_names, modules.values()))
    unread = [f"{module}.{name}" for module, tree in modules.items()
              for name in sorted(_private_names(tree)) if name not in read]
    extra = [name for name in unread if name not in PRIVATE_TEST_ONLY]
    assert not extra, "private names the program never reads: " + ", ".join(extra)
    stale = sorted(set(PRIVATE_TEST_ONLY) - set(unread))
    assert not stale, "PRIVATE_TEST_ONLY entries no longer needed: " + ", ".join(stale)
