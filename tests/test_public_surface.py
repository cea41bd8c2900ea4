"""The package's public surface is what its own code uses.

Every public top-level function, class or upper-case constant of
``src/marginforge`` must be named by code in ``src/`` other than its own
definition: a name that is loaded, an attribute or an import of that
name. A name that only tests or perfbench reach is dead surface; it is
deleted, or listed in ``ALLOWED`` with the reason it stays. An allowed
name that gains a ``src/`` caller, or is gone, fails too, so the list only
shrinks. A module's ``__all__`` names only public top-level definitions of
that module, so it cannot keep a deleted name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "marginforge"

# (module, name): why it stays without a caller in src/
ALLOWED = {
    ("mathcore", "cosine_similarity"): "the scalar primitive of tests/oracles.py",
    ("model", "save_checkpoint"): "perfbench's ingest-eval set-up writes its model with it (ROADMAP item 6)",
    ("trainer", "load_trainer_checkpoint"): "train --resume will read with it (ROADMAP item 3); "
    "perfbench's check reloads checkpoint_final with it",
}


def public_definitions() -> set:
    """``(module, name)`` of every public top-level function, class and
    upper-case constant (a name assigned at module level)."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()]
            else:
                continue
            found.update((path.stem, name) for name in names if not name.startswith("_"))
    return found


def names_used_in_src() -> set:
    """Every name that code in ``src/`` loads, reads as an attribute or imports;
    assignments to a name, and strings, such as ``__all__``'s, do not count."""
    used = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def test_every_public_name_has_a_src_caller():
    used = names_used_in_src()
    unused = sorted(
        f"{module}.{name}"
        for module, name in public_definitions() - set(ALLOWED)
        if name not in used
    )
    assert not unused, f"public names that no code in src/ uses: {unused}"


def test_allowed_names_only_shrink():
    defined, used = public_definitions(), names_used_in_src()
    for module, name in ALLOWED:
        assert (module, name) in defined, f"{module}.{name} is gone; drop it from ALLOWED"
        assert name not in used, f"{module}.{name} now has a src/ caller; drop it from ALLOWED"


def test_all_names_only_public_definitions():
    """A module's ``__all__`` names only its own public top-level definitions."""
    defined = public_definitions()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                for name in ast.literal_eval(node.value):
                    assert (path.stem, name) in defined, f"{path.stem}.__all__ names {name!r}"
