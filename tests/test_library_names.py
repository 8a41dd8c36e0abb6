"""Every library name has a caller in the library, or is kept on purpose."""

import ast
import pathlib

from slope_atlas import cli

SRC = pathlib.Path(cli.__file__).parent

# Names that no module under src/ mentions but that stay: each has a
# ROADMAP item that would give it a caller, or an acceptance criterion
# imports it.  A module name keeps every name the module defines.
KEEP = {
    "branched",
    "TorsionProfile", "compute_d_positive", "interval_candidates",
    "select_interval",
    "witness",
    "euler_criterion", "wl_euler_data", "wl_euler_vanishes",
    "wl_lspace_region",
}


def _is_def(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))


def _names():
    """(module, name) of every top-level function and class and of every
    non-dunder method of a top-level class, and the set of names that some
    module mentions: as a name, an attribute or an import alias."""
    defined, mentioned = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in filter(_is_def, tree.body):
            defined.append((path.stem, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(path.stem, item.name)
                            for item in filter(_is_def, node.body)
                            if not (item.name.startswith("__")
                                    and item.name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                mentioned.add(node.id)
            elif isinstance(node, ast.Attribute):
                mentioned.add(node.attr)
            elif isinstance(node, ast.alias):
                mentioned.update((node.name, node.asname))
    # `main` looks each command's function up by name.
    mentioned.update("cmd_" + name for name in cli.COMMANDS)
    return defined, mentioned


def test_every_library_name_has_a_library_caller_or_is_kept():
    defined, mentioned = _names()
    dead = sorted(f"{module}.{name}" for module, name in defined
                  if name not in mentioned and not KEEP & {module, name})
    assert not dead, "no module under src/ mentions " + ", ".join(dead)


def test_every_kept_name_still_exists():
    defined, _ = _names()
    known = {module for module, _ in defined} | {name for _, name in defined}
    assert KEEP <= known, sorted(KEEP - known)
