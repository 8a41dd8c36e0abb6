"""Every library name has a caller in the library, or is kept on purpose."""

import ast
import pathlib

from slope_atlas import cli

SRC = pathlib.Path(cli.__file__).parent

# Names that no module under src/ uses but that stay: each has a
# ROADMAP item that would give it a caller, an acceptance criterion imports
# it, or a benchmark workload calls it.
KEEP = {
    # Criterion 6 checks the sink scan and the weight cone of every complex
    # against the fundamental ray.
    "complexes_for", "detect_sink_discs", "carried_weight_cone",
    "fundamental_ray",
    # The cones-free workload reads its complexes with from_json.
    "from_json",
    # ROADMAP item 5 tests its ray certificate on complexes built from
    # random admissible source orders through the checked constructor.
    "build_coherent_arc_complex",
    # ROADMAP item 10's `monodromy --complexes` prints the isolated sectors
    # and embeds to_json.
    "isolated_sectors", "to_json",
    "TorsionProfile", "compute_d_positive", "interval_candidates",
    "select_interval",
    "witness",
    "euler_criterion", "wl_euler_data", "wl_euler_vanishes",
    "wl_lspace_region",
}


def _is_def(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))


def _scan(modules):
    """Scan ``modules``, a map of module name to source text.

    Returns the (module, name) of every top-level function and class and of
    every non-dunder method of a top-level class, and the list of those
    that no module uses.  A top-level name is used when some module
    mentions it: as a name, an attribute or an import alias.  A method or
    property is used only when some module reads it as an attribute or
    names it in a string constant, as the `_fields` tuples do; a local
    variable of the same name does not count.
    """
    tops, methods = [], []
    names, attrs, strings = set(), set(), set()
    for module, text in modules.items():
        tree = ast.parse(text)
        for node in filter(_is_def, tree.body):
            tops.append((module, node.name))
            if isinstance(node, ast.ClassDef):
                methods += [(module, item.name)
                            for item in filter(_is_def, node.body)
                            if not (item.name.startswith("__")
                                    and item.name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update((node.name, node.asname))
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                strings.add(node.value)
    unused = [(m, n) for m, n in tops if n not in names and n not in attrs]
    unused += [(m, n) for m, n in methods
               if n not in attrs and n not in strings]
    return tops + methods, unused


def _src_scan():
    return _scan({path.stem: path.read_text(encoding="utf-8")
                  for path in sorted(SRC.glob("*.py"))})


def test_every_library_name_has_a_library_caller_or_is_kept():
    # `main` looks each command's function up by name.
    looked_up = {"cmd_" + name for name in cli.COMMANDS}
    _, unused = _src_scan()
    dead = sorted(f"{module}.{name}" for module, name in unused
                  if name not in looked_up and not KEEP & {module, name})
    assert not dead, "no module under src/ uses " + ", ".join(dead)


def test_every_kept_name_still_exists():
    defined, _ = _src_scan()
    known = {module for module, _ in defined} | {name for _, name in defined}
    assert KEEP <= known, sorted(KEEP - known)


def test_a_method_is_used_only_as_an_attribute_or_a_field():
    # `norm` is dead although a local variable shares its name; `x` is
    # read only through `_fields`, as `Record` reads its fields.
    source = """
class Point(Record):
    _fields = ("x",)

    @property
    def x(self):
        return 0

    def norm(self):
        return 0


def length(point):
    norm = 0
    return norm


ORIGIN = length(Point())
"""
    assert _scan({"m": source})[1] == [("m", "norm")]
