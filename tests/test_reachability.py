"""Every public top-level name in ``spherelrd`` must be used by the package.

A public function, class or constant that no module of the package references
is reachable from neither the CLI nor the harness.  The only such names kept
on purpose are the random-projection direction API, which the experiments do
not run yet, and ``read_panel_csv``, kept for reading observed panels.
"""

import ast
import pathlib

import spherelrd

ALLOWED_ORPHANS = {
    "lrdtest.direction_from_pair",
    "lrdtest.draw_direction",
    "lrdtest.random_projection_test",
    "simulate.read_panel_csv",
}


def _orphans() -> set:
    defined, used = set(), set()
    for path in pathlib.Path(spherelrd.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined.update((path.stem, n) for n in names if not n.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return {f"{module}.{name}" for module, name in defined if name not in used}


def test_unreferenced_public_names_are_allowlisted():
    assert _orphans() == ALLOWED_ORPHANS
