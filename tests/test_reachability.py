"""Every public name in ``spherelrd`` must be used by the package.

A public function, class or constant, or a public method or property of a
package class, that no module of the package references is reachable from
neither the CLI nor the harness.  The only such names kept on purpose are
``read_panel_csv``, kept for reading observed panels, and
``cli._Parser.error``, which argparse calls.
"""

import ast
import pathlib

import spherelrd

ALLOWED_ORPHANS = {"simulate.read_panel_csv"}

ALLOWED_ORPHAN_MEMBERS = {"cli._Parser.error"}


def _orphans() -> tuple:
    """Unreferenced public top-level names, and unreferenced public members."""
    defined, members, used = set(), set(), set()
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
            if isinstance(node, ast.ClassDef):
                members.update(
                    (path.stem, f"{node.name}.{m.name}", m.name)
                    for m in node.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return (
        {f"{module}.{name}" for module, name in defined if name not in used},
        {f"{module}.{qual}" for module, qual, name in members if name not in used},
    )


def test_unreferenced_public_names_are_allowlisted():
    assert _orphans()[0] == ALLOWED_ORPHANS


def test_unreferenced_public_members_are_allowlisted():
    assert _orphans()[1] == ALLOWED_ORPHAN_MEMBERS
