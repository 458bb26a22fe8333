"""Every public name in ``spherelrd``, and every option of its functions,
must be used by the package.

A public function, class or constant, or a public method or property of a
package class, that no module of the package references is reachable from
neither the CLI nor the harness.  No such name is kept.

Likewise a defaulted parameter of a module-level function that no call in
the package passes, by keyword or by position, is a knob only tests turn.
A call that passes the parameter's own default expression (``x=None`` where
the default is ``None``) does not count as passing it.
The one kept on purpose is ``cli.main``'s ``argv``: the console script calls
``main()`` bare.
"""

import ast
import pathlib

import spherelrd

ALLOWED_ORPHANS = set()

ALLOWED_ORPHAN_MEMBERS = set()

ALLOWED_UNPASSED_DEFAULTS = {"cli.main(argv)"}


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


def _callee(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _unpassed_defaults() -> set:
    """Defaulted parameters of module-level functions that no package call
    passes, or passes only as their own default expression."""
    defaults, calls = [], {}
    for path in pathlib.Path(spherelrd.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                args = node.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                defaults += [
                    (path.stem, node.name, a.arg, i, ast.dump(d))
                    for i, (a, d) in enumerate(zip(positional[first:], args.defaults), start=first)
                ]
                defaults += [
                    (path.stem, node.name, a.arg, None, ast.dump(d))
                    for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node), []).append(node)

    def passed(call, name, index, default) -> bool:
        if any(k.arg is None for k in call.keywords):
            return True
        if any(isinstance(a, ast.Starred) for a in call.args):
            return True
        given = [k.value for k in call.keywords if k.arg == name]
        if index is not None and len(call.args) > index:
            given.append(call.args[index])
        return any(ast.dump(value) != default for value in given)

    return {
        f"{module}.{func}({name})"
        for module, func, name, index, default in defaults
        if not any(passed(c, name, index, default) for c in calls.get(func, []))
    }


def test_every_defaulted_parameter_is_passed_somewhere():
    assert _unpassed_defaults() == ALLOWED_UNPASSED_DEFAULTS
