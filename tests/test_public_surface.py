"""Every public function, class and method of the package has a caller in
the package itself, unless it is one of a few named oracles: a helper
that only tests reach is dead weight the solver still has to carry."""

import ast
import pathlib

import twofluid

SRC = pathlib.Path(twofluid.__file__).parent

# public definitions no package code reaches, each with why it stays
UNREFERENCED = {
    "physics.drag_coefficient": "oracle for the drag coefficient C_D",
    "caseio.dump_config": "the config format's writer, and the "
                          "round-trip oracle of parse_config",
    "fem.FunctionSpace.interpolate": "the nodal interpolant the tests "
                                     "build fields with",
}


def _public_definitions(module, tree):
    """(qualified name, bare name) of each public module-level function
    and class, and of each public method of those classes."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield f"{module}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield f"{module}.{node.name}.{item.name}", item.name


def _references(tree):
    """Every name the code reads, looks up as an attribute or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_public_definition_has_a_caller_in_the_package():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    referenced = {name for tree in trees.values()
                  for name in _references(tree)}
    unreferenced = sorted(
        qualified for module, tree in trees.items()
        for qualified, name in _public_definitions(module, tree)
        if name not in referenced)
    assert unreferenced == sorted(UNREFERENCED)
