"""The size of the library's surface, in four counts, and its scipy and
numpy.polynomial modules.

Prints the lines of the package's Python files (as `wc -l` counts
them), its definitions: the functions, methods and classes it defines
(`ast` FunctionDef, AsyncFunctionDef and ClassDef nodes, nested ones
included), so that a deleted name shows and not only its deleted lines,
its defaulted parameters: over every function, method and
lambda, the positional defaults plus the keyword-only parameters that
have one (`ast` stores None in `kw_defaults` for those that do not),
its CLI options: the `add_argument` calls whose first argument is a
string starting with "--", and the scipy and numpy.polynomial modules
its import statements name, wherever they stand (`from scipy import x`
names scipy.x, `from numpy import polynomial` numpy.polynomial).  Run
it from a checkout:

    python scripts/surface.py [package directory]
"""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "nophase"

ROOTS = ("scipy", "numpy.polynomial")  # the packages whose modules it names
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(tree):
    """Functions, methods and classes defined anywhere in the tree."""
    return sum(isinstance(node, _DEFINITIONS) for node in ast.walk(tree))


def defaulted_parameters(tree):
    """Defaulted parameters of every function and lambda in the tree."""
    return sum(len(node.args.defaults)
               + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(tree) if isinstance(node, _FUNCTIONS))


def cli_options(tree):
    """`add_argument` calls in the tree that declare a "--" option."""
    return sum(isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr == "add_argument"
               and bool(node.args)
               and isinstance(node.args[0], ast.Constant)
               and str(node.args[0].value).startswith("--")
               for node in ast.walk(tree))


def modules_under(tree, root):
    """Dotted names of the modules under `root` (root included) that the
    tree's imports name.  `from a import b` names a.b when a is root or
    one of its parents, and a otherwise."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if f"{root}.".startswith(f"{node.module}."):
                names.update(f"{node.module}.{alias.name}"
                             for alias in node.names)
            else:
                names.add(node.module)
    return {name for name in names
            if name == root or name.startswith(f"{root}.")}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    package = pathlib.Path(argv[0]) if argv else PACKAGE
    lines = defined = defaults = options = 0
    found = {root: set() for root in ROOTS}
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        lines += source.count("\n")
        tree = ast.parse(source, str(path))
        defined += definitions(tree)
        defaults += defaulted_parameters(tree)
        options += cli_options(tree)
        for root in ROOTS:
            found[root] |= modules_under(tree, root)
    print(f"lines {lines}")
    print(f"definitions {defined}")
    print(f"defaulted parameters {defaults}")
    print(f"cli options {options}")
    for root in ROOTS:
        print(f"{root} modules {', '.join(sorted(found[root])) or 'none'}")


if __name__ == "__main__":
    main()
