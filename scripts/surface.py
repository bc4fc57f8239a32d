"""The size of the library's surface, in two counts.

Prints the lines of the package's Python files (as `wc -l` counts
them) and its defaulted parameters: over every function, method and
lambda, the positional defaults plus the keyword-only parameters that
have one (`ast` stores None in `kw_defaults` for those that do not).
Run it from a checkout:

    python scripts/surface.py [package directory]
"""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "nophase"

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def defaulted_parameters(tree):
    """Defaulted parameters of every function and lambda in the tree."""
    return sum(len(node.args.defaults)
               + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(tree) if isinstance(node, _FUNCTIONS))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    package = pathlib.Path(argv[0]) if argv else PACKAGE
    lines = defaults = 0
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        lines += source.count("\n")
        defaults += defaulted_parameters(ast.parse(source, str(path)))
    print(f"lines {lines}")
    print(f"defaulted parameters {defaults}")


if __name__ == "__main__":
    main()
