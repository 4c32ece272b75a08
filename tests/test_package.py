"""The package root: README's library example runs and gives the values
its comments document, and the root binds that example's six names and
the submodules, nothing else."""

import ast
import importlib
import pkgutil
import types
from fractions import Fraction
from pathlib import Path

import tamagawa

README = Path(__file__).resolve().parents[1] / "README.md"
ROOT_NAMES = {"QuadField", "build_torus", "euler_factor_at_one", "point_count_Fp",
              "bad_prime_density", "verify_tnc"}


def _library_example():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example():
    # each bare expression is evaluated, in order, for the value its
    # comment documents
    tree = ast.parse(_library_example(), filename="README.md")
    namespace, values = {}, []
    for stmt in tree.body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            values.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    imported = {alias.name for stmt in tree.body if isinstance(stmt, ast.ImportFrom)
                for alias in stmt.names}
    assert imported == ROOT_NAMES
    tau = namespace["row"].values["tau_tam"]
    assert values == [Fraction(4, 5), 4, Fraction(2, 1), "PASS", tau.value, Fraction(2, 1)]
    assert abs(tau.value - 2.0) <= tau.abs_err


def test_root_binds_the_example_names_and_the_submodules():
    assert tamagawa.cohomology is importlib.import_module("tamagawa.cohomology")
    public = {name for name, value in vars(tamagawa).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == ROOT_NAMES
    submodules = {info.name for info in pkgutil.iter_modules(tamagawa.__path__)}
    modules = {name for name, value in vars(tamagawa).items()
               if isinstance(value, types.ModuleType)}
    assert modules <= submodules
