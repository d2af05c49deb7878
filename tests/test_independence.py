"""The two routes share nothing but the jet: their agreement is the
certificate only while neither imports the other.  Their result type
`B1Result` lives in `exterior`, which both import.

Both routes and the jet pipeline they consume use ring operations and
multiplication by rational constants only: no module on them has a `/`
operator, and scalars do not divide."""

import ast
from pathlib import Path

import pytest

import bergman
from bergman.scalars import rat

SRC = Path(bergman.__file__).resolve().parent


def _imports(source: str) -> set[tuple[str, str]]:
    """(module, name) for every import in `bergman` source text; importing a
    module itself gives (module, "")."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "bergman" + ("." + base if base else "")
            for alias in node.names:
                if base == "bergman":  # `from . import x` imports the module x
                    out.add((f"bergman.{alias.name}", ""))
                else:
                    out.add((base, alias.name))
        elif isinstance(node, ast.Import):
            out.update((alias.name, "") for alias in node.names)
    return out


def _from(module: str, target: str) -> set[str]:
    """What `bergman.<module>` imports from `bergman.<target>`."""
    found = _imports((SRC / f"{module}.py").read_text())
    return {name for mod, name in found if mod == f"bergman.{target}"}


def test_closed_form_imports_nothing_from_the_engine():
    # the engine builds its polynomials with `series`: the closed form must not
    for target in ("perturbation", "oscillator", "series"):
        assert not _from("closed_form", target), target


def test_engine_imports_nothing_from_the_closed_form():
    for module in ("perturbation", "oscillator"):
        assert not _from(module, "closed_form"), module


def test_the_jet_pipeline_imports_nothing_from_its_checks():
    assert not _from("geometry", "jet_checks")


def test_the_import_reader_sees_every_form():
    source = ("from . import closed_form\nimport bergman.oscillator\n"
              "from .closed_form import b1_formula\nfrom bergman.perturbation import b1_engine\n"
              "def f():\n    from .oscillator import sum_states\n")
    assert _imports(source) == {
        ("bergman.closed_form", ""), ("bergman.oscillator", ""),
        ("bergman.closed_form", "b1_formula"), ("bergman.perturbation", "b1_engine"),
        ("bergman.oscillator", "sum_states")}


# models.py is outside the routes: its float and Fraction division stays
_DIVISION_FREE = ("scalars", "series", "geometry", "jet_checks", "exterior", "oscillator",
                  "perturbation", "closed_form")


@pytest.mark.parametrize("module", _DIVISION_FREE)
def test_the_pipeline_and_routes_do_not_divide(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)]
    assert not lines, f"{module}.py divides at lines {lines}"


def test_scalars_have_no_division():
    with pytest.raises(TypeError):
        rat(1) / rat(2)
