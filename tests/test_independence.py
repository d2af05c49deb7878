"""The two routes share nothing but the jet: their agreement is the
certificate only while neither imports the other.  `perturbation` may take
the result type `B1Result` from `closed_form`, and nothing else."""

import ast
from pathlib import Path

import bergman

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
    for target in ("perturbation", "oscillator"):
        assert not _from("closed_form", target), target


def test_engine_imports_only_the_result_type_from_the_closed_form():
    for module in ("perturbation", "oscillator"):
        assert _from(module, "closed_form") <= {"B1Result"}, module


def test_the_import_reader_sees_every_form():
    source = ("from . import closed_form\nimport bergman.oscillator\n"
              "from .closed_form import b1_formula\nfrom bergman.perturbation import b1_engine\n"
              "def f():\n    from .oscillator import sum_states\n")
    assert _imports(source) == {
        ("bergman.closed_form", ""), ("bergman.oscillator", ""),
        ("bergman.closed_form", "b1_formula"), ("bergman.perturbation", "b1_engine"),
        ("bergman.oscillator", "sum_states")}
