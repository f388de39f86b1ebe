"""Layering: building bases and expectations does not depend on the verifier.

Every module below is parsed with ``ast``, so an import anywhere in it (at
the top, inside a function, relative or absolute) counts.
"""

import ast
from pathlib import Path

import pytest

import uob

SRC = Path(uob.__file__).parent
BELOW_VERIFY = ["algebra", "inclusion", "expectation", "bases", "tower", "io", "catalog"]


def _imports(module: str) -> set[str]:
    """Absolute names a module of the uob package imports, ``from`` targets included."""
    names = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative to the flat uob package
                base = "uob" + (f".{base}" if base else "")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def _imports_verify(module: str) -> bool:
    return any(n == "uob.verify" or n.startswith("uob.verify.") for n in _imports(module))


def test_the_cli_is_seen_to_import_verify():
    # the parser sees the verifier where it is used, so the checks below are not vacuous
    assert _imports_verify("cli")


@pytest.mark.parametrize("module", BELOW_VERIFY)
def test_module_does_not_import_verify(module):
    assert not _imports_verify(module)


def test_bases_does_not_import_tower():
    # the tower builds on the bases; an import back would be a cycle
    assert "uob.bases" in _imports("tower")
    assert not any(n == "uob.tower" or n.startswith("uob.tower.") for n in _imports("bases"))


def test_bases_does_not_import_expectation():
    # building a basis needs no E; the composed E1 o E0 is a test reference
    assert "uob.expectation" in _imports("verify")
    assert not any(n == "uob.expectation" or n.startswith("uob.expectation.") for n in _imports("bases"))


GRAM_FORK = {"_GramProjector", "SingularGram", "GRAM_COND_LIMIT"}


def _defines(path: Path) -> set[str]:
    """Names a module binds at any depth: classes, functions and assignment targets."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def test_the_gram_projector_is_seen_in_the_test_reference():
    # the parser finds the three names where they live, so the check below is not vacuous
    assert _defines(Path(__file__).parent / "reference.py") >= GRAM_FORK


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_defines_a_second_expectation(path):
    # the tower's E_1 is the compiled Markov E of its GNS layout; the Gram
    # projector stays a test reference only
    assert not _defines(path) & GRAM_FORK
