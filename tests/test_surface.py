"""Every public top-level function and class in src/hypflow has a caller in
src/hypflow or perfbench/, so no surface exists for the tests alone."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hypflow"
CALLERS = (PACKAGE, ROOT / "perfbench")

# public names kept without a caller in src/ or perfbench/, with the reason
EXEMPT = {
    "conjugated_flow_compare": "acceptance criterion 3 calls it",
    "make_a_star_sampler": "acceptance criterion 4 builds the advected symbol with it",
    "discriminant_jet_crosscheck": "acceptance criterion 7 calls it",
    "spectrum": "acceptance criterion 11 checks its conjugate pairs",
    "SymbolField": "acceptance criterion 4 builds its closed-form symbols with it",
    "load_grid_function": "the README names it as the reader of --dump-states files",
    "block_reduce_2x2": "step 3 of the flow route to a registry growth rate calls it",
}


def _trees(directory):
    return {path: ast.parse(path.read_text(), str(path))
            for path in sorted(directory.rglob("*.py"))}


def _public_definitions():
    out = {}
    for path, tree in _trees(PACKAGE).items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                out[node.name] = path.name
    return out


def _references():
    """Names used as an identifier, an attribute or an import; words inside
    strings do not count."""
    names = set()
    for directory in CALLERS:
        for tree in _trees(directory).values():
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.split(".")[-1])
    return names


def test_every_public_name_has_a_caller():
    defined = _public_definitions()
    used = _references()
    unreached = sorted(f"{module}:{name}" for name, module in defined.items()
                       if name not in used and name not in EXEMPT)
    assert not unreached, f"public names reached only from tests: {unreached}"


def test_exempt_names_exist():
    missing = sorted(set(EXEMPT) - set(_public_definitions()))
    assert not missing, f"exemptions name no definition: {missing}"
