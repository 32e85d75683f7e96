"""Every public top-level function and class in src/hypflow has a caller in
src/hypflow or perfbench/, and every dataclass field and public method or
property there has a reader, so no surface exists for the tests alone; and
every option in src/hypflow is set by some caller, so no default stands for a
configuration that nothing runs."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hypflow"
CALLERS = (PACKAGE, ROOT / "perfbench")
OPTION_SETTERS = (ROOT / "src", ROOT / "perfbench", ROOT / "tests")

# public names kept without a caller in src/ or perfbench/, with the reason
EXEMPT = {
    "conjugated_flow_compare": "acceptance criterion 3 calls it",
    "make_a_star_sampler": "acceptance criterion 4 builds the advected symbol with it",
    "discriminant_jet_crosscheck": "acceptance criterion 7 calls it",
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


# fields and methods kept without a reader in src/ or perfbench/, with the reason
MEMBER_EXEMPT = {
    "StateBundle.notes": "documents why each registry state hits its regime",
    **{f"DiscriminantReport.{name}": "acceptance criterion 7 reads it"
       for name in ("resid_first", "resid_second", "d1_fd", "d1_jet", "d2_fd", "d2_jet")},
}


def _members():
    """(label, name) of every dataclass field and every public method or
    property of a class in src/hypflow; classes that serialize themselves
    with asdict(self) contribute no fields."""
    out = []
    for tree in _trees(PACKAGE).values():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            serialized = any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "asdict"
                             for n in ast.walk(cls))
            for st in cls.body:
                if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name) \
                        and _is_dataclass(cls) and not serialized:
                    out.append((f"{cls.name}.{st.target.id}", st.target.id))
                elif isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not st.name.startswith("_"):
                    out.append((f"{cls.name}.{st.name}", st.name))
    return out


def _attribute_reads():
    """Attribute names loaded anywhere in src/ or perfbench/ (name-based)."""
    return {node.attr for directory in CALLERS for tree in _trees(directory).values()
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_field_and_method_has_a_reader():
    read = _attribute_reads()
    unread = sorted(label for label, name in _members()
                    if name not in read and label not in MEMBER_EXEMPT)
    assert not unread, f"fields and methods read only by tests: {unread}"


def test_member_exemptions_are_needed():
    read = _attribute_reads()
    members = dict(_members())
    stale = sorted(label for label in MEMBER_EXEMPT
                   if label not in members or members[label] in read)
    assert not stale, f"exempt members that are read, or exist no more: {stale}"


# options kept although no call site sets them, with the reason
OPTION_EXEMPT = {
    "make_a_star_sampler(Q)": "the flow route to a registry growth rate passes the "
                              "companion basis of block_reduce_2x2",
}


def _is_dataclass(cls):
    for deco in cls.decorator_list:
        f = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(f, "id", None) == "dataclass" or getattr(f, "attr", None) == "dataclass":
            return True
    return False


def _init_false(value):
    return isinstance(value, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in value.keywords)


def _options():
    """(label, callee, name, slot) for every parameter with a default and every
    dataclass field with a default in src/hypflow.  `callee` is the name call
    sites use (the class for __init__ and dataclass fields); `slot` is the
    positional index a call fills, None for keyword-only parameters."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    slot = 0
                    for st in child.body:
                        if not (isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)) \
                                or _init_false(st.value):
                            continue
                        if st.value is not None:
                            out.append((f"{child.name}({st.target.id})", child.name,
                                        st.target.id, slot))
                        slot += 1
                visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                method = isinstance(owner, ast.ClassDef) and not any(
                    getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
                self_slots = 1 if method else 0
                callee = owner.name if method and child.name == "__init__" else child.name
                label = f"{owner.name}.{child.name}" if isinstance(owner, ast.ClassDef) \
                    else child.name
                first = len(positional) - len(args.defaults)
                for i, a in enumerate(positional[first:], start=first):
                    out.append((f"{label}({a.arg})", callee, a.arg, i - self_slots))
                for a, d in zip(args.kwonlyargs, args.kw_defaults):
                    if d is not None:
                        out.append((f"{label}({a.arg})", callee, a.arg, None))
                visit(child, child)
            else:
                visit(child, owner)

    for tree in _trees(PACKAGE).values():
        visit(tree, None)
    return out


def _call_sites():
    """Per called name: (positional count, has *args, keyword names) of each call."""
    sites = {}
    for directory in OPTION_SETTERS:
        for tree in _trees(directory).values():
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                sites.setdefault(name, []).append(
                    (sum(not isinstance(a, ast.Starred) for a in node.args), starred,
                     {k.arg for k in node.keywords if k.arg}))
    return sites


def _unset_options():
    sites = _call_sites()
    return sorted(
        label for label, callee, name, slot in _options()
        if not any(name in keywords or (slot is not None and (count > slot or starred))
                   for count, starred, keywords in sites.get(callee, [])))


def test_every_option_is_set():
    # name-based: a call of `f` or `x.f` passing the option by keyword or
    # filling its positional slot sets it, whatever `f` resolves to
    unset = [label for label in _unset_options() if label not in OPTION_EXEMPT]
    assert not unset, f"options no call site sets: {unset}"


def test_option_exemptions_are_needed():
    stale = sorted(set(OPTION_EXEMPT) - set(_unset_options()))
    assert not stale, f"exempt options that exist and are set, or exist no more: {stale}"


# settable values (options and fields with defaults) in src/hypflow; a change
# that adds or removes one restates this census in its own diff
SETTABLE_VALUES = 59


def test_settable_value_count():
    assert len(_options()) == SETTABLE_VALUES
