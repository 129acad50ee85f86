"""Package-wide guards: every module-level definition has a caller outside the tests, every
name a test module imports is read, one helper freezes the arrays the records keep, one
line names a complex dtype, one routine takes the coefficient norm of a matrix stack,
measured without a field wrapped round it, and one an array's largest entry, only the
kernels skip a field's checks, one record holds S, one generator runs each step of the star
tensors, which take no product beside central_at, no einsum is kept for its summation order,
and the modules import in one direction."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src" / "stehbein"


def _referenced_names(node) -> set:
    """Names, attribute names and imported names under ``node``; docstrings are strings, not names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
    return out


def test_every_public_definition_is_used_outside_the_tests():
    # __init__.py only re-exports, so a name it lists is not thereby used; a private
    # module-level helper counts too, so a refactor cannot orphan one
    modules = {p: ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    modules |= {p: ast.parse(p.read_text(encoding="utf-8"))
                for p in sorted((ROOT / "perfbench").glob("*.py"))}
    unused = []
    for path, tree in modules.items():
        if path.parent != SRC:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            used = any(node.name in _referenced_names(top)
                       for other in modules.values() for top in other.body if top is not node)
            if not used:
                unused.append(f"{path.stem}.{node.name}")
    assert unused == []


def test_the_guard_sees_references_not_docstrings():
    tree = ast.parse('def f():\n    """calls g"""\n    return h.k\nfrom m import n as o\n')
    assert _referenced_names(tree) == {"h", "k", "n"}


def _unread_imports(tree) -> set:
    """Names a module imports but never reads; a function's argument name counts as a read,
    so a fixture imported from conftest and requested by a test is read."""
    imported = {a.asname or a.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    read |= {a.arg for n in ast.walk(tree) if isinstance(n, ast.arguments)
             for a in (*n.posonlyargs, *n.args, *n.kwonlyargs)}
    return imported - read


def test_test_modules_read_every_name_they_import():
    # the unused-definition guard above reads src/ only; an import a test no longer reads
    # would keep a name looking used
    unread = {p.name: sorted(names) for p in sorted(Path(__file__).parent.glob("*.py"))
              if (names := _unread_imports(ast.parse(p.read_text(encoding="utf-8"))))}
    assert unread == {}
    snippet = ast.parse("import a.b\nfrom m import c, d as e, f\nfrom __future__ import g\n"
                        "def t(f):\n    return a.x + e\n")
    assert _unread_imports(snippet) == {"c"}


def test_one_helper_freezes_every_kept_array():
    # frametensor._read_only is the one rule; a second freezing site could copy or check differently
    sites = [(p.name, line) for p in sorted(SRC.glob("*.py"))
             for line in p.read_text(encoding="utf-8").splitlines()
             if "flags.writeable = False" in line]
    assert len(sites) == 1 and sites[0][0] == "frametensor.py"
    tree = ast.parse((SRC / "frametensor.py").read_text(encoding="utf-8"))
    helper = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_read_only")
    assert "flags.writeable = False" in ast.unparse(helper)


# a complex dtype written out: the scalar type has one name, frametensor.COMPLEX
COMPLEX_DTYPE = re.compile(r"dtype=complex\b|astype\(complex\)|complex128|clongdouble|complex256")


def _complex_dtype_lines(text: str) -> list:
    """The stripped lines of ``text`` that name a complex dtype, comments and docstrings included."""
    return [line.strip() for line in text.splitlines() if COMPLEX_DTYPE.search(line)]


def test_one_line_names_the_complex_dtype():
    # every other array takes the dtype of its operands or goes through frametensor's
    # converters, so a change of precision is a change of this one line
    sites = [(p.name, line) for p in sorted(SRC.glob("*.py"))
             for line in _complex_dtype_lines(p.read_text(encoding="utf-8"))]
    assert sites == [("frametensor.py", "COMPLEX = np.complex128")]
    snippet = ("COMPLEX = np.complex128\nx = np.eye(2, dtype=complex)\ny = x.astype(complex)\n"
               "z = np.zeros(2, dtype=COMPLEX)  # not complex256\nw = np.clongdouble(1)\n"
               "v = np.asarray(x, dtype=complexity)\nu = complex(x[0, 0])\n")
    assert _complex_dtype_lines(snippet) == [
        "COMPLEX = np.complex128", "x = np.eye(2, dtype=complex)", "y = x.astype(complex)",
        "z = np.zeros(2, dtype=COMPLEX)  # not complex256", "w = np.clongdouble(1)"]


def test_one_routine_takes_the_coefficient_norm():
    # frametensor.max_coeff_norm is the one home of the Frobenius formula, which
    # centrality_residual calls too; numpy's norm, with its dispatch, appears nowhere in the package
    sites = [p.name for p in sorted(SRC.glob("*.py"))
             if "linalg.norm" in p.read_text(encoding="utf-8")]
    assert sites == []


def _measures_a_wrapped_field(call) -> bool:
    """``max_coeff_norm(FrameTensorField(...))``: an array wrapped in a field only to be measured."""
    return (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "max_coeff_norm"
            and any(isinstance(a, ast.Call) and getattr(a.func, "id", None) == "FrameTensorField"
                    for a in call.args))


def test_no_array_is_wrapped_in_a_field_only_to_be_measured():
    # max_coeff_norm reads a (..., N, N) stack; a caller with an array passes it as it is,
    # and a caller with a field passes its coeffs
    sites = [(p.name, call.lineno) for p in sorted(SRC.glob("*.py"))
             for call in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
             if _measures_a_wrapped_field(call)]
    assert sites == []
    snippet = ast.parse("max_coeff_norm(FrameTensorField(n, x)); max_coeff_norm(x); "
                        "max_coeff_norm((a - b).coeffs)")
    assert [_measures_a_wrapped_field(e.value) for e in snippet.body] == [True, False, False]


def test_one_routine_takes_the_largest_entry():
    # frametensor.max_entry is the one max-entry residual; a second site could reduce an
    # array otherwise, and a later scale or norm would have to find it
    sites = [p.name for p in sorted(SRC.glob("*.py"))
             if "np.max(np.abs(" in p.read_text(encoding="utf-8")]
    assert sites == ["frametensor.py"]


def test_only_the_kernels_build_a_field_without_its_checks():
    # frametensor._unchecked_field skips the constructor's checks; outside the kernels that
    # fix the shape of what they wrap (apply_central_at, calculus._first_order), a field
    # must be checked
    sites = sorted({p.name for p in SRC.glob("*.py")
                    for call in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
                    if isinstance(call, ast.Call)
                    and "_unchecked_field" in (getattr(call.func, "id", None),
                                               getattr(call.func, "attr", None))})
    assert sites == ["calculus.py", "frametensor.py"]


def _callers(name: str) -> list:
    """(module, top-level definition) of every ``src/`` call of ``name``, methods included;
    a call outside any definition is listed under ``<module>``."""
    return sorted({(p.name, getattr(top, "name", "<module>")) for p in SRC.glob("*.py")
                   for top in ast.parse(p.read_text(encoding="utf-8")).body
                   for call in ast.walk(top) if isinstance(call, ast.Call)
                   and name in (getattr(call.func, "id", None), getattr(call.func, "attr", None))})


def test_one_kernel_runs_the_first_order_operator():
    # calculus._first_order is the one first-order operator: d on 1-forms, D and D_n call it.
    # d2 keeps its own slot contractions because its sigma step calls apply_central_at's
    # route directly, which through the kernel's apply_word would be a counted call
    assert _callers("_omega_at_slot") == [("calculus.py", "_first_order"), ("connection.py", "d2")]
    assert _callers("_first_order") == [("calculus.py", "differential1"),
                                        ("connection.py", "covariant_derivative"),
                                        ("connection.py", "dn")]
    assert _callers("apply_word") == [("calculus.py", "_first_order")]


def test_only_the_field_entry_points_take_the_gather_route():
    # frametensor._central_on_field gathers by a plan of the tensor's values; the star
    # tensor's letter blocks, star_form, word_tensor and every P contraction stay on central_at
    assert _callers("_central_on_field") == [("connection.py", "d2"),
                                             ("frametensor.py", "apply_central_at")]
    assert _callers("_monomial_plan") == [("frametensor.py", "_central_on_field")]
    assert "_central_on_field" not in (SRC / "involution.py").read_text(encoding="utf-8")


def test_one_generator_runs_every_step_of_the_star_tensor():
    # involution._word_by_column_block is build_jn's one recursion step; beside it only the
    # involution residual's conjugate word and star_form's contraction call central_at
    assert [top for module, top in _callers("central_at") if module == "involution.py"] == [
        "_word_by_column_block", "check_jn_involutive", "star_form"]


# order='C' lets an einsum keep its summation order's bits and run faster; no product on
# the D path needs that, since none is held to the bits of an einsum
C_ORDER = re.compile(r"""order\s*=\s*['"]C['"]""")


def test_no_einsum_is_kept_for_its_summation_order():
    # every algebra product on the D path is a GEMM or a matmul
    sites = [(p.name, line.strip()) for p in sorted(SRC.glob("*.py"))
             for line in p.read_text(encoding="utf-8").splitlines() if C_ORDER.search(line)]
    assert sites == []
    snippet = ("np.einsum('ij,jk->ik', a, b, order='C')\nnp.empty(3, order = \"C\")\n"
               "np.einsum('ij,jk->ik', a, b)\nnp.asarray(a, order='F')\n")
    assert [bool(C_ORDER.search(line)) for line in snippet.splitlines()] == [True, True, False, False]


def _builds_a_braiding_from_an_s(call) -> bool:
    """``make_braiding(...)`` or ``Braiding(...)`` with an argument of the form ``<expr>.S``."""
    name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
    args = [*call.args, *(k.value for k in call.keywords)]
    return name in ("make_braiding", "Braiding") and any(
        isinstance(a, ast.Attribute) and a.attr == "S" for a in args)


def test_only_the_geometry_builds_a_braiding_from_its_s():
    # FrameGeometry.braid holds S; a Braiding built from some record's S elsewhere would be
    # a second holder of it
    sites = [(p.name, top.name) for p in sorted(SRC.glob("*.py"))
             for top in ast.parse(p.read_text(encoding="utf-8")).body if hasattr(top, "name")
             for call in ast.walk(top)
             if isinstance(call, ast.Call) and _builds_a_braiding_from_an_s(call)]
    assert sites == [("calculus.py", "FrameGeometry")]
    snippet = ast.parse("make_braiding(geom.S); Braiding(n, S=x.S); make_braiding(s); f(g.S)")
    assert [_builds_a_braiding_from_an_s(e.value) for e in snippet.body] == [True, True, False, False]


def _matrix_product_sites(tree) -> set:
    """Top-level definitions under ``tree`` that take ``@`` or call ``matmul``; code
    outside any definition is listed under ``<module>``."""
    return {getattr(top, "name", "<module>") for top in tree.body for node in ast.walk(top)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
            or isinstance(node, ast.Call)
            and "matmul" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))}


def test_involution_contracts_its_letters_only_by_central_at():
    # build_jn and the involution residual run every letter through frametensor.central_at;
    # a product of their own would be a second letter contraction beside it.  The D2
    # coefficient identity keeps its GEMMs: it is the independent route by design
    tree = ast.parse((SRC / "involution.py").read_text(encoding="utf-8"))
    assert _matrix_product_sites(tree) == {"_d2_coefficient_residual"}
    snippet = ast.parse("def f(a, b):\n    return a @ b\ndef g(a, b):\n    a @= b\n"
                        "def h(a, b):\n    return np.matmul(a, b, out=a)\ndef k(a):\n    return a * a\n"
                        "x = matmul(y, z)\n")
    assert _matrix_product_sites(snippet) == {"f", "g", "h", "<module>"}


# each module may import only the modules before it; frametensor is the base
LAYERS = ("frametensor", "braiding", "calculus", "connection", "involution", "fixtures", "io",
          "report", "cli")


def test_modules_import_only_earlier_layers():
    # __init__ only re-exports; report reads __version__ from it lazily
    assert sorted(LAYERS) == sorted(p.stem for p in SRC.glob("*.py") if p.name != "__init__.py")
    upward = []
    for i, name in enumerate(LAYERS):
        tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            targets = [node.module] if node.module else [a.name for a in node.names]
            upward += [f"{name} imports {t}" for t in targets
                       if t not in LAYERS[:i] and t != "__version__"]
    assert upward == []
