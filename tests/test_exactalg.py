import ast
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bettiforge
from bettiforge import (
    GF_DEFAULT,
    GF_PARANOIA,
    QQ,
    PrimeField,
    field_from_spec,
)
from bettiforge.errors import PreconditionError
from bettiforge.exactalg import Accumulator, RowBasis, rank_of_rows
from bettiforge.resolver import _kernel_row_basis

FIELDS = (QQ, GF_DEFAULT, GF_PARANOIA)


def test_rref_identity():
    basis = RowBasis.from_rows([[1, 0], [0, 1]], 2, QQ)
    assert basis.dim == 2 and basis.pivots == (0, 1) and basis.support == ()


def test_rref_zero_matrix():
    basis = RowBasis.from_rows(QQ.zeros((3, 4)), 4, QQ)
    assert basis.dim == 0 and basis.pivots == () and basis.support == (0, 1, 2, 3)


def test_rref_proportional_rows():
    basis = RowBasis.from_rows([[1, 2], [2, 4]], 2, QQ)
    assert basis.dim == 1 and basis.full_rows().tolist() == [[1, 2]]


def test_kernel_identity_empty():
    kernel = _kernel_row_basis([[1, 0], [0, 1]], 2, QQ)
    assert kernel.dim == 0 and kernel.full_rows().shape == (0, 2)


def test_kernel_one_one():
    kernel = _kernel_row_basis([[1, 1]], 2, QQ)
    assert kernel.pivots == (1,) and kernel.full_rows().tolist() == [[Fraction(-1), Fraction(1)]]


def test_kernel_rank_one():
    # solve a + 2b = 0 by hand: kernel spanned by (2, -1), scaled (-2, 1) at the free column b
    (v,) = _kernel_row_basis([[1, 2], [2, 4]], 2, QQ).full_rows()
    assert v[0] * Fraction(-1) == v[1] * Fraction(2)
    assert v[1] == 1


def test_prime_field_validation():
    with pytest.raises(PreconditionError):
        PrimeField(65520)
    with pytest.raises(PreconditionError):
        PrimeField(2**31 + 11)


def test_field_from_spec():
    assert field_from_spec("rational") == QQ
    assert field_from_spec("65521") == GF_DEFAULT
    assert field_from_spec("prime:1073741789") == GF_PARANOIA
    assert field_from_spec(None) == GF_DEFAULT
    with pytest.raises(PreconditionError):
        field_from_spec("bogus")


def test_prime_coerces_fractions():
    f = GF_DEFAULT
    assert f.mul(f.coerce(Fraction(1, 2)), f.coerce(2)) == 1


small_matrices = st.integers(1, 3).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r, max_size=r)))


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_rank_nullity_and_idempotence(rows):
    ncols = len(rows[0])
    for field in FIELDS:
        basis = RowBasis.from_rows(rows, ncols, field)
        assert basis.dim + _kernel_row_basis(rows, ncols, field).dim == ncols
        again = RowBasis.from_rows(basis.full_rows(), ncols, field)
        assert again.pivots == basis.pivots and again.tails.tolist() == basis.tails.tolist()


def _rref_reference(rows):
    """Plain Fraction-list reduced row echelon form: the same pivot rule as the
    array kernel (columns left to right, lowest remaining row), no numpy."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(a[0])):
        r = len(pivots)
        hit = next((i for i in range(r, len(a)) if a[i][c]), None)
        if hit is None:
            continue
        a[r], a[hit] = a[hit], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                a[i] = [x - a[i][c] * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return pivots, a[:len(pivots)]


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_rank_agrees_over_fields(rows):
    # every minor is at most 3! * 9**3 = 4374 < 65521 in absolute value, so none
    # vanishes mod p unless it vanishes over QQ: ranks and pivots agree, and the
    # reduced rows (ratios of minors) agree once coerced into GF(p)
    ncols = len(rows[0])
    bases = {f: RowBasis.from_rows(rows, ncols, f) for f in FIELDS}
    rank = bases[QQ].dim
    for f in FIELDS:
        acc = Accumulator(ncols, f)
        for row in rows:
            acc.absorb([row])
        assert rank_of_rows(rows, ncols, f) == acc.dim == bases[f].dim == rank
    qq = bases[QQ]
    pivots, reduced = _rref_reference(rows)
    assert list(qq.pivots) == pivots
    assert qq.tails.tolist() == [[row[c] for c in qq.support] for row in reduced]
    for f in FIELDS[1:]:
        assert bases[f].pivots == qq.pivots
        assert [[f.coerce(x) for x in row] for row in qq.tails] == bases[f].tails.tolist()


row_blocks = st.integers(1, 5).flatmap(
    lambda c: st.tuples(
        st.lists(st.lists(st.integers(-3, 3), min_size=c, max_size=c), min_size=1, max_size=7),
        st.lists(st.integers(0, 7), max_size=4)))


@settings(max_examples=60, deadline=None)
@given(row_blocks)
def test_block_accumulator_matches_from_rows(rows_and_cuts):
    # the rows arrive in blocks split at random cuts, empty blocks included
    rows, cuts = rows_and_cuts
    ncols = len(rows[0])
    cuts = sorted(min(c, len(rows)) for c in cuts)
    blocks = [rows[a:b] for a, b in zip([0] + cuts, cuts + [len(rows)])]
    for f in (QQ, GF_DEFAULT, GF_PARANOIA):
        acc = Accumulator(ncols, f)
        for block in blocks:
            before = acc.dim
            added = acc.absorb(block)
            assert added == (acc.dim - before or None)
        want = RowBasis.from_rows(rows, ncols, f)
        assert acc.dim == want.dim
        assert acc.pivots == want.pivots and acc.support == want.support
        assert acc.tails.tolist() == want.tails.tolist()


def _field_type_tests(tree):
    """Qualified names of the scopes that call isinstance(..., PrimeField|RationalField)."""
    hits, scope = [], []

    class Visitor(ast.NodeVisitor):
        def enter(self, node):
            scope.append(node.name)
            self.generic_visit(node)
            scope.pop()

        visit_ClassDef = visit_FunctionDef = enter

        def visit_Call(self, node):
            if isinstance(node.func, ast.Name) and node.func.id == "isinstance" \
                    and len(node.args) == 2:
                names = {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
                if names & {"PrimeField", "RationalField"}:
                    hits.append(".".join(scope))
            self.generic_visit(node)

    Visitor().visit(tree)
    return hits


def test_no_field_type_branches_outside_the_field_classes():
    # kernels take the field as a parameter; a type test on it starts a second code path
    allowed = {"RationalField.__eq__", "PrimeField.__eq__", "field_from_spec"}
    hits = []
    for path in sorted(Path(bettiforge.__file__).parent.glob("*.py")):
        hits += [f"{path.name}:{scope}" for scope in _field_type_tests(ast.parse(path.read_text()))]
    assert hits, "the scan must at least see the field classes' own type tests"
    assert [h for h in hits if h.split(":")[1] not in allowed] == []


def _definitions(tree):
    """Top-level functions and classes, and the non-dunder methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, ast.FunctionDef)
                        and not (m.name.startswith("__") and m.name.endswith("__")))


def _references(node):
    """Every name a subtree reads, imports or looks up as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]


def test_every_definition_has_a_caller():
    # a definition whose name appears nowhere in src/ or tests/ but in its own body is dead code
    src = Path(bettiforge.__file__).parent
    trees = {path: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))}
    seen = Counter(name for tree in trees.values() for name in _references(tree))
    dead = [f"{path.name}:{node.name}" for path, tree in trees.items() if path.parent == src
            for node in _definitions(tree)
            if seen[node.name] == Counter(_references(node))[node.name]]
    assert dead == []


@settings(max_examples=40, deadline=None)
@given(small_matrices)
def test_kernel_vectors_annihilate(rows):
    ncols = len(rows[0])
    for field in FIELDS:
        kernel = _kernel_row_basis(rows, ncols, field)
        for v in kernel.full_rows():
            for row in rows:
                total = field.zero
                for c in range(ncols):
                    total = field.add(total, field.mul(field.coerce(row[c]), field.coerce(v[c])))
                assert field.is_zero(total)
