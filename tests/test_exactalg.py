import ast
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
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
from bettiforge import exactalg
from bettiforge.exactalg import (
    DEFAULT_PRIME,
    Accumulator,
    RowBasis,
    _eliminate,
    _mod,
    _sub_mod,
    rank_of_rows,
)
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


def _unread_imports(tree):
    """Names an import statement binds that no expression in the module reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_every_import_is_read():
    # an import nothing reads misreports what a module or a test depends on;
    # the package's __init__ binds names only to re-export them
    src = Path(bettiforge.__file__).parent
    paths = [p for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(Path(__file__).parent.glob("*.py"))
    unread = [f"{path.name}: {hit}" for path in paths
              for hit in _unread_imports(ast.parse(path.read_text()))]
    assert len(paths) > 15 and unread == []


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


RANK_FIELDS = (QQ, PrimeField(2), PrimeField(3), GF_DEFAULT, GF_PARANOIA)


def _eliminated_rank(rows, ncols, field):
    return len(_eliminate(field.array(rows, ncols), field, full=False))


def _echelon(rng, nrows, ncols, density):
    """Rows with distinct leading columns, each led by a 1, in shuffled order."""
    leads = np.sort(rng.choice(ncols, size=min(nrows, ncols), replace=False))
    a = np.zeros((len(leads), ncols), dtype=np.int64)
    for r, c in enumerate(leads):
        a[r, c + 1:] = rng.integers(-4, 5, ncols - c - 1) * (rng.random(ncols - c - 1) < density)
        a[r, c] = 1
    return a[rng.permutation(len(leads))]


@st.composite
def branch_matrices(draw):
    """Small integer matrices aimed at every branch of the structural rank:
    empty and all-zero input, zero rows and columns, repeated leading columns,
    an echelon block with no row left over, a block only the transpose sees
    (every row leads at column 0), and a nonzero Schur complement."""
    kind = draw(st.sampled_from(["sparse", "echelon", "columns", "schur"]))
    nrows, ncols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = rng.integers(-4, 5, (nrows, ncols)) * (rng.random((nrows, ncols)) < density)
    if kind == "sparse" or not nrows or not ncols:
        return noise
    block = _echelon(rng, nrows, ncols, max(density, 0.5))
    if kind == "echelon":
        return np.concatenate([block, np.zeros((2, ncols), dtype=np.int64)])
    if kind == "columns":
        side = min(nrows, ncols)
        a = np.tril(rng.integers(-4, 5, (nrows, side)))
        a[np.arange(side), np.arange(side)] = 1
        a[:, 0] = 1
        return a
    mix = rng.integers(-2, 3, (nrows, len(block))) * (rng.random((nrows, len(block))) < 0.5)
    return np.concatenate([block, mix @ block + noise])


@settings(max_examples=150, deadline=None)
@given(branch_matrices())
def test_structural_rank_matches_elimination(a):
    ncols = a.shape[1]
    for field in RANK_FIELDS:
        want = _eliminated_rank(a, ncols, field)
        assert rank_of_rows(a.tolist(), ncols, field) == want
        # an int64 array of residues is read in place, a QQ array of Fractions
        # is converted; neither may change
        reduced = field.array(a, ncols)
        before = reduced.copy()
        assert rank_of_rows(reduced, ncols, field) == want
        assert np.array_equal(reduced, before)
        p = field.characteristic
        if p:
            # the same residues, written with negative entries and entries >= p
            assert rank_of_rows(a + p * (np.arange(a.size).reshape(a.shape) % 3 - 1), ncols, field) == want


def test_structural_rank_across_blocks():
    # more than two solve blocks of pivots, rows mixing them, and noise that
    # leaves a Schur complement of rank 20
    rng = np.random.default_rng(11)
    block = _echelon(rng, 300, 330, 0.03)
    mix = rng.integers(-2, 3, (60, 300)) * (rng.random((60, 300)) < 0.03)
    noise = np.zeros((60, 330), dtype=np.int64)
    noise[:20] = rng.integers(-4, 5, (20, 330)) * (rng.random((20, 330)) < 0.05)
    a = np.concatenate([block, mix @ block + noise])
    for field in RANK_FIELDS[1:]:
        assert rank_of_rows(a, 330, field) == _eliminated_rank(a, 330, field)


def _raise(*args, **kwargs):
    raise AssertionError("an echelon block needs no elimination")


@pytest.mark.parametrize("transpose", [False, True])
def test_echelon_blocks_skip_elimination(monkeypatch, transpose):
    # lower triangular: every row leads at column 0, every column at its own
    # row; only the transposed view is an echelon block with no line left over
    a = np.tril(np.arange(1, 37).reshape(6, 6))
    if transpose:
        a = a.T.copy()
    monkeypatch.setattr(exactalg, "_eliminate", _raise)
    for field in (QQ, GF_PARANOIA):
        assert rank_of_rows(a, 6, field) == 6


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 40), st.integers(0, 2**32 - 1))
def test_sub_mod_returns_residues(nrows, inner, seed):
    rng = np.random.default_rng(seed)
    p = DEFAULT_PRIME
    c = rng.integers(0, p, (nrows, 3))
    a = rng.integers(0, p, (nrows, inner))
    b = rng.integers(0, p, (inner, 3))
    got = _sub_mod(c.astype(np.float64), a.astype(np.float64), b.astype(np.float64), p)
    assert got.tolist() == ((c - a @ b) % p).tolist()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, DEFAULT_PRIME, 94906249]).flatmap(
    lambda p: st.tuples(st.just(p), st.lists(st.integers(p - 2**53, 2**53 - p), min_size=1, max_size=8))))
def test_mod_is_exact_up_to_the_bound(args):
    # 94906249 is the largest prime with (p - 1)**2 + p <= 2**53
    p, xs = args
    xs += [p - 2**53, 2**53 - p, -p, p, 0]
    assert _mod(np.array(xs, dtype=np.float64), p).tolist() == [x % p for x in xs]
