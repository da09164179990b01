import ast
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    PARANOIA_PRIME,
    Accumulator,
    RowBasis,
    SparseRows,
    _eliminate,
    _exact_schur_complement,
    _limb_terms,
    _limbs,
    _mod,
    _schur_complement,
    _sub_mod,
    rank_of_rows,
)
from bettiforge.resolver import _kernel_row_basis

FIELDS = (QQ, GF_DEFAULT, GF_PARANOIA)


def test_rref_identity():
    basis = RowBasis.from_rows([[1, 0], [0, 1]], 2, QQ)
    assert basis.dim == 2 and basis.pivots.tolist() == [0, 1] and basis.support.tolist() == []


def test_rref_zero_matrix():
    basis = RowBasis.from_rows(QQ.zeros((3, 4)), 4, QQ)
    assert basis.dim == 0 and basis.pivots.tolist() == [] and basis.support.tolist() == [0, 1, 2, 3]


def test_rref_proportional_rows():
    basis = RowBasis.from_rows([[1, 2], [2, 4]], 2, QQ)
    assert basis.dim == 1 and basis.full_rows().tolist() == [[1, 2]]


def test_kernel_identity_empty():
    kernel = _kernel_row_basis([[1, 0], [0, 1]], 2, QQ)
    assert kernel.dim == 0 and kernel.full_rows().shape == (0, 2)


def test_kernel_one_one():
    kernel = _kernel_row_basis([[1, 1]], 2, QQ)
    assert kernel.pivots.tolist() == [1] and kernel.full_rows().tolist() == [[Fraction(-1), Fraction(1)]]


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
    assert f.coerce(Fraction(1, 2)) * 2 % f.p == 1


@pytest.mark.parametrize("x", [2**63 + 5, 2**64 + 5, -2**63 - 5])
def test_prime_array_reduces_big_ints_exactly(x):
    # numpy reads [[2**63 + 5]] as uint64, [[2**63 + 5, 1]] as float64, and
    # the other two values as objects
    for row in ([x], [x, 1]):
        a = GF_DEFAULT.array([row], len(row))
        assert a.dtype == np.int64 and a.tolist() == [[v % DEFAULT_PRIME for v in row]]


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
        assert again.pivots.tolist() == basis.pivots.tolist()
        assert again.tails.tolist() == basis.tails.tolist()


def _rref_reference(rows):
    """Plain Fraction-list reduced row echelon form: the same pivot rule as the
    array kernel (columns left to right, lowest remaining row), no numpy."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(a[0]) if a else 0):
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
            acc.absorb(_sparse(f.array([row], ncols)))
        assert rank_of_rows(rows, ncols, f) == acc.dim == bases[f].dim == rank
    qq = bases[QQ]
    pivots, reduced = _rref_reference(rows)
    assert list(qq.pivots) == pivots
    assert qq.tails.tolist() == [[row[c] for c in qq.support] for row in reduced]
    for f in FIELDS[1:]:
        assert bases[f].pivots.tolist() == qq.pivots.tolist()
        assert [[f.coerce(x) for x in row] for row in qq.tails] == bases[f].tails.tolist()


def _assert_index_arrays(basis):
    """`pivots` and `support` are ascending int64 arrays that split the
    columns: disjoint, with union range(ncols)."""
    for index in (basis.pivots, basis.support):
        assert isinstance(index, np.ndarray) and index.dtype == np.int64 and index.ndim == 1
        assert (np.diff(index) > 0).all()
    assert sorted(basis.pivots.tolist() + basis.support.tolist()) == list(range(basis.ncols))


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
            added = acc.absorb(_sparse(f.array(block, ncols)))
            assert added == (acc.dim - before or None)
        want = RowBasis.from_rows(rows, ncols, f)
        for basis in (acc, want):
            _assert_index_arrays(basis)
        assert acc.dim == want.dim
        assert acc.pivots.tolist() == want.pivots.tolist()
        assert acc.support.tolist() == want.support.tolist()
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
    """(node, is_method): top-level functions and classes, and the non-dunder
    methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, False
        if isinstance(node, ast.ClassDef):
            yield from ((m, True) for m in node.body if isinstance(m, ast.FunctionDef)
                        and not (m.name.startswith("__") and m.name.endswith("__")))


def _references(node, methods=False):
    """Every name a subtree looks up as an attribute or imports, and with
    `methods` off also every bare name it reads: a method is reached only
    through an attribute, so a local variable of the same name is no use."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not methods:
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
    seen = {methods: Counter(name for tree in trees.values() for name in _references(tree, methods))
            for methods in (False, True)}
    dead = [f"{path.name}:{node.name}" for path, tree in trees.items() if path.parent == src
            for node, methods in _definitions(tree)
            if seen[methods][node.name] == Counter(_references(node, methods))[node.name]]
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
                assert field.coerce(sum(x * y for x, y in zip(row, v))) == 0


RANK_FIELDS = (QQ, PrimeField(2), PrimeField(3), GF_DEFAULT, GF_PARANOIA)


def _eliminated_rank(rows, ncols, field):
    # `_eliminate` over QQ runs on integers, so the rationals take the plain
    # Fraction reference
    if field == QQ:
        return len(_rref_reference(np.asarray(rows).tolist())[0])
    return len(_eliminate(field.array(rows, ncols), field, full=False)[1])


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


full_matrices = st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1)).map(
    lambda args: np.random.default_rng(args[2]).integers(1, 5, args[:2])
    * (np.random.default_rng(args[2] + 1).random(args[:2]) < 0.8))


@settings(max_examples=150, deadline=None)
@given(st.one_of(branch_matrices(), full_matrices))
@example(np.zeros((0, 0), dtype=np.int64))  # empty
@example(np.zeros((3, 0), dtype=np.int64))
@example(np.zeros((0, 3), dtype=np.int64))
@example(np.zeros((3, 4), dtype=np.int64))  # all zero
@example(np.tril(np.arange(1, 26).reshape(5, 5)))  # an echelon block only on the columns
@example(np.array([[1, 2, 3, 4], [2, 3, 4, 1], [3, 4, 1, 2]]))  # more than half full
def test_sparse_rows_rank_matches_dense_rank(a):
    nrows, ncols = a.shape
    for field in RANK_FIELDS:
        dense = field.array(a, ncols)
        rows, cols = np.nonzero(dense.astype(bool))
        sparse = SparseRows(nrows, rows, cols, dense[rows, cols])
        # a length and rows of nonzero values, as a list of rows has
        assert len(sparse) == nrows
        assert [np.count_nonzero(r) for r in sparse] == np.count_nonzero(dense, axis=1).tolist()
        want = _eliminated_rank(a, ncols, field)
        assert rank_of_rows(sparse, ncols, field) == rank_of_rows(dense, ncols, field) == want


def test_structural_rank_across_blocks():
    # pivots over more than two 128-column chunks of T and slabs of B, rows
    # mixing them, and noise that leaves a Schur complement of rank 20
    rng = np.random.default_rng(11)
    block = _echelon(rng, 300, 330, 0.03)
    mix = rng.integers(-2, 3, (60, 300)) * (rng.random((60, 300)) < 0.03)
    noise = np.zeros((60, 330), dtype=np.int64)
    noise[:20] = rng.integers(-4, 5, (20, 330)) * (rng.random((20, 330)) < 0.05)
    a = np.concatenate([block, mix @ block + noise])
    for field in RANK_FIELDS[1:]:
        assert rank_of_rows(a, 330, field) == _eliminated_rank(a, 330, field)


def _with_denominators(args, most=30):
    """The integer matrix with every entry divided by its own denominator in
    1..most, as Fraction rows, and its column count."""
    a, seed = args
    den = np.random.default_rng(seed).integers(1, most + 1, a.shape)
    return [[Fraction(x, d) for x, d in zip(row, drow)]
            for row, drow in zip(a.tolist(), den.tolist())], a.shape[1]


def _assert_reduces_like_the_reference(rows, ncols, blocks):
    """Over QQ, the rank, `RowBasis.from_rows` and an `Accumulator` fed
    `blocks` row blocks all equal the plain Fraction reference."""
    pivots, reduced = _rref_reference(rows)
    assert rank_of_rows(rows, ncols, QQ) == len(pivots)
    dense = QQ.array(rows, ncols)
    i, j = np.nonzero(dense.astype(bool))
    assert rank_of_rows(SparseRows(len(rows), i, j, dense[i, j]), ncols, QQ) == len(pivots)
    acc = Accumulator(ncols, QQ)
    cuts = np.linspace(0, len(rows), blocks + 1).astype(int).tolist()
    for a, b in zip(cuts, cuts[1:]):
        acc.absorb(_sparse(QQ.array(rows[a:b], ncols)))
    for basis in (RowBasis.from_rows(rows, ncols, QQ), acc):
        assert list(basis.pivots) == pivots
        assert basis.tails.tolist() == [[row[c] for c in basis.support] for row in reduced]
        assert all(type(x) is Fraction for x in basis.tails.flat)


@settings(max_examples=150, deadline=None)
@given(st.tuples(branch_matrices(), st.integers(0, 2**32 - 1)).map(_with_denominators),
       st.integers(1, 3))
def test_rational_entries_match_the_reference(rows_and_ncols, blocks):
    # every branch of `_rank` (the echelon block, the dense > 1/2 branch, the
    # exact Schur recursion) on rationals, ranked and reduced on integers
    _assert_reduces_like_the_reference(*rows_and_ncols, blocks)


def _dtypes(monkeypatch, name, arg):
    """The dtype of argument `arg` of every call of `exactalg.<name>` from now on."""
    seen, real = [], getattr(exactalg, name)

    def spy(*args, **kwargs):
        seen.append(args[arg].dtype)
        return real(*args, **kwargs)

    monkeypatch.setattr(exactalg, name, spy)
    return seen


def _big_rationals(rng, nrows, ncols, rank):
    """A sparse nrows x ncols matrix of the given rank whose rows, cleared of
    denominators, pass `exactalg._INT64_BOUND`: an echelon block of `rank`
    rows with numerators near 2**40 over powers of 3 up to 3**20, then rows
    that mix a few of them with small coefficients."""
    nonzero = _echelon(rng, rank, ncols, 0.2).astype(bool)
    num = rng.integers(2**40 - 2**20, 2**40, nonzero.shape) * rng.choice([-1, 1], nonzero.shape)
    den = 3 ** rng.integers(0, 21, nonzero.shape)
    top = [[Fraction(x, d) for x, d in zip(row, drow)]
           for row, drow in zip((num * nonzero).tolist(), den.tolist())]
    mix = rng.integers(-2, 3, (nrows - rank, rank)) * (rng.random((nrows - rank, rank)) < 0.3)
    return top + [[sum((m * row[c] for m, row in zip(coef, top)), Fraction(0)) for c in range(ncols)]
                  for coef in mix.tolist()]


def test_rows_past_the_int64_bound_take_python_ints(monkeypatch):
    rng = np.random.default_rng(18)
    for nrows, ncols, rank in ((8, 10, 5), (16, 30, 10)):
        rows = _big_rationals(rng, nrows, ncols, rank)
        assert len(_rref_reference(rows)[0]) == rank
        ranked, schur = _dtypes(monkeypatch, "_rank", 2), _dtypes(monkeypatch, "_exact_schur_complement", 0)
        eliminated = _dtypes(monkeypatch, "_eliminate", 0)
        _assert_reduces_like_the_reference(rows, ncols, 2)
        # an absorbed block whose residual is zero is eliminated in int64
        assert set(ranked) == set(schur) == {np.dtype(object)} and np.dtype(object) in eliminated
        monkeypatch.undo()


def test_entries_that_grow_past_the_int64_bound_widen_in_place(monkeypatch):
    # the cleared rows start below 2**31, so the elimination enters in int64;
    # the first pivot step makes products near 2**60 and carries on in Python
    # ints within the same call
    rows = np.random.default_rng(5).integers(2**30, 2**31, (6, 6)).tolist()
    for run in (lambda: rank_of_rows(rows, 6, QQ), lambda: RowBasis.from_rows(rows, 6, QQ)):
        eliminated = _dtypes(monkeypatch, "_eliminate", 0)
        run()
        assert eliminated == [np.dtype(np.int64)]
        monkeypatch.undo()
    _assert_reduces_like_the_reference(rows, 6, 3)


def test_a_schur_complement_past_the_int64_bound_is_ranked_on_python_ints(monkeypatch):
    # a sparse matrix of int64 numerators just below 2**31: the exact Schur
    # complement passes the bound, and the next level ranks its Python ints
    rng = np.random.default_rng(24)
    a = rng.integers(2**30, 2**31, (12, 16)) * (rng.random((12, 16)) < 0.3)
    rows = a.tolist()
    ranked, schur = _dtypes(monkeypatch, "_rank", 2), []

    def spy(g, k, field):
        s = exact_schur(g, k, field)
        schur.append((g.dtype, s.dtype))
        return s

    exact_schur = exactalg._exact_schur_complement
    monkeypatch.setattr(exactalg, "_exact_schur_complement", spy)
    assert rank_of_rows(rows, 16, QQ) == len(_rref_reference(rows)[0])
    # `_rank` enters in int64 once; the complement moves to Python ints
    # within its own call, and every level below ranks those
    assert ranked[0] == schur[0][0] == np.dtype(np.int64)
    assert schur[0][1] == ranked[1] == np.dtype(object) and np.dtype(np.int64) not in ranked[1:]


def test_small_rationals_stay_on_int64(monkeypatch):
    # an echelon block and rows that mix it, with denominators 1..6
    rng = np.random.default_rng(7)
    for seed in range(20):
        a = _echelon(rng, 6, 10, 0.2)
        a = np.concatenate([a, rng.integers(-2, 3, (4, len(a))) @ a + (rng.random((4, 10)) < 0.1)])
        rows, ncols = _with_denominators((a, seed), most=6)
        ranked, eliminated = _dtypes(monkeypatch, "_rank", 2), _dtypes(monkeypatch, "_eliminate", 0)
        _assert_reduces_like_the_reference(rows, ncols, 2)
        assert ranked and eliminated
        assert set(ranked) == set(eliminated) == {np.dtype(np.int64)}
        monkeypatch.undo()


# GF(65521) forms every Schur product in one float64 product, GF(1073741789)
# in 15-bit limbs summed 256 inner terms at a time
SCHUR_FIELDS = (GF_DEFAULT, GF_PARANOIA)


def _schur_matches_exact(field, t, nrest, nother, seed, density=0.3, b_rows=None):
    """`_schur_complement` over the prime field `field` on [[T, B], [Y0, C]],
    with random B (nonzero only in `b_rows`, if given), Y0 and C and the
    coordinates in shuffled order, gives the nonzero entries of
    `_exact_schur_complement` as int64 coordinates in (row, column) order.
    Returns those coordinates."""
    rng = np.random.default_rng(seed)
    p, k = field.characteristic, len(t)
    g = rng.integers(1, p, (k + nrest, k + nother)) * (rng.random((k + nrest, k + nother)) < density)
    g[:k, :k] = t % p
    if b_rows is not None:
        g[np.setdiff1d(np.arange(k), b_rows), k:] = 0
    i, j = np.nonzero(g)
    shuffle = rng.permutation(i.size)
    i, j = i[shuffle], j[shuffle]
    rows, cols, vals = _schur_complement(g[i, j], i, j, k, nrest, nother, p)
    want = _exact_schur_complement(g.copy(), k, field)
    assert rows.dtype == cols.dtype == vals.dtype == np.int64 and vals.all()
    assert np.lexsort((cols, rows)).tolist() == list(range(rows.size))
    got = np.zeros((nrest, nother), np.int64)
    got[rows, cols] = vals
    assert got.tolist() == want.tolist()
    return rows, cols, vals


def _upper(rng, k, density):
    """A k x k upper triangular integer matrix with a nonzero diagonal."""
    t = np.triu(rng.integers(-9, 10, (k, k)) * (rng.random((k, k)) < density), 1)
    return t + np.diag(rng.integers(1, 9, k))


def test_schur_complement_on_a_chain_as_deep_as_t():
    # bidiagonal: column q reads column q - 1, so every level holds one
    # column, and the chain crosses the 128-column chunks
    t = np.diag(np.arange(1, 301)) + np.diag(np.full(299, -3), 1)
    for field in SCHUR_FIELDS:
        _schur_matches_exact(field, t, 9, 6, seed=1)


def test_schur_complement_on_a_level_wider_than_a_chunk():
    # every other column reads column 0 only: one level of 299 columns
    t = np.diag(np.arange(1, 301))
    t[0, 1:] = 5
    for field in SCHUR_FIELDS:
        _schur_matches_exact(field, t, 9, 6, seed=5)


def test_schur_complement_on_a_diagonal_t():
    # no column reads another: nothing is solved past level 0
    for field in SCHUR_FIELDS:
        _schur_matches_exact(field, np.diag(np.arange(2, 152)), 12, 8, seed=2)


@pytest.mark.parametrize("k", [1, 127, 203, 333])
def test_schur_complement_on_a_sparse_t(k):
    for field in SCHUR_FIELDS:
        _schur_matches_exact(field, _upper(np.random.default_rng(k), k, 0.02), 17, 11, seed=k)


def test_schur_complement_where_b_meets_few_pivot_rows():
    # only the columns of Y that meet B reach S: on a chain with B in row
    # 120, column 120 alone
    t = np.diag(np.arange(1, 201)) + np.diag(np.full(199, 7), 1)
    for field in SCHUR_FIELDS:
        _schur_matches_exact(field, t, 15, 9, seed=6, b_rows=[120])
        _schur_matches_exact(field, _upper(np.random.default_rng(6), 200, 0.05), 15, 9, seed=6,
                             b_rows=[3, 77, 150])


def test_schur_complement_with_no_other_columns():
    # B and C are empty, so S is nrest x 0
    for field in SCHUR_FIELDS:
        _schur_matches_exact(field, _upper(np.random.default_rng(3), 40, 0.1), 7, 0, seed=3)


def test_schur_complement_over_several_row_blocks():
    # the rest rows go through in blocks of `_SCHUR_CELLS` // max(m, nother)
    # rows, here nother: two full blocks and a short one
    k, nother = 45, 4096
    nrest = 2 * (exactalg._SCHUR_CELLS // nother) + 37
    for field in SCHUR_FIELDS:
        _schur_matches_exact(field, _upper(np.random.default_rng(4), k, 0.1),
                             nrest, nother, seed=4, density=0.01)


def test_row_blocks_of_one_row_change_nothing(monkeypatch):
    # a cell bound below one row gives blocks of one row each: the same
    # coordinates of S, and the same ranks, as one block
    rng = np.random.default_rng(8)
    t = _upper(rng, 150, 0.05)
    mats = [rng.integers(1, 50, (120, 100)) * (rng.random((120, 100)) < density)
            for density in (0.02, 0.04, 0.08)]
    for field in SCHUR_FIELDS:
        whole = _schur_matches_exact(field, t, 23, 14, seed=8)
        ranks = [rank_of_rows(a, 100, field) for a in mats]
        assert ranks == [len(_eliminate(field.array(a, 100), field, full=False)[1]) for a in mats]
        monkeypatch.setattr(exactalg, "_SCHUR_CELLS", 1)
        rowwise = _schur_matches_exact(field, t, 23, 14, seed=8)
        assert [x.tolist() for x in rowwise] == [x.tolist() for x in whole]
        assert [rank_of_rows(a, 100, field) for a in mats] == ranks
        monkeypatch.undo()


def test_row_blocks_stay_within_the_cell_bound(monkeypatch):
    # a dense block of Y or S has at most `_SCHUR_CELLS` // max(k, nother)
    # rows
    k, nother, cells = 300, 6, 3000
    t = np.diag(np.arange(1, k + 1)) + np.diag(np.full(k - 1, -3), 1)
    heights = []

    def spy(c, a, b, p):
        heights.append(len(c))
        return sub_mod(c, a, b, p)

    sub_mod = exactalg._sub_mod
    monkeypatch.setattr(exactalg, "_sub_mod", spy)
    monkeypatch.setattr(exactalg, "_SCHUR_CELLS", cells)
    for field in SCHUR_FIELDS:
        _schur_matches_exact(field, t, 45, nother, seed=9, density=0.5)
    assert heights and max(heights) == cells // k


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


def _sub_mod_reference(c, a, b, p):
    """(c - a @ b) mod p in Python ints."""
    return ((c.astype(object) - a.astype(object) @ b.astype(object)) % p).tolist()


# 2147483647 = 2**31 - 1 is the largest prime `PrimeField` accepts: 3 limbs,
# 128 inner terms per chunk
SUB_MOD_PRIMES = (DEFAULT_PRIME, PARANOIA_PRIME, 2**31 - 1)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SUB_MOD_PRIMES), st.integers(1, 6), st.integers(0, 600), st.integers(0, 2**32 - 1))
@example(PARANOIA_PRIME, 2, 256, 0)
@example(PARANOIA_PRIME, 2, 257, 1)
@example(PARANOIA_PRIME, 3, 513, 2)
@example(2**31 - 1, 2, 129, 3)
def test_sub_mod_returns_residues(p, nrows, inner, seed):
    # inner sizes on both sides of the chunk length t, and several chunks
    rng = np.random.default_rng(seed)
    c = rng.integers(0, p, (nrows, 3))
    a = rng.integers(0, p, (nrows, inner))
    b = rng.integers(0, p, (inner, 3))
    got = _sub_mod(c.astype(np.float64), a.astype(np.float64), _limbs(b, p, inner), p)
    assert got.tolist() == _sub_mod_reference(c, a, b, p)


def test_limbs_and_chunks_follow_the_bounds():
    for p, limbs, terms in ((PARANOIA_PRIME, 2, 256), (2**31 - 1, 3, 128)):
        t = _limb_terms(p)
        assert t == terms
        assert t * (p - 1) * (2**15 - 1) + 2 * p <= 2**53 < (t + 1) * (p - 1) * (2**15 - 1) + 2 * p
        b = np.array([[0, 1, p - 1]])
        split = _limbs(b, p, 1)
        assert split.shape == (limbs, 1, 3) and split.max() < 2**15
        assert sum(x.astype(np.int64) << 15 * e for e, x in enumerate(split[::-1])).tolist() == b.tolist()
    # GF(65521): one product, v itself, up to 2**21 inner terms and no further
    edge = 2**53 // (DEFAULT_PRIME - 1) ** 2
    assert edge * (DEFAULT_PRIME - 1) ** 2 + DEFAULT_PRIME <= 2**53
    assert len(_limbs(np.array([1]), DEFAULT_PRIME, edge)) == 1
    assert len(_limbs(np.array([1]), DEFAULT_PRIME, edge + 1)) == 2


@pytest.mark.parametrize("p,inner", [(DEFAULT_PRIME, 2**53 // (DEFAULT_PRIME - 1) ** 2),
                                     (DEFAULT_PRIME, 2**53 // (DEFAULT_PRIME - 1) ** 2 + 1),
                                     (PARANOIA_PRIME, 256), (PARANOIA_PRIME, 257), (PARANOIA_PRIME, 1000),
                                     (2**31 - 1, 128), (2**31 - 1, 385)])
def test_sub_mod_is_exact_at_the_edge_of_its_bound(p, inner):
    # c = 0 and every other entry p - 1 give the largest sums: at the
    # one-product edge of GF(65521), one term past it (limbs), and at and past
    # a chunk of t terms
    a = np.full((1, inner), p - 1.0)
    b = np.full((inner, 1), p - 1)
    got = _sub_mod(np.zeros((1, 1)), a, _limbs(b, p, inner), p)
    # (p - 1)**2 = 1 mod p
    assert got.tolist() == [[-inner % p]]


def _field_entries(field, rng, shape, full):
    """Random field entries of `shape`: every one −1 (p − 1 over GF(p)) when
    `full`, else with about a third zero and some whole rows and columns zero."""
    if full:
        return np.full(shape, field.coerce(-1), dtype=field.dtype)
    p = field.characteristic
    if p:
        out = rng.integers(0, p, shape)
    else:
        out = np.array([Fraction(int(x), int(y)) for x, y in zip(rng.integers(-40, 40, shape).flat,
                                                                 rng.integers(1, 9, shape).flat)],
                       dtype=object).reshape(shape)
    out[rng.random(shape) < 0.3] = field.zero
    out[rng.random(shape[0]) < 0.3] = field.zero
    out[:, rng.random(shape[1]) < 0.3] = field.zero
    return out


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([QQ, PrimeField(2), *map(PrimeField, SUB_MOD_PRIMES)]), st.integers(0, 4),
       st.integers(0, 600), st.integers(0, 5), st.booleans(), st.integers(0, 2**32 - 1))
@example(GF_PARANOIA, 2, 256, 3, True, 0)
@example(GF_PARANOIA, 2, 257, 3, True, 0)
@example(PrimeField(2**31 - 1), 2, 128, 3, True, 0)
@example(PrimeField(2**31 - 1), 1, 129, 2, True, 0)
@example(QQ, 3, 0, 2, False, 1)
@example(PrimeField(2), 0, 300, 4, False, 2)
@example(GF_DEFAULT, 3, 40, 0, False, 3)
def test_sub_matmul_matches_the_exact_reference(field, nrows, inner, ncols, full, seed):
    # one exact product per field: inner sizes across the chunk lengths 256
    # (GF(1073741789)) and 128 (GF(2**31 - 1)), operands with zero lines
    rng = np.random.default_rng(seed)
    c = _field_entries(field, rng, (nrows, ncols), False)
    a = _field_entries(field, rng, (nrows, inner), full)
    b = _field_entries(field, rng, (inner, ncols), full)
    before = c.copy()
    expected = [[field.coerce(x) for x in row]
                for row in c.astype(object) - a.astype(object) @ b.astype(object)]
    assert field.sub_matmul(c, a, b) is c
    assert c.dtype == field.dtype and c.tolist() == expected
    untouched = ~b.astype(bool).any(axis=0)
    assert c[:, untouched].tolist() == before[:, untouched].tolist()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, DEFAULT_PRIME, 94906249]).flatmap(
    lambda p: st.tuples(st.just(p), st.lists(st.integers(p - 2**53, 2**53 - p), min_size=1, max_size=8))))
def test_mod_is_exact_up_to_the_bound(args):
    # 94906249 is the largest prime with (p - 1)**2 + p <= 2**53
    p, xs = args
    xs += [p - 2**53, 2**53 - p, -p, p, 0]
    assert _mod(np.array(xs, dtype=np.float64), p).tolist() == [x % p for x in xs]


def _sparse(dense):
    """The field array `dense` as `SparseRows`."""
    rows, cols = np.nonzero(dense.astype(bool))
    return SparseRows(len(dense), rows, cols, dense[rows, cols])


def _stacked(rng, k, m, density, below):
    """Pivot rows [T | B], T k x k unit upper triangular, then one row per
    row of `below` (m columns): a nonzero mix of the pivot rows plus that row
    on the other m columns, so that their Schur complement is `below`."""
    t = np.triu(rng.integers(-3, 4, (k, k)) * (rng.random((k, k)) < density), 1) + np.eye(k, dtype=np.int64)
    top = np.hstack([t, rng.integers(-3, 4, (k, m)) * (rng.random((k, m)) < density)])
    mix = rng.integers(1, 4, (len(below), k)) * (rng.random((len(below), k)) < 0.1)
    mix[np.arange(len(below)), rng.integers(0, k, len(below))] = 1
    return np.vstack([top, mix @ top + np.hstack([np.zeros((len(below), k), np.int64), below])])


@st.composite
def stacked_matrices(draw):
    """`_stacked` pivot rows over a small `below`, itself stacked at times, so
    that the reduced row echelon form recurses one or two levels; the rows
    are scaled and shuffled, and at times the columns too."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, m, r = draw(st.integers(2, 12)), draw(st.integers(1, 8)), draw(st.integers(0, 5))
    below = rng.integers(-2, 3, (r, m))
    if m > 2 and draw(st.booleans()):
        below = _stacked(rng, m // 2, m - m // 2, 0.3, rng.integers(-2, 3, (len(below), m - m // 2)))
    a = _stacked(rng, k, m, 0.2, below)
    a = (a * rng.choice([-3, -1, 2, 3], (len(a), 1)))[rng.permutation(len(a))]
    return a[:, rng.permutation(k + m)] if draw(st.booleans()) else a


@settings(max_examples=150, deadline=None)
@given(st.one_of(branch_matrices(), full_matrices, stacked_matrices()), st.integers(0, 10))
@example(np.zeros((0, 3), dtype=np.int64), 0)  # an empty block
@example(np.zeros((4, 5), dtype=np.int64), 2)  # zero rows
def test_sparse_absorb_matches_from_rows(a, cut):
    # the first `cut` rows go in as a block of their own, so that the second
    # block meets a basis that is not empty whenever they have rank; stacked
    # matrices reach the Schur recursion and the solve of the tails
    ncols = a.shape[1]
    for field in FIELDS:
        dense = field.array(a, ncols)
        acc = Accumulator(ncols, field)
        acc.absorb(_sparse(dense[:cut]))
        before = acc.dim
        added = acc.absorb(_sparse(dense[cut:]))
        want = RowBasis.from_rows(a, ncols, field)
        assert added == (want.dim - before or None)
        assert acc.pivots.tolist() == want.pivots.tolist()
        assert acc.support.tolist() == want.support.tolist()
        assert acc.tails.tolist() == want.tails.tolist()


def test_sparse_rref_recurses_falls_back_and_solves(monkeypatch):
    # two Schur levels, the second more than half full: the recursion, the
    # dense fallback and the triangular solve of the tails each run
    rng = np.random.default_rng(26)
    a = _stacked(rng, 30, 20, 0.08, _stacked(rng, 12, 8, 0.15, rng.integers(1, 5, (6, 8))))
    for field in SCHUR_FIELDS:
        levels, dense, solves = [], [], []
        real_rref, real_eliminate, real_solve = exactalg._rref, exactalg._eliminate, exactalg._solve
        monkeypatch.setattr(exactalg, "_rref", lambda *args: levels.append(args[3:5]) or real_rref(*args))
        monkeypatch.setattr(exactalg, "_eliminate",
                            lambda a, *args, **kw: dense.append(a.shape) or real_eliminate(a, *args, **kw))
        monkeypatch.setattr(exactalg, "_solve",
                            lambda y, steps, p: solves.append((y.shape, len(steps))) or real_solve(y, steps, p))
        acc = Accumulator(50, field)
        acc.absorb(_sparse(field.array(a, 50)))
        monkeypatch.undo()
        assert levels == [(48, 50), (18, 20), (6, 8)] and dense == [(6, 8)]
        # the tails of both upper levels are solved, each through a level step
        assert [(shape[1], steps > 0) for shape, steps in solves[-2:]] == [(12, True), (30, True)]
        want = RowBasis.from_rows(a, 50, field)
        assert acc.pivots.tolist() == want.pivots.tolist()
        assert acc.tails.tolist() == want.tails.tolist()
