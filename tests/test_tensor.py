import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import exclusion as ex
import exclusion.tensor as tensor
import exclusion.transfer as tr
import exclusion.verifier as vf
from exclusion.markov import KernelError, steady_state_exact
from exclusion.scalars import format_rational
from exclusion.tensor import Matrix, PoleError, SparseMatrix, _primes, \
    derivative_at, embed_at_positions, exact_nullspace, integer_vector, \
    inverse, kron, partial_trace_first, partial_transpose, permutation_op, rank
from reference import as_cached, dense, embed_dense, embed_local, \
    fraction_kron, fraction_partial_transpose, fraction_product

I2 = Matrix.identity(2)
I4 = Matrix.identity(4)


def basis_proj(i):
    return Matrix([[int(r == c == i) for c in range(2)] for r in range(2)])


def test_kron_identities():
    assert kron(I2, I2) == I4
    d = Matrix([[1, 0], [0, 2]])
    assert kron(d, I2) == Matrix([[1, 0, 0, 0], [0, 1, 0, 0],
                                  [0, 0, 2, 0], [0, 0, 0, 2]])
    out = kron(basis_proj(0), basis_proj(1))
    expect = Matrix([[int(r == c == 1) for c in range(4)] for r in range(4)])
    assert out == expect


small_entries = st.integers(min_value=-3, max_value=3)


def mat_strategy(n):
    return st.lists(st.lists(small_entries, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(Matrix)


@settings(max_examples=25)
@given(mat_strategy(2), mat_strategy(2), mat_strategy(2))
def test_kron_associative(A, B, C):
    assert kron(kron(A, B), C) == kron(A, kron(B, C))


def test_permutation_op():
    P = permutation_op()
    e0, e1 = [F(1), F(0)], [F(0), F(1)]
    v01 = [a * b for a in e0 for b in e1]
    v10 = [a * b for a in e1 for b in e0]
    assert P.apply(v01) == v10
    assert P * P == I4
    w, _, _ = ex.local_operators(ex.ssep(1, 1, 1, 1))
    assert P - I4 == w


def test_embed_local():
    assert dense(embed_local(I2, 1, 3)) == Matrix.identity(8)
    w, B, _ = ex.local_operators(ex.ssep(1, 1, F(1, 2), F(1, 3)))
    assert dense(embed_local(w, 1, 2)) == w
    assert dense(embed_local(B, 1, 2)) == kron(B, I2)
    with pytest.raises(ValueError):
        embed_local(I2, 4, 3)
    with pytest.raises(ValueError):
        embed_local(w, 3, 3)


def test_embed_sum_adds_the_embeddings():
    w, B, Bbar = ex.local_operators(ex.asep(2, 1, 1, F(1, 2), F(1, 3)))
    wi, Bi, Bbari = map(SparseMatrix.from_dense, (w, B, Bbar))
    got = embed_at_positions([(wi, (1, 2)), (Bi, (0,)), (Bbari, (3,)),
                              (wi, (1, 2))], 4)
    want = embed_local(w, 2, 4) + embed_local(B, 1, 4) \
        + embed_local(Bbar, 4, 4) + embed_local(w, 2, 4)
    assert got == want and got.den == 6     # w, B, Bbar over d = 6
    assert all(type(v) is int for row in got._rows.values()
               for v in row.values())
    for op, positions in ((wi, (3, 4)), (Bi, (4,)), (Bi, (-1,))):
        with pytest.raises(ValueError):
            embed_at_positions([(op, positions)], 4)


def test_embed_disjoint_supports_commute():
    w, B, Bbar = ex.local_operators(ex.asep(2, 1, 1, F(1, 2), F(1, 3)))
    a = embed_local(w, 1, 4)
    b = embed_local(w, 3, 4)
    assert a * b == b * a
    c = embed_local(B, 1, 4)
    d = embed_local(Bbar, 4, 4)
    assert c * d == d * c


@st.composite
def _local_terms(draw):
    # up to 4 operators of 2x2 or 4x4 on n <= 5 slots, at distinct slots in
    # any order (non-adjacent and descending ones included); each operator
    # has int entries or Fraction ones
    n = draw(st.integers(1, 5))
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(1, min(2, n)))
        positions = tuple(draw(st.permutations(range(n)))[:k])
        entries = draw(st.sampled_from(
            [small_entries, st.fractions(-3, 3, max_denominator=4)]))
        op = SparseMatrix(1 << k)
        for i in range(1 << k):
            for j in range(1 << k):
                op.add(i, j, draw(entries))
        terms.append((op, positions))
    return n, terms


@settings(max_examples=150, deadline=None)
@given(_local_terms(), st.data())
def test_embed_at_positions_sums_the_dense_embeddings(n_terms, data):
    n, terms = n_terms
    got = embed_at_positions(terms, n)
    want = Matrix.zeros(1 << n, 1 << n)
    for op, positions in terms:
        want = want + embed_dense(dense(op), positions, n)
    assert dense(got) == want
    assert all(v for _, _, v in got.items())    # zero sums are dropped
    assert got.den == math.lcm(*(op.den for op, _ in terms))
    # a wrong size, a repeated slot or a slot off the chain
    slot = data.draw(st.integers(0, n - 1))
    bad = data.draw(st.sampled_from([
        (SparseMatrix.identity(4), (slot,)), (SparseMatrix.identity(2), ()),
        (SparseMatrix.identity(4), (slot, slot)),
        (SparseMatrix.identity(2), (n,)), (SparseMatrix.identity(2), (-1,))]))
    at = data.draw(st.integers(0, len(terms)))
    with pytest.raises(ValueError):
        embed_at_positions(terms[:at] + [bad] + terms[at:], n)


def test_partial_trace_first():
    assert partial_trace_first(I4) == 2 * I2
    assert partial_trace_first(permutation_op()) == I2
    A = Matrix([[1, 2], [3, 4]])
    B = Matrix([[5, 6], [7, 8]])
    assert partial_trace_first(kron(A, B)) == (A[0, 0] + A[1, 1]) * B


def test_partial_transpose():
    assert partial_transpose(I4, 2) == I4
    A = Matrix([[1, 2], [3, 4]])
    B = Matrix([[5, 6], [7, 8]])
    assert partial_transpose(kron(A, B), 2) == kron(A, B.transpose())
    assert partial_transpose(kron(A, B), 1) == kron(A.transpose(), B)
    R = ex.r_matrix(ex.asep(2, 1, 1, 1, 1), F(3))
    assert partial_transpose(partial_transpose(R, 1), 2) == R.transpose()


def test_exact_nullspace_small():
    M = SparseMatrix.from_dense(Matrix([[-1, 1], [1, -1]]))
    ker = exact_nullspace(M)
    assert len(ker) == 1
    v = ker[0]
    assert v[0] == v[1] != 0
    assert exact_nullspace(SparseMatrix.identity(2)) == []


def test_exact_nullspace_tasep_l2():
    M = ex.build_markov(ex.tasep(1, 1), 2)
    ker = exact_nullspace(M)
    assert len(ker) == 1
    v = ker[0]
    scale = v[0]
    assert [x / scale for x in v] == [F(1), F(1), F(2), F(1)]
    assert all(x == 0 for x in M.apply(v))


def test_exact_nullspace_residual_is_exact():
    mdl = ex.rd(3, 1, 1, F(1, 2), F(1, 3))
    M = ex.build_markov(mdl, 5)
    (v,) = exact_nullspace(M)
    assert all(x == 0 for x in M.apply(v))


def block_diagonal(*blocks):
    out = SparseMatrix(sum(b.dim for b in blocks))
    shift = 0
    for b in blocks:
        for r, c, v in b.items():
            out.add(shift + r, shift + c, v)
        shift += b.dim
    return out


def residual_is_zero(M, vec):
    return all(x == 0 for x in M.apply(vec))


def test_exact_nullspace_unlucky_first_prime():
    # an entry equal to the first prime vanishes modulo it, so the rank
    # drops there: the kernel must still come out exact over Q
    p = next(_primes())
    sparse = SparseMatrix.from_dense
    assert exact_nullspace(sparse(Matrix([[p, 0], [0, 1]]))) == []
    assert exact_nullspace(sparse(Matrix([[F(1, p), 0], [0, 1]]))) == []
    M = sparse(Matrix([[p, -1], [0, 0]]))
    (v,) = exact_nullspace(M)
    assert v[1] == p * v[0] != 0
    # modulo p the kernel is 2-dimensional, with free columns {0, 2}
    M = sparse(Matrix([[p, 0, 0], [0, 1, 1], [0, 0, 0]]))
    assert exact_nullspace(M) == [[0, -1, 1]]
    M = SparseMatrix.from_dense(Matrix([[p, 1, 0], [1, 0, 0], [0, 2, 0]]))
    (v,) = exact_nullspace(M)
    assert residual_is_zero(M, v) and v == [0, 0, 1]


def test_exact_nullspace_two_dimensional_kernel():
    a = ex.build_markov(ex.asep(2, F(1, 2), F(2, 3), F(1, 3), F(1, 5)), 2)
    b = ex.build_markov(ex.rd(3, F(2, 3), F(1, 2), F(1, 5), F(1, 3)), 2)
    M = block_diagonal(a, b)
    ker = exact_nullspace(M)
    assert len(ker) == 2
    for v in ker:
        assert residual_is_zero(M, v)
    # each vector is the steady state of one block, zero on the other
    (va,), (vb,) = exact_nullspace(a), exact_nullspace(b)
    assert ker[0] == va + [0] * 4
    assert ker[1] == [0] * 4 + vb
    assert exact_nullspace(SparseMatrix(3)) == [
        [1, 0, 0], [0, 1, 0], [0, 0, 1]]


_R = (F(1, 2), F(2, 3), F(1, 3), F(1, 5))


@pytest.mark.parametrize("model, L", [
    (ex.rd(3, *_R), 6), (ex.rd(3, *_R), 7), (ex.asep(3, *_R), 7)],
    ids=["rd-L6", "rd-L7", "asep-L7"])
def test_exact_nullspace_eliminates_once(monkeypatch, model, L):
    # each of these kernels takes five or six p-adic lifts, and every lift
    # reuses the one elimination
    calls = []
    eliminate = tensor._eliminate_mod

    def counted(*args):
        calls.append(args[2])
        return eliminate(*args)

    monkeypatch.setattr(tensor, "_eliminate_mod", counted)
    M = ex.build_markov(model, L)
    (v,) = exact_nullspace(M)
    assert calls == [next(_primes())]
    assert residual_is_zero(M, v)


def reference_eliminate_mod(rows, dim, p) -> list:
    """Oracle: the elimination that scans every active row for each pivot,
    on dicts only, with the pivot rule of tensor._eliminate_mod."""
    work = [{c: v % p for c, v in row.items() if v % p} for row in rows]
    active = {r for r in range(dim) if work[r]}
    col_count = [0] * dim  # entries per column over the active rows
    for r in active:
        for c in work[r]:
            col_count[c] += 1
    factors = []
    while active:
        ri, cj = reference_markowitz(work, active, col_count)
        prow, work[ri] = work[ri], None
        inv = pow(prow[cj], -1, p)
        active.discard(ri)
        for c in prow:
            col_count[c] -= 1
        rest = [(c, v * inv % p) for c, v in prow.items() if c != cj]
        eliminated = []
        for rk in list(active):
            tgt = work[rk]
            f = tgt.pop(cj, None)
            if f is None:
                continue
            eliminated.append((rk, f))
            col_count[cj] -= 1
            for c, v in rest:
                old = tgt.get(c)
                nv = ((old or 0) - f * v) % p
                if nv:
                    tgt[c] = nv
                    if old is None:
                        col_count[c] += 1
                else:
                    del tgt[c]
                    col_count[c] -= 1
            if not tgt:
                active.discard(rk)
        factors.append((ri, cj, inv, eliminated, rest))
    return factors


def reference_markowitz(work, active, col_count):
    """Pivot of the shortest active row at its sparsest column."""
    shortest = min(len(work[r]) for r in active)
    best = None
    for r in active:
        row = work[r]
        if len(row) != shortest:
            continue
        c = min(row, key=lambda c: (col_count[c], c))
        key = (col_count[c], r)
        if best is None or key < best[0]:
            best = (key, r, c)
    return best[1], best[2]


def assert_reference_pivots(rows, dim):
    """The same (row, col, inverse) per pivot as the oracle, and the same
    eliminated and rest pairs as sets."""
    p = next(_primes())
    got = tensor._eliminate_mod(rows, dim, p)
    want = reference_eliminate_mod(rows, dim, p)
    assert [(r, c, inv, set(e), set(u)) for r, c, inv, e, u in got] == \
        [(r, c, inv, set(e), set(u)) for r, c, inv, e, u in want]


@pytest.mark.parametrize("model", [
    ex.asep(3, *_R), ex.ssep(*_R), ex.tasep(*_R[:2]), ex.rd(3, *_R)],
    ids=["asep", "ssep", "tasep", "rd"])
def test_pivots_match_the_reference_on_generators(model):
    for L in range(2, 9):
        M = ex.build_markov(model, L)
        assert_reference_pivots(_int_rows(M), M.dim)


def _int_rows(M):
    """The integer rows of M, as exact_nullspace reads them."""
    return [M._rows.get(r, {}) for r in range(M.dim)]


def test_pivots_match_the_reference_on_an_eigen_kernel():
    # the matrix whose raw kernel eigenvector_from_nullspace returns
    spec = tr.TransferSpec(ex.asep(3, *_R), 4, (2, 3, 5, 7))
    lam = tr.lambda_eigenvalue(spec.model, F(2), spec.thetas)
    t = tr.build_transfer(spec, F(2))
    M = t - SparseMatrix.identity(t.dim).scale(lam)
    assert_reference_pivots(_int_rows(M), M.dim)


def test_dense_tail_runs_on_the_rd_generator(monkeypatch):
    blocks = []
    dense = tensor._eliminate_dense

    def counted(block, cols, p):
        blocks.append(len(block))
        return dense(block, cols, p)

    monkeypatch.setattr(tensor, "_eliminate_dense", counted)
    M = ex.build_markov(ex.rd(3, *_R), 7)
    (v,) = exact_nullspace(M)
    assert len(blocks) == 1 and blocks[0] > 32   # of 128 rows
    assert residual_is_zero(M, v)


def test_dense_block_with_a_zero_mod_p_takes_the_full_rule(monkeypatch):
    # every entry is nonzero over Q, one is p: the block is dense from the
    # start, with a zero, so the first pivot needs the rebuilt counts
    p = next(_primes())
    rows = [{c: 1 + (3 * r + 5 * c) % 7 for c in range(6)} for r in range(6)]
    rows[0][0] = p
    calls = []
    markowitz = tensor._markowitz

    def counted(*args):
        calls.append(args[1])
        return markowitz(*args)

    monkeypatch.setattr(tensor, "_markowitz", counted)
    assert_reference_pivots(rows, 6)
    assert calls and all(type(shortest) is dict for shortest in calls)


_pivot_entries = st.sampled_from([0] * 6 + [1, -1, 2, 3, -5, 7, 10 ** 12])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pivots_match_the_reference_on_random_matrices(data):
    # sparse to dense square matrices, some entries the first prime (zero
    # modulo it); most of them reach the dense tail before they end
    n = data.draw(st.integers(min_value=2, max_value=14))
    p = next(_primes())
    entries = st.one_of(_pivot_entries, st.just(p))
    rows = [{c: v for c, v in enumerate(data.draw(st.lists(
        entries, min_size=n, max_size=n))) if v} for _ in range(n)]
    assert_reference_pivots(rows, n)


def rref(rows) -> list:
    """Independent oracle: the nonzero rows of the reduced row echelon form
    of Fraction rows, by dense Gauss-Jordan."""
    a = [list(r) for r in rows]
    n = len(a[0]) if a else 0
    top = 0
    for col in range(n):
        piv = next((r for r in range(top, len(a)) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[top], a[piv] = a[piv], a[top]
        a[top] = [x / a[top][col] for x in a[top]]
        for r in range(len(a)):
            if r != top and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[top])]
        top += 1
    return a[:top]


def dense_kernel(rows, n) -> list:
    """A basis of the kernel read off the RREF: one vector per free column,
    1 there, 0 at the other free columns."""
    red = rref(rows)
    lead = [next(c for c, x in enumerate(r) if x != 0) for r in red]
    out = []
    for f in (c for c in range(n) if c not in lead):
        v = [F(0)] * n
        v[f] = F(1)
        for r, c in zip(red, lead):
            v[c] = -r[f]
        out.append(v)
    return out


_entries = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_exact_nullspace_matches_the_dense_kernel(data):
    # rows drawn from the span of n - k rows plant a kernel of dimension
    # >= k; a row times the first prime vanishes modulo it, so that prime
    # can see a larger kernel than Q does
    n = data.draw(st.integers(min_value=1, max_value=5))
    k = data.draw(st.integers(min_value=0, max_value=min(3, n)))
    span = data.draw(st.lists(st.lists(_entries, min_size=n, max_size=n),
                              min_size=n - k, max_size=n - k))
    p = next(_primes())
    rows = []
    for _ in range(n):
        coef = data.draw(st.lists(_entries, min_size=n - k,
                                  max_size=n - k))
        row = [sum((c * b[j] for c, b in zip(coef, span)), F(0))
               for j in range(n)]
        if data.draw(st.booleans()):
            row = [p * x for x in row]
        rows.append(row)
    ker = exact_nullspace(SparseMatrix.from_dense(Matrix(rows)))
    expected = dense_kernel(rows, n)
    assert len(ker) == len(expected) >= k
    assert rref(ker) == rref(expected)


def test_reducible_chain_raises_kernel_error():
    a = ex.build_markov(ex.tasep(F(1, 2), F(2, 3)), 2)
    with pytest.raises(KernelError):
        steady_state_exact(block_diagonal(a, a))


def dense_steady_state(M):
    """Independent oracle: Gauss-Jordan on M with its last equation
    replaced by sum(pi) = 1 (the rows of a generator sum to zero)."""
    n = M.dim
    a = [[M.get(r, c) for c in range(n)] + [F(0)] for r in range(n - 1)]
    a.append([F(1)] * n + [F(1)])
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n] for row in a]


rates = st.fractions(min_value=F(1, 7), max_value=3, max_denominator=7)
losses = st.fractions(min_value=0, max_value=3, max_denominator=7)


@st.composite
def models(draw):
    name = draw(st.sampled_from(["asep", "ssep", "tasep", "rd"]))
    alpha, beta = draw(rates), draw(rates)
    if name == "tasep":
        return ex.tasep(alpha, beta)
    gamma, delta = draw(losses), draw(losses)
    if name == "ssep":
        return ex.ssep(alpha, beta, gamma, delta)
    if name == "asep":
        q = draw(rates.filter(lambda q: q != 1))
        return ex.asep(q, alpha, beta, gamma, delta)
    kappa = draw(st.fractions(min_value=-3, max_value=3, max_denominator=5)
                 .filter(lambda k: k not in (0, 1, -1)))
    return ex.rd(kappa, alpha, beta, gamma, delta)


@settings(max_examples=40, deadline=None)
@given(models(), st.integers(min_value=1, max_value=4))
def test_steady_state_matches_dense_solve(model, L):
    M = ex.build_markov(model, L)
    assert steady_state_exact(M).probabilities() == dense_steady_state(M)


def test_derivative_at():
    # f returns the pair (f(x0), f'(x0)) at the Dual point x0 + eps
    sq = derivative_at(lambda x: as_cached([[x * x]], x), F(3))
    assert sq.a[0][0] == 6
    ssep = ex.ssep(1, 1, F(1, 2), F(1, 3))
    w, B, _ = ex.local_operators(ssep)
    rp = derivative_at(lambda x: ex.r_matrix(ssep, x), F(0))
    assert permutation_op() * rp == w
    kp = derivative_at(lambda x: ex.k_matrix(ssep, "K", x), F(0))
    assert kp * F(1, 2) == B


def test_derivative_at_pole():
    ssep = ex.ssep(1, 1, 1, 1)
    with pytest.raises(PoleError):
        derivative_at(lambda x: ex.r_matrix(ssep, x), F(-1))


def test_inverse():
    A = Matrix([[1, 2], [3, 4]])
    assert inverse(A) * A == I2
    with pytest.raises(PoleError):
        inverse(Matrix([[1, 2], [2, 4]]))


# rationals with zeros, negatives and denominators up to 2^70
_rationals = st.one_of(
    st.just(F(0)), st.integers(-9, 9).map(F),
    st.builds(F, st.integers(-(1 << 70), 1 << 70), st.integers(1, 1 << 70)))


@st.composite
def _matrices(draw, rows=None, cols=None):
    rows = rows or draw(st.integers(1, 5))
    cols = cols or draw(st.integers(1, 5))
    return [draw(st.lists(_rationals, min_size=cols, max_size=cols))
            for _ in range(rows)]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_matrix_product_is_the_entry_product(data):
    # the product on integer forms, entry by entry as Fractions
    a = data.draw(_matrices())
    b = data.draw(_matrices(rows=len(a[0])))
    got = Matrix(a) * Matrix(b)
    want = fraction_product(a, b)
    assert got.a == want
    assert all(type(e) is F for row in got.a for e in row)


def _gauss_jordan(rows, ncols):
    """Gauss-Jordan elimination over Fractions on the first ncols columns:
    (the reduced rows, the pivot count).  The oracle of rank and inverse."""
    a = [list(r) for r in rows]
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        p = a[rank][col]
        a[rank] = [e / p for e in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][col]:
                f = a[r][col]
                a[r] = [e - f * g for e, g in zip(a[r], a[rank])]
        rank += 1
    return a, rank


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_rank_and_inverse_match_gauss_jordan(data):
    a = data.draw(_matrices())
    if data.draw(st.booleans()) and len(a) > 1:
        # plant a deficiency: one row a combination of two others
        i, j, k = (data.draw(st.integers(0, len(a) - 1)) for _ in range(3))
        s, t = data.draw(_rationals), data.draw(_rationals)
        a[i] = [s * x + t * y for x, y in zip(a[j], a[k])]
    n_rank = _gauss_jordan(a, len(a[0]))[1]
    assert rank(Matrix(a)) == n_rank
    if len(a) != len(a[0]):
        return
    n = len(a)
    reduced, full = _gauss_jordan(
        [row + [F(int(i == j)) for j in range(n)] for i, row in enumerate(a)],
        n)
    if full < n:
        with pytest.raises(PoleError):
            inverse(Matrix(a))
        return
    assert inverse(Matrix(a)).a == [row[n:] for row in reduced]


def test_rank_and_inverse_on_planted_examples():
    assert rank(Matrix([[0, 0], [0, 0]])) == 0
    assert rank(Matrix([[F(1, 3), F(2, 5), 1], [F(2, 3), F(4, 5), 2],
                        [0, 0, F(7, 2)]])) == 2
    # a zero first column and a pivot that must be swapped in
    A = Matrix([[0, F(1, 2), 3], [0, 0, F(-4, 7)], [F(5, 9), 1, 0]])
    assert rank(A) == 3
    assert inverse(A) * A == Matrix.identity(3)
    with pytest.raises(PoleError):
        inverse(Matrix([[F(1, 3), F(2, 5)], [F(-2, 3), F(-4, 5)]]))


@st.composite
def _made(draw, a):
    """A Matrix of the rows a of Fractions, made in one of the two ways a
    Matrix is: from entries, its table over the lcm of their denominators,
    or by products, over a denominator that is not the lcm."""
    cols = len(a[0])
    if draw(st.booleans()):
        return Matrix(a)
    s = draw(_rationals.filter(bool))
    scaled, unscaled = ([[v if i == j else F(0) for j in range(cols)]
                         for i in range(cols)] for v in (s, 1 / s))
    return Matrix(a) * Matrix(scaled) * Matrix(unscaled)


@st.composite
def _operands(draw, rows, cols):
    """(M, its rows of Fractions), M made as _made makes it."""
    a = draw(_matrices(rows, cols))
    return draw(_made(a)), a


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_integer_tables_match_the_fraction_entries(data):
    # every operation on the integer tables gives the entries of the
    # entry-by-entry Fraction oracle, on operands made in every way
    dims = data.draw(st.lists(st.integers(1, 4), min_size=4, max_size=5))
    ops = [data.draw(_operands(r, c)) for r, c in zip(dims, dims[1:])]
    (A, a), (B, b) = ops[:2]
    assert (A * B).a == fraction_product(a, b)
    got, want = ops[0]
    for M, m in ops[1:]:   # a chain of 3 or 4 products
        got, want = got * M, fraction_product(want, m)
    assert got.a == want
    assert kron(A, B).a == fraction_kron(a, b)
    assert kron(B, A).a == fraction_kron(b, a)
    assert all(type(e) is F for row in got.a for e in row)
    P, p = data.draw(_operands(4, 4))
    for leg in (1, 2):
        assert partial_transpose(P, leg).a == \
            fraction_partial_transpose(p, leg)
    assert P.transpose().a == [list(col) for col in zip(*p)]
    assert rank(A) == _gauss_jordan(a, len(a[0]))[1]
    reduced, full = _gauss_jordan(
        [row + [F(int(i == j)) for j in range(4)] for i, row in enumerate(p)],
        4)
    if full < 4:
        with pytest.raises(PoleError):
            inverse(P)
    else:
        assert inverse(P).a == [row[4:] for row in reduced]
    # compare: the first differing entry in row-major order, between
    # operands that may be tables over different denominators
    bad = [list(row) for row in a]
    for r, c, v in data.draw(st.lists(st.tuples(
            st.integers(0, len(a) - 1), st.integers(0, len(a[0]) - 1),
            _rationals), max_size=2)):
        bad[r][c] = v
    want = next(({"row": r, "col": c, "lhs": format_rational(x),
                  "rhs": format_rational(y)}
                 for r, (ra, rb) in enumerate(zip(a, bad))
                 for c, (x, y) in enumerate(zip(ra, rb)) if x != y), None)
    rep = vf.compare(ex.ssep(1, 1, 1, 1), "c", (), A, data.draw(_made(bad)))
    assert (rep.status, rep.witness) == \
        ((vf.PASS, None) if want is None else (vf.FAIL, want))


@st.composite
def _sparse_made(draw, a):
    """A SparseMatrix with the square entries a, held over a denominator
    that is often not their lcm: from a Matrix made as _made makes it
    (product chains included), from a table over a negative denominator,
    through a negative rational scale and back, or as a product with
    scaled identities."""
    how = draw(st.sampled_from(["dense", "negative", "scaled", "chain"]))
    if how == "dense":
        return SparseMatrix.from_dense(draw(_made(a)))
    N, d = Matrix(a)._table
    if how == "negative":
        return SparseMatrix.from_dense(
            Matrix._over([[-v for v in row] for row in N], -d))
    M = SparseMatrix.from_dense(Matrix(a))
    s = draw(_rationals.filter(bool))
    if how == "scaled":
        return M.scale(-s).scale(-1 / s)
    one = SparseMatrix.identity(len(a))
    return M * one.scale(s) * (one * (1 / s))


def _got(M: SparseMatrix) -> list:
    """M's entries, read one by one through get."""
    return [[M.get(r, c) for c in range(M.dim)] for r in range(M.dim)]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_sparse_tables_match_the_fraction_entries(data):
    # every operation on the int tables of SparseMatrix operands held over
    # different, often non-lcm, denominators gives the entries of the
    # entry-by-entry Fraction oracle
    n = data.draw(st.integers(1, 4))
    a, b = (data.draw(_matrices(n, n)) for _ in range(2))
    A, B = (data.draw(_sparse_made(x)) for x in (a, b))
    assert A.den > 0 and _got(A) == a
    assert list(A.items()) == [(r, c, x) for r, row in enumerate(a)
                               for c, x in enumerate(row) if x]
    assert _got(A * B) == fraction_product(a, b)
    assert _got(A + B) == [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]
    assert _got(A - B) == [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)]
    s = data.draw(_rationals)
    assert _got(A.scale(s)) == _got(A * s) == [[s * x for x in r] for r in a]
    v = data.draw(st.lists(_rationals, min_size=n, max_size=n))
    assert A.apply(v) == [sum((x * y for x, y in zip(row, v)), F(0))
                          for row in a]
    assert A.apply_left(v) == [sum((a[r][c] * v[r] for r in range(n)), F(0))
                               for c in range(n)]
    # == and compare: the first differing entry in row-major order, against
    # a copy with up to two entries changed, made another way
    bad = [list(row) for row in a]
    for r, c, x in data.draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1), _rationals),
            max_size=2)):
        bad[r][c] = x
    want = next(({"row": r, "col": c, "lhs": format_rational(x),
                  "rhs": format_rational(y)}
                 for r, (ra, rb) in enumerate(zip(a, bad))
                 for c, (x, y) in enumerate(zip(ra, rb)) if x != y), None)
    other = data.draw(_sparse_made(bad))
    assert (A == other) == (want is None)
    rep = vf.compare(ex.ssep(1, 1, 1, 1), "c", (), A, other)
    assert (rep.status, rep.witness) == \
        ((vf.PASS, None) if want is None else (vf.FAIL, want))
    # the embedding sums terms over different denominators
    e, f = (data.draw(_matrices(2, 2)) for _ in range(2))
    terms = [(data.draw(_sparse_made(e)), (0,)),
             (data.draw(_sparse_made(f)), (2,))]
    if n == 4:
        terms.append((A, (2, 1)))
    want = Matrix.zeros(8, 8)
    for x, (_, positions) in zip((e, f, a), terms):
        want = want + embed_dense(Matrix(x), positions, 3)
    assert dense(embed_at_positions(terms, 3)) == want
    # the kernel of a table over a non-lcm denominator: b with one row
    # planted as a combination of two others
    c = [list(row) for row in b]
    if n > 1:
        i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        c[i] = [x + 2 * y for x, y in zip(c[j], c[k])]
    ker = exact_nullspace(data.draw(_sparse_made(c)))
    assert rref(ker) == rref(dense_kernel(c, n))


def test_matrix_rejects_a_dual_entry():
    # a Matrix is its integer table: an entry with no denominator, a Dual
    # even with derivative 0, is refused, and so is a Dual scale
    for e in (ex.Dual(1, 1), ex.Dual(F(1, 2)), 0.5):
        with pytest.raises(TypeError):
            Matrix([[F(1), e]])
    with pytest.raises(TypeError):
        ex.Dual(1, 1) * I2
    with pytest.raises(TypeError):
        I2 * ex.Dual(1, 1)


def test_matrix_equality_forms_no_fraction():
    # == and compare cross-multiply the tables; entries are formed only
    # for a witness
    A = Matrix([[F(1, 2), F(2, 3)], [0, 5]])
    B = A * Matrix([[3, 0], [0, 3]]) * Matrix([[F(1, 3), 0], [0, F(1, 3)]])
    assert A == B and B._table[1] == 18
    for M in (A, B):
        with pytest.raises(AttributeError):
            object.__getattribute__(M, "a")
    assert A != B + I2
    assert list(A._mismatches(B + I2)) == [
        (0, 0, F(1, 2), F(3, 2)), (1, 1, F(5), F(6))]


def test_sparse_matrix_contract():
    m = SparseMatrix(4)
    m.add(0, 1, F(2))
    m.add(0, 1, F(-2))
    assert m.nnz == 0  # no explicit zeros
    m.add(2, 3, F(1, 2))
    m.add(1, 0, F(3))
    assert list(m.items()) == [(1, 0, F(3)), (2, 3, F(1, 2))]
    with pytest.raises(IndexError):
        m.add(4, 0, F(1))
    assert m.get(3, 3) == 0
    for r, c in ((4, 0), (0, 4), (-1, 0)):
        with pytest.raises(IndexError):
            m.get(r, c)


def test_embed_at_positions_matches_kron_order():
    A = Matrix([[1, 2], [3, 4]])
    B = Matrix([[0, 1], [5, 0]])
    AB = SparseMatrix.from_dense(kron(A, B))
    assert dense(embed_at_positions([(AB, (0, 1))], 2)) == kron(A, B)
    assert dense(embed_at_positions([(AB, (1, 0))], 2)) == kron(B, A)


def test_matrix_shape_mismatch_raises():
    with pytest.raises(ValueError):
        I2 + I4
    with pytest.raises(ValueError):
        I4 - I2
    with pytest.raises(ValueError):
        Matrix([[1, 2]]) + Matrix([[1], [2]])
    with pytest.raises(ValueError):
        Matrix([[1, 2]]).apply([F(1)] * 3)


def test_sparse_shape_mismatch_raises():
    a, b = SparseMatrix.identity(2), SparseMatrix.identity(4)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        b - a
    with pytest.raises(ValueError):
        b.apply([F(1)] * 2)
    with pytest.raises(ValueError):
        a.apply([F(1)] * 3)
    with pytest.raises(ValueError):
        a.apply_left([F(1)] * 3)
    with pytest.raises(ValueError):  # a tall matrix is not zero-padded
        SparseMatrix.from_dense(Matrix([[1, 0], [0, 1], [1, 1]]))


def test_integer_vector_scales_by_the_lcm():
    # zeros, negatives and ints mixed with Fractions; d is lcm(4, 6) = 12,
    # not the product 24
    ints, d = integer_vector([F(1, 4), 0, F(-5, 6), 3, F(0), F(-7, 4)])
    assert (ints, d) == ([3, 0, -10, 36, 0, -21], 12)
    assert all(type(v) is int for v in ints)
    assert integer_vector([]) == ([], 1)
    assert integer_vector([0, -2]) == ([0, -2], 1)


def test_integer_matvec_stays_integral():
    # int operands stay ints through apply/apply_left, and the integer forms
    # give the Fraction products over d e
    M = SparseMatrix.from_dense(Matrix([[F(1, 2), 0, F(2, 3)],
                                        [0, 0, 0],
                                        [F(-3, 4), 1, 0]]))
    v = [F(1, 5), F(-2, 3), 7]
    vi, e = integer_vector(v)
    got = M._left(vi)
    assert all(type(g) is int for g in got)
    assert [F(g, M.den * e) for g in got] == M.apply_left(v)
