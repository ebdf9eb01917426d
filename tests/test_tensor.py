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
from exclusion.tensor import PoleError, SparseMatrix, _primes, \
    embed_at_positions, exact_nullspace, integer_vector, inverse, kron, \
    partial_trace_first, partial_transpose, permutation_op, rank
from reference import embed_dense, embed_local, entries, fraction_kron, \
    fraction_partial_transpose, fraction_product, rows_apply, \
    rows_apply_left, rows_at, sparse_rows

I2 = SparseMatrix.identity(2)
I4 = SparseMatrix.identity(4)


def basis_proj(i):
    return SparseMatrix([[int(r == c == i) for c in range(2)] for r in range(2)])


def test_kron_identities():
    assert kron(I2, I2) == I4
    d = SparseMatrix([[1, 0], [0, 2]])
    assert kron(d, I2) == SparseMatrix([[1, 0, 0, 0], [0, 1, 0, 0],
                                  [0, 0, 2, 0], [0, 0, 0, 2]])
    out = kron(basis_proj(0), basis_proj(1))
    expect = SparseMatrix([[int(r == c == 1) for c in range(4)] for r in range(4)])
    assert out == expect


small_entries = st.integers(min_value=-3, max_value=3)


def mat_strategy(n):
    return st.lists(st.lists(small_entries, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(SparseMatrix)


@settings(max_examples=25)
@given(mat_strategy(2), mat_strategy(2), mat_strategy(2))
def test_kron_associative(A, B, C):
    assert kron(kron(A, B), C) == kron(A, kron(B, C))


def test_permutation_op():
    # P (u (x) v) = v (x) u, with the vectors as rows: (u (x) v) P^T
    P = permutation_op()
    e0, e1 = SparseMatrix([[1, 0]]), SparseMatrix([[0, 1]])
    assert kron(e0, e1) * P.transpose() == kron(e1, e0)
    assert P * P == I4
    w, _, _ = ex.local_operators(ex.ssep(1, 1, 1, 1))
    assert P - I4 == w


def test_embed_local():
    assert embed_local(I2, 1, 3) == SparseMatrix.identity(8)
    w, B, _ = ex.local_operators(ex.ssep(1, 1, F(1, 2), F(1, 3)))
    assert embed_local(w, 1, 2) == w
    assert embed_local(B, 1, 2) == kron(B, I2)
    with pytest.raises(ValueError):
        embed_local(I2, 4, 3)
    with pytest.raises(ValueError):
        embed_local(w, 3, 3)


def test_embed_sum_adds_the_embeddings():
    w, B, Bbar = ex.local_operators(ex.asep(2, 1, 1, F(1, 2), F(1, 3)))
    got = embed_at_positions([(w, (1, 2)), (B, (0,)), (Bbar, (3,)),
                              (w, (1, 2))], 4)
    want = embed_local(w, 2, 4) + embed_local(B, 1, 4) \
        + embed_local(Bbar, 4, 4) + embed_local(w, 2, 4)
    assert got == want and got.den == 6     # w, B, Bbar over d = 6
    assert all(type(v) is int for row in got._rows.values()
               for v in row.values())
    for op, positions in ((w, (3, 4)), (B, (4,)), (B, (-1,))):
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
        op = [[draw(entries) for _ in range(1 << k)] for _ in range(1 << k)]
        terms.append((SparseMatrix(op), positions))
    return n, terms


@settings(max_examples=150, deadline=None)
@given(_local_terms(), st.data())
def test_embed_at_positions_sums_the_dense_embeddings(n_terms, data):
    n, terms = n_terms
    got = embed_at_positions(terms, n)
    want = SparseMatrix.zeros(1 << n, 1 << n)
    for op, positions in terms:
        want = want + embed_dense(op, positions, n)
    assert got == want
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
    A = SparseMatrix([[1, 2], [3, 4]])
    B = SparseMatrix([[5, 6], [7, 8]])
    assert partial_trace_first(kron(A, B)) == (A.get(0, 0) + A.get(1, 1)) * B


def test_partial_transpose():
    assert partial_transpose(I4, 2) == I4
    A = SparseMatrix([[1, 2], [3, 4]])
    B = SparseMatrix([[5, 6], [7, 8]])
    assert partial_transpose(kron(A, B), 2) == kron(A, B.transpose())
    assert partial_transpose(kron(A, B), 1) == kron(A.transpose(), B)
    R = ex.r_matrix(ex.asep(2, 1, 1, 1, 1), F(3))
    assert partial_transpose(partial_transpose(R, 1), 2) == R.transpose()


def test_exact_nullspace_small():
    M = SparseMatrix([[-1, 1], [1, -1]])
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
    assert residual_is_zero(M, v)


def test_exact_nullspace_residual_is_exact():
    mdl = ex.rd(3, 1, 1, F(1, 2), F(1, 3))
    M = ex.build_markov(mdl, 5)
    (v,) = exact_nullspace(M)
    assert residual_is_zero(M, v)


def block_diagonal(*blocks):
    n = sum(b.dim for b in blocks)
    rows = [[0] * n for _ in range(n)]
    shift = 0
    for b in blocks:
        for r, c, v in b.items():
            rows[shift + r][shift + c] = v
        shift += b.dim
    return SparseMatrix(rows)


def residual_is_zero(M, vec):
    """M vec = 0, by the Fraction matvec of the oracle."""
    return all(x == 0 for x in rows_apply(sparse_rows(M), vec))


def test_exact_nullspace_unlucky_first_prime():
    # an entry equal to the first prime vanishes modulo it, so the rank
    # drops there: the kernel must still come out exact over Q
    p = next(_primes())
    assert exact_nullspace(SparseMatrix([[p, 0], [0, 1]])) == []
    assert exact_nullspace(SparseMatrix([[F(1, p), 0], [0, 1]])) == []
    M = SparseMatrix([[p, -1], [0, 0]])
    (v,) = exact_nullspace(M)
    assert v[1] == p * v[0] != 0
    # modulo p the kernel is 2-dimensional, with free columns {0, 2}
    M = SparseMatrix([[p, 0, 0], [0, 1, 1], [0, 0, 0]])
    assert exact_nullspace(M) == [[0, -1, 1]]
    M = SparseMatrix([[p, 1, 0], [1, 0, 0], [0, 2, 0]])
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
    assert exact_nullspace(SparseMatrix.zeros(3, 3)) == [
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
    ker = exact_nullspace(SparseMatrix(rows))
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
    # a derivative is the second matrix of the pair (f(x0), f'(x0))
    sq = rows_at(lambda x: [[x * x]], F(3), derivative=True)[1]
    assert sq.get(0, 0) == 6
    ssep = ex.ssep(1, 1, F(1, 2), F(1, 3))
    w, B, _ = ex.local_operators(ssep)
    _, rp = ex.r_matrix(ssep, F(0), derivative=True)
    assert permutation_op() * rp == w
    _, kp = ex.k_matrix(ssep, "K", F(0), derivative=True)
    assert kp * F(1, 2) == B


def test_derivative_at_pole():
    ssep = ex.ssep(1, 1, 1, 1)
    with pytest.raises(PoleError):
        ex.r_matrix(ssep, F(-1), derivative=True)


def test_inverse():
    A = SparseMatrix([[1, 2], [3, 4]])
    assert inverse(A) * A == I2
    with pytest.raises(PoleError):
        inverse(SparseMatrix([[1, 2], [2, 4]]))


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
    got = SparseMatrix(a) * SparseMatrix(b)
    want = fraction_product(a, b)
    assert entries(got) == want
    assert got.shape == (len(a), len(b[0]))


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
    assert rank(SparseMatrix(a)) == n_rank
    if len(a) != len(a[0]):
        return
    n = len(a)
    reduced, full = _gauss_jordan(
        [row + [F(int(i == j)) for j in range(n)] for i, row in enumerate(a)],
        n)
    if full < n:
        with pytest.raises(PoleError):
            inverse(SparseMatrix(a))
        return
    assert entries(inverse(SparseMatrix(a))) == [row[n:] for row in reduced]


def test_rank_and_inverse_on_planted_examples():
    assert rank(SparseMatrix([[0, 0], [0, 0]])) == 0
    assert rank(SparseMatrix([[F(1, 3), F(2, 5), 1], [F(2, 3), F(4, 5), 2],
                              [0, 0, F(7, 2)]])) == 2
    # a zero first column and a pivot that must be swapped in
    A = SparseMatrix([[0, F(1, 2), 3], [0, 0, F(-4, 7)], [F(5, 9), 1, 0]])
    assert rank(A) == 3
    assert inverse(A) * A == SparseMatrix.identity(3)
    with pytest.raises(PoleError):
        inverse(SparseMatrix([[F(1, 3), F(2, 5)], [F(-2, 3), F(-4, 5)]]))


@st.composite
def _made(draw, a):
    """A SparseMatrix with the entries a (rows of Fractions), made in one of
    the ways a matrix is made, most of them over a denominator that is not
    the lcm of the entries' denominators: from the entries, as a product
    chain with a scaled diagonal and a scaled identity, from its int rows
    over a negative denominator, or through a negative rational scale and
    back."""
    how = draw(st.sampled_from(["entries", "chain", "negative", "scaled"]))
    M = SparseMatrix(a)
    if how == "entries":
        return M
    if how == "negative":
        return SparseMatrix._over(M.shape, {
            r: {c: -v for c, v in row.items()} for r, row in M._rows.items()},
            -M.den)
    s = draw(_rationals.filter(bool))
    if how == "scaled":
        return M.scale(-s).scale(-1 / s)
    cols = len(a[0])
    diagonal = [[s if i == j else F(0) for j in range(cols)]
                for i in range(cols)]
    return M * SparseMatrix(diagonal) * (SparseMatrix.identity(cols) * (1 / s))


@st.composite
def _operands(draw, rows, cols):
    """(M, its rows of Fractions), M made as _made makes it."""
    a = draw(_matrices(rows, cols))
    return draw(_made(a)), a


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_integer_tables_match_the_fraction_entries(data):
    # products, kron, the transposes, rank and inverse on the int rows of
    # operands made in every way, held over different, often non-lcm,
    # denominators, give the entries of the entry-by-entry Fraction oracle
    dims = data.draw(st.lists(st.integers(1, 4), min_size=4, max_size=5))
    ops = [data.draw(_operands(r, c)) for r, c in zip(dims, dims[1:])]
    (A, a), (B, b) = ops[:2]
    k = A.shape[1]
    assert entries(A * B) == fraction_product(a, b)
    got, want = ops[0]
    for M, m in ops[1:]:   # a chain of 3 or 4 products
        got, want = got * M, fraction_product(want, m)
    assert entries(got) == want
    assert entries(kron(A, B)) == fraction_kron(a, b)
    assert entries(kron(B, A)) == fraction_kron(b, a)
    P, p = data.draw(_operands(4, 4))
    for leg in (1, 2):
        assert entries(partial_transpose(P, leg)) == \
            fraction_partial_transpose(p, leg)
    assert entries(P.transpose()) == [list(col) for col in zip(*p)]
    assert entries(A.transpose()) == [list(col) for col in zip(*a)]
    assert rank(A) == _gauss_jordan(a, k)[1]
    reduced, full = _gauss_jordan(
        [row + [F(int(i == j)) for j in range(4)] for i, row in enumerate(p)],
        4)
    if full < 4:
        with pytest.raises(PoleError):
            inverse(P)
    else:
        assert entries(inverse(P)) == [row[4:] for row in reduced]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_sparse_tables_match_the_fraction_entries(data):
    # sums, scalings, matvecs, ==, compare, the embedding and the kernel on
    # the int rows of operands made in every way, held over different,
    # often non-lcm, denominators, give the entries of the entry-by-entry
    # Fraction oracle
    n, k = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    A, a = data.draw(_operands(n, k))
    assert A.den > 0 and A.shape == (n, k) and entries(A) == a
    assert list(A.items()) == [(r, c, x) for r, row in enumerate(a)
                               for c, x in enumerate(row) if x]
    C, c = data.draw(_operands(n, k))
    assert entries(A + C) == [[x + y for x, y in zip(r, s)]
                              for r, s in zip(a, c)]
    assert entries(A - C) == [[x - y for x, y in zip(r, s)]
                              for r, s in zip(a, c)]
    s = data.draw(_rationals)
    assert entries(A.scale(s)) == entries(A * s) == entries(s * A) == \
        [[s * x for x in r] for r in a]
    # matvecs are products with a vector's 1 x n row: v A^T and u A
    V, v = data.draw(_operands(1, k))
    assert entries(V * A.transpose()) == \
        [[sum((x * y for x, y in zip(row, v[0])), F(0)) for row in a]]
    U, u = data.draw(_operands(1, n))
    assert entries(U * A) == [[sum((a[r][j] * u[0][r] for r in range(n)),
                                   F(0)) for j in range(k)]]
    # == and compare: the first differing entry in row-major order, against
    # a copy with up to two entries changed, made another way
    bad = [list(row) for row in a]
    for r, j, x in data.draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.integers(0, k - 1), _rationals),
            max_size=2)):
        bad[r][j] = x
    want = next(({"row": r, "col": j, "lhs": format_rational(x),
                  "rhs": format_rational(y)}
                 for r, (ra, rb) in enumerate(zip(a, bad))
                 for j, (x, y) in enumerate(zip(ra, rb)) if x != y), None)
    other = data.draw(_made(bad))
    assert (A == other) == (want is None)
    rep = vf.compare(ex.ssep(1, 1, 1, 1), "c", (), A, other)
    assert (rep.status, rep.witness) == \
        ((vf.PASS, None) if want is None else (vf.FAIL, want))
    # the embedding sums terms over different denominators
    e, f = (data.draw(_matrices(2, 2)) for _ in range(2))
    P, p = data.draw(_operands(4, 4))
    terms = [(data.draw(_made(e)), (0,)), (data.draw(_made(f)), (2,)),
             (P, (2, 1))]
    want = SparseMatrix.zeros(8, 8)
    for x, (_, positions) in zip((e, f, p), terms):
        want = want + embed_dense(SparseMatrix(x), positions, 3)
    assert embed_at_positions(terms, 3) == want
    # the kernel of a table over a non-lcm denominator: a square matrix
    # with one row planted as a combination of two others
    c = data.draw(_matrices(n, n))
    if n > 1:
        i, j, l = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        c[i] = [x + 2 * y for x, y in zip(c[j], c[l])]
    ker = exact_nullspace(data.draw(_made(c)))
    assert rref(ker) == rref(dense_kernel(c, n))


def test_matrix_rejects_an_entry_with_no_denominator():
    # a matrix is int rows over one denominator: an entry with no
    # denominator is refused, and so is a scale that is no int or Fraction
    for e in (0.5, 1j, "1"):
        with pytest.raises(TypeError):
            SparseMatrix([[F(1), e]])
    with pytest.raises(TypeError):
        0.5 * I2
    with pytest.raises(TypeError):
        I2 * 0.5


def test_matrix_equality_forms_no_fraction(monkeypatch):
    # == and compare compare the int rows over the lcm of the two
    # denominators; entries are formed only for a witness
    A = SparseMatrix([[F(1, 2), F(2, 3)], [0, 5]])
    B = A * SparseMatrix([[3, 0], [0, 3]]) * \
        SparseMatrix([[F(1, 3), 0], [0, F(1, 3)]])
    with monkeypatch.context() as patched:
        patched.setattr(tensor, "Fraction", None)
        assert A == B and B.den == 18
    assert A != B + I2
    assert list(A._mismatches(B + I2)) == [
        (0, 0, F(1, 2), F(3, 2)), (1, 1, F(5), F(6))]


def test_sparse_matrix_contract():
    m = SparseMatrix([[0, F(2) - F(2), 0, 0], [3, 0, 0, 0],
                      [0, 0, 0, F(1, 2)], [0, 0, 0, 0]])
    assert m.nnz == 2  # no explicit zeros
    assert list(m.items()) == [(1, 0, F(3)), (2, 3, F(1, 2))]
    assert m.get(3, 3) == 0
    for r, c in ((4, 0), (0, 4), (-1, 0)):
        with pytest.raises(IndexError):
            m.get(r, c)
    wide = SparseMatrix([[1, 0, F(1, 3)]])
    assert wide.shape == (1, 3) and wide.get(0, 2) == F(1, 3)
    with pytest.raises(IndexError):
        wide.get(1, 0)
    # no method changes a matrix: the R and K caches share theirs
    assert not [name for name in vars(SparseMatrix)
                if name in ("add", "__setitem__", "__iadd__", "__imul__")]


def test_embed_at_positions_matches_kron_order():
    A = SparseMatrix([[1, 2], [3, 4]])
    B = SparseMatrix([[0, 1], [5, 0]])
    AB = kron(A, B)
    assert embed_at_positions([(AB, (0, 1))], 2) == kron(A, B)
    assert embed_at_positions([(AB, (1, 0))], 2) == kron(B, A)


def test_matrix_shape_mismatch_raises():
    with pytest.raises(ValueError):
        I2 + I4
    with pytest.raises(ValueError):
        I4 - I2
    with pytest.raises(ValueError):
        SparseMatrix([[1, 2]]) + SparseMatrix([[1], [2]])
    with pytest.raises(ValueError):
        SparseMatrix([[1, 1, 1]]) * SparseMatrix([[1, 2]]).transpose()


def test_sparse_shape_mismatch_raises():
    a, b = SparseMatrix.identity(2), SparseMatrix.identity(4)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        b - a
    # a vector is a row, and a row of the wrong length is no operand
    for row, M in ((2, b.transpose()), (3, a.transpose()), (3, a)):
        with pytest.raises(ValueError):
            SparseMatrix([[1] * row]) * M
    tall = SparseMatrix([[1, 0], [0, 1], [1, 1]])
    for use in (lambda: tall.dim, lambda: exact_nullspace(tall),
                lambda: inverse(tall), lambda: tall * tall):
        with pytest.raises(ValueError):  # a tall matrix is not zero-padded
            use()


def test_integer_vector_scales_by_the_lcm():
    # zeros, negatives and ints mixed with Fractions; d is lcm(4, 6) = 12,
    # not the product 24
    ints, d = integer_vector([F(1, 4), 0, F(-5, 6), 3, F(0), F(-7, 4)])
    assert (ints, d) == ([3, 0, -10, 36, 0, -21], 12)
    assert all(type(v) is int for v in ints)
    assert integer_vector([]) == ([], 1)
    assert integer_vector([0, -2]) == ([0, -2], 1)


def test_integer_matvec_stays_integral():
    # int operands stay ints through _left, and the integer forms give the
    # Fraction products over d e
    M = SparseMatrix([[F(1, 2), 0, F(2, 3)],
                      [0, 0, 0],
                      [F(-3, 4), 1, 0]])
    v = [F(1, 5), F(-2, 3), 7]
    vi, e = integer_vector(v)
    got = M._left(vi)
    assert all(type(g) is int for g in got)
    assert [F(g, M.den * e) for g in got] == \
        rows_apply_left(sparse_rows(M), v)
