"""Exact operators and the tensor-space kernel.

Site ordering follows the probability-vector convention: site 1 is the most
significant bit of the configuration index, so index 1 is (0,...,0,1).
All operations are pure.  Every operator of the package, from a 2 x 2 K(x)
to a 2^L x 2^L transfer matrix, is one SparseMatrix: int rows over one
positive denominator, with a (rows, cols) shape.  Products, ``kron``, sums,
scalings, the transposes, ``partial_trace_first``, ``==``, the embedding
and ``exact_nullspace`` work on the int rows and take no gcd per entry;
``inverse`` and ``rank`` expand them to dense int lists only inside
``_eliminate``.  A vector is a 1 x n row, so a matvec is a product.
Fraction entries are formed, reduced, only when they are read.
``integer_vector`` puts a list of entries over one denominator.  Every
entry is rational: a derivative is a pair of these matrices, as the
compiled forms of ``models`` hand out R and K with their derivatives.
"""

import math
from fractions import Fraction


class PoleError(ZeroDivisionError):
    """A rational expression was evaluated at a zero of its denominator."""


class SparseMatrix:
    """The exact matrix N / den of shape (rows, cols): ``_rows`` maps row ->
    {col: int}, zeros and empty rows never stored, and den is a positive
    int.

    Built from rows of entries, ints or Fractions, N is taken over the lcm
    of their denominators; any other entry, a float included, raises
    TypeError.  Products are int products over da db, sums and differences
    work over lcm(da, db), and a rational scale multiplies the rows by its
    numerator and den by its denominator: no gcd is taken.  ``get``,
    ``items`` and ``==`` read exact rationals; package code reads ``_rows``
    and ``den`` as they are.  A vector is a 1 x n matrix: v M is a product,
    and M v^T is v M^T.  Comparison and iteration use the (row, col) order,
    so exact equality and the first mismatch are well defined.

    A SparseMatrix is never changed once built, and may share row dicts
    with the matrices it was made from.
    """

    __slots__ = ("shape", "_rows", "den")

    def __init__(self, entries):
        try:
            d = math.lcm(*[v.denominator for row in entries for v in row])
        except AttributeError:   # an entry with no denominator
            raise TypeError("matrix entries are ints or Fractions") from None
        cols = len(entries[0]) if entries else 0
        rows = {}
        for r, row in enumerate(entries):
            if len(row) != cols:
                raise ValueError("ragged matrix")
            kept = {}
            for c, v in enumerate(row):
                n = v.numerator * (d // v.denominator)
                if n:
                    kept[c] = n
            if kept:
                rows[r] = kept
        self.shape = len(entries), cols
        self._rows, self.den = rows, d

    @classmethod
    def _over(cls, shape, rows, den):
        """The matrix rows / den of the given shape, rows {r: {c: int}}
        holding no zero and no empty row and den a nonzero int; a negative
        den moves its sign into the rows."""
        out = cls.__new__(cls)
        if den < 0:
            rows, den = _times(rows, -1), -den
        out.shape, out._rows, out.den = shape, rows, den
        return out

    @staticmethod
    def identity(n):
        return SparseMatrix._over((n, n), {i: {i: 1} for i in range(n)}, 1)

    @property
    def dim(self):
        """The side of a square matrix."""
        n, k = self.shape
        if n != k:
            raise ValueError(f"a {n}x{k} matrix has no single dimension")
        return n

    def get(self, r, c):
        n, k = self.shape
        if not (0 <= r < n and 0 <= c < k):
            raise IndexError("coordinate out of range")
        row = self._rows.get(r)
        return Fraction(row.get(c, 0) if row else 0, self.den)

    def items(self):
        """COO entries sorted by (row, col), as Fractions."""
        for r in sorted(self._rows):
            row = self._rows[r]
            for c in sorted(row):
                yield r, c, Fraction(row[c], self.den)

    @property
    def nnz(self):
        return sum(len(r) for r in self._rows.values())

    def __mul__(self, other):
        if not isinstance(other, SparseMatrix):
            return self.scale(other)
        (n, k), (k2, m) = self.shape, other.shape
        if k != k2:
            raise ValueError(f"shape mismatch: {n}x{k} times {k2}x{m}")
        # (A / da)(B / db) = A B / (da db): int products, no gcd, and an
        # entry that cancels to zero is dropped as it does
        right = other._rows
        rows = {}
        for r, row in self._rows.items():
            acc = {}
            for j, v in row.items():
                if j not in right:
                    continue
                for c, w in right[j].items():
                    if c not in acc:
                        acc[c] = v * w
                    elif s := acc[c] + v * w:
                        acc[c] = s
                    else:
                        del acc[c]
            if acc:
                rows[r] = acc
        return SparseMatrix._over((n, m), rows, self.den * other.den)

    def __rmul__(self, s):
        return self.scale(s)

    def scale(self, s):
        """s M for a rational s, an int or a Fraction: the rows times its
        numerator, over den times its denominator."""
        if not isinstance(s, (int, Fraction)):
            raise TypeError(f"a matrix scales by an int or a Fraction, "
                            f"not {type(s).__name__}")
        if not s:
            return SparseMatrix._over(self.shape, {}, 1)
        return SparseMatrix._over(self.shape, _times(self._rows, s.numerator),
                                  self.den * s.denominator)

    def _same_shape(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch: {}x{} vs {}x{}".format(
                *self.shape, *other.shape))

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def _sum(self, other, sign):
        """self + sign other, over the lcm of the two denominators."""
        self._same_shape(other)
        d = math.lcm(self.den, other.den)
        fa, fb = d // self.den, sign * (d // other.den)
        rows = {r: dict(row) for r, row in _times(self._rows, fa).items()}
        for r, row in _times(other._rows, fb).items():
            if r not in rows:
                rows[r] = row
                continue
            acc = rows[r]
            for c, v in row.items():
                if c not in acc:
                    acc[c] = v
                elif s := acc[c] + v:
                    acc[c] = s
                else:
                    del acc[c]
            if not acc:
                del rows[r]
        return SparseMatrix._over(self.shape, rows, d)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return self.shape == other.shape and \
            next(self._mismatches(other), None) is None

    def _mismatches(self, other):
        """(row, col, self's entry, other's entry) wherever the two differ,
        in (row, col) order, the entries as Fractions.  A / da and B / db
        are compared as A (d / da) and B (d / db), d = lcm(da, db): equal
        tables are found by one comparison of the rows, and no Fraction is
        formed unless they differ."""
        self._same_shape(other)
        d = math.lcm(self.den, other.den)
        rows_a = _times(self._rows, d // self.den)
        rows_b = _times(other._rows, d // other.den)
        if rows_a == rows_b:
            return
        for r in sorted(rows_a.keys() | rows_b.keys()):
            row_a, row_b = rows_a.get(r, {}), rows_b.get(r, {})
            if row_a == row_b:
                continue
            for c in sorted(row_a.keys() | row_b.keys()):
                a, b = row_a.get(c, 0), row_b.get(c, 0)
                if a != b:
                    yield r, c, Fraction(a, d), Fraction(b, d)

    def transpose(self):
        rows = {}
        for r, row in self._rows.items():
            for c, v in row.items():
                if c in rows:
                    rows[c][r] = v
                else:
                    rows[c] = {r: v}
        n, k = self.shape
        return SparseMatrix._over((k, n), rows, self.den)

    def _left(self, w):
        """w^T N for a list w of ints, the step of the word walk of
        ``ansatz``: v^T M = w^T N / (e den) for v = w / e."""
        out = [0] * self.shape[1]
        for r, row in self._rows.items():
            wr = w[r]
            if not wr:
                continue
            for c, v in row.items():
                out[c] += wr * v
        return out

    def __repr__(self):
        return "SparseMatrix({}x{}, nnz={})".format(*self.shape, self.nnz)


# perfbench/traced_cli.py asks isinstance(M, tensor.Matrix) of the kernel's
# argument before it counts M.dim and M.nnz: no operator is an instance of
# the empty tuple of classes
Matrix = ()


def _times(rows, f) -> dict:
    """The int rows {r: {c: int}} times the nonzero int f: the rows
    themselves when f is 1."""
    if f == 1:
        return rows
    return {r: {c: v * f for c, v in row.items()} for r, row in rows.items()}


def _block(M: SparseMatrix, r0, c0, h, w) -> SparseMatrix:
    """The h x w block of M whose top left entry is (r0, c0)."""
    return SparseMatrix._over((h, w), _kept(
        (r - r0, {c - c0: v for c, v in row.items() if c0 <= c < c0 + w})
        for r, row in M._rows.items() if r0 <= r < r0 + h), M.den)


def kron(A: SparseMatrix, B: SparseMatrix) -> SparseMatrix:
    """A (x) B: entry (i k, j l) is A[i][j] B[k][l], over the product of
    the two denominators."""
    (n, k), (m, l) = A.shape, B.shape
    right = [(i, list(row.items())) for i, row in B._rows.items()]
    rows = {}
    for i, row in A._rows.items():
        left = list(row.items())
        for i2, rb in right:
            rows[i * m + i2] = {j * l + j2: x * y for j, x in left
                                for j2, y in rb}
    return SparseMatrix._over((n * m, k * l), rows, A.den * B.den)


def permutation_op() -> SparseMatrix:
    """4x4 swap P: P(u (x) v) = v (x) u, P^2 = I."""
    return SparseMatrix._over((4, 4), {0: {0: 1}, 1: {2: 1}, 2: {1: 1},
                                       3: {3: 1}}, 1)


def partial_transpose(M: SparseMatrix, leg: int) -> SparseMatrix:
    """Transpose one tensor leg of a 4x4 two-site operator (leg 1 or 2):
    entry (2i + j, 2k + l) moves to (2k + j, 2i + l) for leg 1 and to
    (2i + l, 2k + j) for leg 2."""
    if M.shape != (4, 4):
        raise ValueError("partial_transpose expects a 4x4 matrix")
    if leg not in (1, 2):
        raise ValueError("leg must be 1 or 2")
    rows = {}
    for r, row in M._rows.items():
        for c, v in row.items():
            if leg == 1:
                r2, c2 = c & 2 | r & 1, r & 2 | c & 1
            else:
                r2, c2 = r & 2 | c & 1, c & 2 | r & 1
            if r2 in rows:
                rows[r2][c2] = v
            else:
                rows[r2] = {c2: v}
    return SparseMatrix._over((4, 4), rows, M.den)


def partial_trace_first(M: SparseMatrix) -> SparseMatrix:
    """Trace out the first 2-dim factor of an operator on 2 (x) 2^n: the
    sum of the two diagonal blocks."""
    n, k = M.shape
    if n != k or n % 2:
        raise ValueError("dimension not even")
    half = n // 2
    return _block(M, 0, 0, half, half) + _block(M, half, half, half, half)


def _eliminate(rows, shape, ncols) -> tuple:
    """Fraction-free Gauss-Jordan elimination of the int rows {r: {c: int}}
    of a matrix of the given shape over its first ncols columns (Bareiss
    1968), on the rows expanded to dense int lists: (those lists reduced,
    the pivot count, the last pivot p).

    A row r is updated by the pivot row s at column c as (s[c] r - r[c] s)
    / p_prev, p_prev the pivot before s[c] (1 at the start).  Every entry
    is then a minor of the input, so the division is exact and no entry
    outgrows Hadamard's bound.  At the end each pivot row holds p at its
    pivot column and 0 at the other pivot columns: it is p times the
    reduced row echelon form's row."""
    n, k = shape
    a = [[0] * k for _ in range(n)]
    for r, row in rows.items():
        for c, v in row.items():
            a[r][c] = v
    rank, prev = 0, 1
    for col in range(ncols):
        piv = next((r for r in range(rank, n) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        prow = a[rank]
        p = prow[col]
        for r in range(n):
            if r == rank:
                continue
            f = a[r][col]
            if f:
                a[r] = [(p * e - f * g) // prev for e, g in zip(a[r], prow)]
            elif prev != p:
                a[r] = [p * e // prev for e in a[r]]
        rank, prev = rank + 1, p
    return a, rank, prev


def inverse(M: SparseMatrix) -> SparseMatrix:
    """Exact inverse of a small square matrix N / d, eliminated without
    fractions: [N | d I] reduces to [p I | p (N / d)^-1], so the inverse is
    the right half over the last pivot p."""
    n, k = M.shape
    if n != k:
        raise ValueError("inverse of non-square matrix")
    rows = {i: {**M._rows.get(i, {}), n + i: M.den} for i in range(n)}
    a, rank, p = _eliminate(rows, (n, 2 * n), n)
    if rank < n:
        raise PoleError("matrix is singular")
    return SparseMatrix._over((n, n), _kept(
        (i, dict(enumerate(row[n:]))) for i, row in enumerate(a)), p)


def rank(M: SparseMatrix) -> int:
    """Exact rank of a small matrix, from its int rows."""
    return _eliminate(M._rows, M.shape, M.shape[1])[1]


def embed_at_positions(terms, n_factors) -> SparseMatrix:
    """Sum of local operators on (C^2)^(x n_factors), each identity off
    its slots.  ``terms`` is a list of (op, positions) pairs: op is a
    2^k x 2^k SparseMatrix acting on k distinct 0-indexed tensor slots,
    its legs in the order of ``positions``.  A term visits each output row
    once: the row's slot bits pick its local row, and each entry's column
    keeps the row's other bits.  The sum is taken in ints over the lcm of
    the terms' denominators; zero sums are dropped."""
    dim = 1 << n_factors
    den = math.lcm(*(op.den for op, _ in terms))
    rows = [{} for _ in range(dim)]
    for op, positions in terms:
        k = len(positions)
        if op.shape != (1 << k, 1 << k):
            raise ValueError("operator size does not match position count")
        if len(set(positions)) != k or \
                any(not 0 <= p < n_factors for p in positions):
            raise ValueError("bad tensor positions")
        # spread[i]: the slot bits of local index i, leg 0 its top bit
        spread = [0]
        for p in positions:
            bit = 1 << n_factors - 1 - p
            spread = [s | b for s in spread for b in (0, bit)]
        f = den // op.den
        local = {}   # a row's slot bits -> (a column's slot bits, v)
        for i, row in op._rows.items():
            local[spread[i]] = [(spread[j], v * f) for j, v in row.items()]
        bases = [b for b in range(dim) if not b & spread[-1]]
        for s, entries in local.items():
            for base in bases:
                row = rows[base | s]
                for c, v in entries:
                    c |= base
                    row[c] = row.get(c, 0) + v
    return SparseMatrix._over((dim, dim), _kept(enumerate(rows)), den)


def _kept(rows) -> dict:
    """{r: row} for the (r, {c: int}) pairs, with zeros and empty rows
    dropped."""
    out = {}
    for r, row in rows:
        row = {c: v for c, v in row.items() if v}
        if row:
            out[r] = row
    return out


def exact_nullspace(M: SparseMatrix) -> list:
    """Exact basis of the kernel of a sparse matrix, by one elimination
    modulo a prime and p-adic lifting (Dixon 1982).

    The kernel of N / den is that of its integer rows N, which are read as
    they are.  Elimination runs once modulo a
    prime p just below 2^30: sparse (shortest row first, then sparsest
    column) until the active rows are nearly full, then on dense rows with
    the same pivots.  It finds pivot rows R and pivot columns P with A[R,P]
    invertible modulo p, hence over Q.  For each free column f the solution
    of A[R,P] x = -A[R,f] is lifted one p-adic digit at a time: the digit is
    solved modulo p with the stored factors, and the residual is updated by
    one exact integer matvec over the pivot rows.  After each lift the
    vectors (1 at f, x on P) are recovered by rational reconstruction as
    ints over one denominator each, and once an exact integer matvec of the
    ints shows M v = 0 for every one, they are returned as Fractions.

    The result is exact: rank mod p <= rank over Q, so the kernel over Q is
    never larger than the kernel mod p.  The k certified vectors each carry
    a 1 at their own free column and 0 at the others, so they are
    independent, and k = dim ker_p makes them a basis over Q.  By Hadamard's
    bound and Cramer's rule no numerator or denominator of x exceeds
    B = prod over R of (isqrt(|row|^2) + 1), so once p^m > 2 (B + 1)^2
    reconstruction modulo p^m finds x whenever the two ranks agree; a
    certificate still missing then proves the rank over Q larger, and the
    next prime is eliminated afresh.

    Returns one length-dim Fraction vector per free column, in column order.
    """
    dim = M.dim
    rows = [M._rows.get(r, {}) for r in range(dim)]
    for p in _primes():
        factors = _eliminate_mod(rows, dim, p)
        pivot_rows = [ri for ri, _, _, _, _ in factors]
        pivot_cols = [cj for _, cj, _, _, _ in factors]
        free = sorted(set(range(dim)).difference(pivot_cols))
        if not free:
            return []
        # x is 1 at f and 0 at the other free columns; the residual of
        # A[R,P] x = -A[R,f] starts at -A[R,f]
        solutions = [[0] * dim for _ in free]
        residuals = [[0] * dim for _ in free]
        for f, x, r in zip(free, solutions, residuals):
            x[f] = 1
            for ri in pivot_rows:
                r[ri] = -rows[ri].get(f, 0)
        height = math.prod(math.isqrt(sum(v * v for v in rows[ri].values()))
                           + 1 for ri in pivot_rows)
        limit = 2 * (height + 1) ** 2
        modulus = 1
        while modulus <= limit:
            for x, r in zip(solutions, residuals):
                y = _solve_mod(factors, r, p)   # 0 off the pivot columns
                for c in pivot_cols:
                    x[c] += modulus * y[c]
                for ri in pivot_rows:
                    r[ri] = (r[ri] - sum(v * y[c] for c, v in
                                         rows[ri].items())) // p
            modulus *= p
            candidate = _reconstruct(solutions, modulus)
            if candidate is not None and _annihilates(rows, candidate):
                return [[Fraction(n, d) for n in ints]
                        for ints, d in candidate]


def integer_vector(vec) -> tuple:
    """(ints, d) with vec = ints / d, d the lcm of the denominators of the
    entries (Fraction or int)."""
    d = math.lcm(*[v.denominator for v in vec])
    return [v.numerator * (d // v.denominator) for v in vec], d


# the share of nonzeros in the block of active rows and live columns at
# which elimination turns to dense rows.  Fill is fast once it starts: at
# RD L = 7 the 65 active rows go from 0.44 to 0.89 full within 7 pivots,
# and to 0.99 within 3 more.  An earlier switch leaves more cancellations
# for the rebuilt counts of _eliminate_dense.
DENSE_FILL = 0.9


def _primes():
    """The primes below 2^30 in decreasing order.  A residue is then one
    30-bit digit of a Python int, and a product of two is two, so a dense
    row update costs about half of what it costs with primes near 2^61
    (225 against 460 ns per entry on 2 vCPU, Python 3.11.7).  About twice
    as many p-adic lifts are needed, but at L = 9 and 10 the lifts take
    8-16% of a generator kernel's time."""
    n = (1 << 30) - 1
    while True:
        if _is_prime(n):
            yield n
        n -= 2


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first 12 prime bases: exact for n < 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _eliminate_mod(rows, dim, p) -> list:
    """LU factors of the integer rows modulo p, by sparse elimination that
    is finished on dense rows.

    Each pivot is taken at the shortest active row, at its sparsest column,
    ties to the lowest index.  Rows are kept in buckets by length, so the
    shortest ones are found without a scan of the active rows.  Once these
    fill DENSE_FILL of the block of live columns, ``_eliminate_dense`` goes
    on with the same pivots on lists.

    Returns one (row, col, inverse, eliminated, upper) per pivot, in
    elimination order: the inverse of the pivot modulo p, the (row,
    multiplier) pairs it eliminated, and the (col, value) pairs of its row
    divided by the pivot, the pivot itself left out.
    """
    work = [{c: v % p for c, v in row.items() if v % p} for row in rows]
    active = {r for r in range(dim) if work[r]}
    col_count = [0] * dim  # entries per column over the active rows
    by_len = {}            # row length -> the active rows of that length
    for r in active:
        by_len.setdefault(len(work[r]), set()).add(r)
        for c in work[r]:
            col_count[c] += 1
    nnz = sum(col_count)

    def move(r, old, new):
        bucket = by_len[old]
        bucket.discard(r)
        if not bucket:
            del by_len[old]
        if new:
            by_len.setdefault(new, set()).add(r)
        else:
            active.discard(r)

    factors = []
    while active:
        if nnz >= DENSE_FILL * len(active) * (dim - col_count.count(0)):
            cols = [c for c, n in enumerate(col_count) if n]
            block = []
            for r in sorted(active):   # each dict is freed once copied
                block.append((r, [work[r].get(c, 0) for c in cols]))
                work[r] = None
            return factors + _eliminate_dense(block, cols, p)
        ri, cj = _markowitz(work, by_len[min(by_len)], col_count)
        prow, work[ri] = work[ri], None   # freed: factors keeps it as rest
        inv = pow(prow[cj], -1, p)
        move(ri, len(prow), 0)
        nnz -= len(prow)
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
            old_len = len(tgt) + 1
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
            nnz += len(tgt) - old_len
            move(rk, old_len, len(tgt))
        factors.append((ri, cj, inv, eliminated, rest))
    return factors


def _eliminate_dense(block, cols, p) -> list:
    """The factors of the active rows of ``_eliminate_mod``, with the same
    pivots, eliminated on dense rows: ``block`` holds (row, values) in
    increasing row order, the values listed over the live columns ``cols``.

    Where no row holds a zero, every row is shortest and every column
    equally sparse, so the pivot is the first live column of the lowest
    row.  Only after a cancellation modulo p are the counts rebuilt and the
    pivot found by ``_markowitz``.  The pivot column is dropped from every
    row at each step, and a row that empties leaves the block.
    """
    filled = all(0 not in row for _, row in block)
    factors = []
    while block:
        if filled:
            k = j = 0
        else:
            rows = [row for _, row in block]
            lengths = [len(row) - row.count(0) for row in rows]
            least = min(lengths)
            shortest = {k: [j for j, v in enumerate(row) if v]
                        for k, row in enumerate(rows) if lengths[k] == least}
            counts = [len(rows) - col.count(0) for col in zip(*rows)]
            k, j = _markowitz(shortest, shortest, counts)
        ri, prow = block.pop(k)
        cj = cols.pop(j)
        inv = pow(prow.pop(j), -1, p)
        prow = [v * inv % p for v in prow]
        rest = [(c, v) for c, v in zip(cols, prow) if v]
        eliminated = []
        kept = []
        filled = True
        for rk, row in block:
            f = row.pop(j)
            if f:
                eliminated.append((rk, f))
                # in place, so the block is never held twice
                row[:] = [(a - f * b) % p for a, b in zip(row, prow)]
            if not any(row):
                continue
            if 0 in row:
                filled = False
            kept.append((rk, row))
        block = kept
        factors.append((ri, cj, inv, eliminated, rest))
    return factors


def _solve_mod(factors, rhs, p) -> list:
    """y with A[R,P] y = rhs[R] modulo p and 0 off the pivot columns: the
    stored row operations applied to rhs (indexed by row), then back
    substitution through the upper rows."""
    b = list(rhs)
    for ri, _, inv, eliminated, _ in factors:
        t = b[ri] = b[ri] * inv % p
        for rk, f in eliminated:
            b[rk] -= f * t
    y = [0] * len(b)
    for ri, cj, _, _, upper in reversed(factors):
        y[cj] = (b[ri] - sum(v * y[c] for c, v in upper)) % p
    return y


def _markowitz(work, shortest, col_count):
    """Pivot among the shortest rows at the sparsest column: the row whose
    sparsest column is sparsest, ties to the lowest row, then to the lowest
    column.  ``work`` maps each row to its columns."""
    m, r = min((min(map(col_count.__getitem__, work[r])), r)
               for r in shortest)
    return r, min(c for c in work[r] if col_count[c] == m)


def _reconstruct(residues, modulus):
    """Each residue vector as (ints, d), ints / d congruent to it with
    numerators and denominators at most B = isqrt(modulus/2), d their lcm;
    None if an entry has no such value (2 B^2 < modulus: it has at most
    one).  An entry u is w / d if w, u d reduced into [-B, modulus - B),
    and the reduced denominator of w / d are at most B; only an entry that
    brings a new factor of d runs the extended Euclid of ``_rational``."""
    bound = math.isqrt(modulus >> 1)
    out = []
    for vec in residues:
        ints, d = [], 1
        for u in vec:
            w = (u * d + bound) % modulus - bound
            # w / d reduces over d / gcd(w, d), above B only once the lcm d is
            if w <= bound and d // math.gcd(w, d) <= bound:
                ints.append(w)
                continue
            x = _rational(u, modulus, bound)
            if x is None:
                return None
            grown = math.lcm(d, x.denominator)
            ints = [v * (grown // d) for v in ints]
            ints.append(x.numerator * (grown // x.denominator))
            d = grown
        out.append((ints, d))
    return out


def _rational(u, modulus, bound):
    """The Fraction n / q = u modulo modulus with |n|, |q| <= bound, by the
    extended Euclid of (modulus, u) stopped at the first remainder <= bound
    (Wang 1981); None if there is none."""
    r0, r1, t0, t1 = modulus, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _annihilates(rows, vectors) -> bool:
    """Exact check that each int row is orthogonal to each vector's ints."""
    for w, _ in vectors:
        for row in rows:
            if sum(v * w[c] for c, v in row.items()):
                return False
    return True
