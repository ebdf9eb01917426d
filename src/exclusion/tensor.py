"""Dense and sparse exact matrices and the tensor-space kernel.

Site ordering follows the probability-vector convention: site 1 is the most
significant bit of the configuration index, so index 1 is (0,...,0,1).
All operations are pure.  Both matrix types hold one form, an integer
table over one denominator: a dense Matrix's ``_table`` (N, d), formed
from its entries once, when it is built, through ``_dense_over_lcm``, and
a SparseMatrix's int rows over its positive ``den``.  Products, ``kron``,
sums, scalings, the transposes, ``inverse``, ``rank``, matvecs, ``==``,
the embedding and ``exact_nullspace`` work in ints and take no gcd per
entry; Fraction entries are formed, reduced, only when they are read.
``integer_vector`` puts a vector in the same form.  The transfer-matrix
contraction reads the same tables.  These are the package's only scaling
of rationals to integers.  Every entry is rational: a derivative is a pair
of these matrices (``derivative_at``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul


class PoleError(ZeroDivisionError):
    """A rational expression was evaluated at a zero of its denominator."""


_ZERO = Fraction(0)   # shared by zero product entries; Fractions are immutable


class Matrix:
    """Small dense matrix, row-major, held as one integer table ``_table``,
    (N, d) with the matrix N / d, N rows of ints and d a nonzero int.

    A Matrix built from entries, ints or Fractions, forms its table in
    ``__init__``, through ``_dense_over_lcm``; any other entry raises
    TypeError.  Products, ``kron``, sums, negation, rational scalings, the
    transposes, ``apply``, ``inverse``, ``rank`` and ``==`` work on the
    tables.  ``a``, the entries as rows of reduced Fractions, is a read
    view, formed on first read and kept.

    A Matrix is never changed once built: ``models`` shares each R(x) and
    K(x) it builds between all of its callers.
    """

    __slots__ = ("_table", "a", "rows", "cols")

    def __init__(self, rows_of_entries):
        try:
            self._table = N, _ = _dense_over_lcm(rows_of_entries)
        except AttributeError:   # an entry with no denominator
            raise TypeError("Matrix entries are ints or Fractions") from None
        self.rows = len(N)
        self.cols = len(N[0]) if N else 0
        if any(len(r) != self.cols for r in N):
            raise ValueError("ragged matrix")

    @classmethod
    def _over(cls, table, d):
        """The Matrix table / d, table a list of int rows."""
        M = cls.__new__(cls)
        M._table = table, d
        M.rows = len(table)
        M.cols = len(table[0]) if table else 0
        return M

    def __getattr__(self, name):
        # the entries are formed from the table on first read, and kept
        if name != "a":
            raise AttributeError(name)
        N, d = self._table
        self.a = [[Fraction(v, d) if v else _ZERO for v in row] for row in N]
        return self.a

    @staticmethod
    def zeros(rows, cols):
        return Matrix._over([[0] * cols for _ in range(rows)], 1)

    @staticmethod
    def identity(n):
        return Matrix._over([[int(i == j) for j in range(n)]
                             for i in range(n)], 1)

    def __getitem__(self, ij):
        i, j = ij
        return self.a[i][j]

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self._scaled(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        (a, da), (b, db) = self._table, other._table
        # (A / da)(B / db) = A B / (da db): int dot products, no gcd
        cols = list(zip(*b))
        return Matrix._over([[sum(map(mul, row, col)) for col in cols]
                             for row in a], da * db)

    def __rmul__(self, other):
        return self._scaled(other)

    def _scaled(self, s):
        """s M for a rational s: the table times its numerator, over d times
        its denominator."""
        if not isinstance(s, (int, Fraction)):
            return NotImplemented
        N, d = self._table
        n = s.numerator
        return Matrix._over([[v * n for v in row] for row in N],
                            d * s.denominator)

    def _same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} vs "
                             f"{other.rows}x{other.cols}")

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def _sum(self, other, sign):
        """self + sign other, over the lcm of the two denominators."""
        self._same_shape(other)
        (a, da), (b, db) = self._table, other._table
        d = math.lcm(da, db)
        fa, fb = d // da, sign * (d // db)
        return Matrix._over([[x * fa + y * fb for x, y in zip(r, s)]
                             for r, s in zip(a, b)], d)

    def __neg__(self):
        N, d = self._table
        return Matrix._over([[-v for v in row] for row in N], d)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            next(self._mismatches(other), None) is None

    def _mismatches(self, other):
        """(row, col, self's entry, other's entry) wherever the two differ,
        in row-major order, the entries read from ``a``.  A / da = B / db
        where A db = B da, so no Fraction is formed unless they differ."""
        self._same_shape(other)
        (ta, da), (tb, db) = self._table, other._table
        for r, (row_a, row_b) in enumerate(zip(ta, tb)):
            for c, (x, y) in enumerate(zip(row_a, row_b)):
                if x * db != y * da:
                    yield r, c, self.a[r][c], other.a[r][c]

    def transpose(self):
        N, d = self._table
        return Matrix._over([list(c) for c in zip(*N)], d)

    def apply(self, vec):
        """M v for a vector of Fractions or ints, as Fractions: (N / d)(w /
        e) = N w / (d e), w the ints of ``integer_vector``."""
        if len(vec) != self.cols:
            raise ValueError(f"vector length {len(vec)} != {self.cols} columns")
        N, d = self._table
        w, e = integer_vector(vec)
        de = d * e
        return [Fraction(sum(map(mul, row, w)), de) for row in N]

    def __repr__(self):
        return f"Matrix({self.a!r})"


def kron(A: Matrix, B: Matrix) -> Matrix:
    """A (x) B: entry (i k, j l) is A[i][j] B[k][l], over the product of
    the two denominators."""
    (a, da), (b, db) = A._table, B._table
    return Matrix._over([[x * y for x in ra for y in rb]
                         for ra in a for rb in b], da * db)


def permutation_op() -> Matrix:
    """4x4 swap P: P(u (x) v) = v (x) u, P^2 = I."""
    return Matrix._over([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0],
                         [0, 0, 0, 1]], 1)


def partial_transpose(M: Matrix, leg: int) -> Matrix:
    """Transpose one tensor leg of a 4x4 two-site operator (leg 1 or 2):
    entry (2i + j, 2k + l) moves to (2k + j, 2i + l) for leg 1 and to
    (2i + l, 2k + j) for leg 2."""
    if M.rows != 4 or M.cols != 4:
        raise ValueError("partial_transpose expects a 4x4 matrix")
    if leg not in (1, 2):
        raise ValueError("leg must be 1 or 2")
    N, d = M._table
    if leg == 1:
        return Matrix._over([[N[c & 2 | r & 1][r & 2 | c & 1]
                              for c in range(4)] for r in range(4)], d)
    return Matrix._over([[N[r & 2 | c & 1][c & 2 | r & 1]
                          for c in range(4)] for r in range(4)], d)


def partial_trace_first(M: Matrix) -> Matrix:
    """Trace out the first 2-dim factor of an operator on 2 (x) 2^n."""
    if M.rows != M.cols or M.rows % 2:
        raise ValueError("dimension not even")
    half = M.rows // 2
    N, d = M._table
    return Matrix._over([[N[j][l] + N[half + j][half + l] for l in range(half)]
                         for j in range(half)], d)


def _eliminate(rows, ncols) -> tuple:
    """Fraction-free Gauss-Jordan elimination of integer rows over their
    first ncols columns (Bareiss 1968): (the rows, the pivot count, the last
    pivot p).

    A row r is updated by the pivot row s at column c as (s[c] r - r[c] s)
    / p_prev, p_prev the pivot before s[c] (1 at the start).  Every entry
    is then a minor of the input, so the division is exact and no entry
    outgrows Hadamard's bound.  At the end each pivot row holds p at its
    pivot column and 0 at the other pivot columns: it is p times the
    reduced row echelon form's row."""
    a = list(rows)   # rows are replaced below, never changed in place
    rank, prev = 0, 1
    for col in range(ncols):
        piv = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        prow = a[rank]
        p = prow[col]
        for r in range(len(a)):
            if r == rank:
                continue
            f = a[r][col]
            if f:
                a[r] = [(p * e - f * g) // prev for e, g in zip(a[r], prow)]
            elif prev != p:
                a[r] = [p * e // prev for e in a[r]]
        rank, prev = rank + 1, p
    return a, rank, prev


def inverse(M: Matrix) -> Matrix:
    """Exact inverse of a small dense matrix N / d, eliminated without
    fractions: [N | d I] reduces to [p I | p (N / d)^-1], so the inverse is
    the right half over the last pivot p."""
    n = M.rows
    if n != M.cols:
        raise ValueError("inverse of non-square matrix")
    N, d = M._table
    rows = [row + [d if i == j else 0 for j in range(n)]
            for i, row in enumerate(N)]
    a, rank, p = _eliminate(rows, n)
    if rank < n:
        raise PoleError("matrix is singular")
    return Matrix._over([row[n:] for row in a], p)


def rank(M: Matrix) -> int:
    """Exact rank of a small dense matrix, from its integer table."""
    return _eliminate(M._table[0], M.cols)[1]


class SparseMatrix:
    """Square sparse matrix N / den, the form of ``Matrix._table``: ``_rows``
    maps row -> {col: int}, zeros never stored, and den is a positive int.

    Products are int products over da db, sums and differences work over
    lcm(da, db), and ``scale(s)`` multiplies the rows by the numerator of s
    and den by its denominator: no gcd is taken.  ``get``, ``items``,
    ``apply``, ``apply_left`` and ``==`` read exact rationals; package code
    reads ``_rows`` and ``den`` as they are.  Comparison and iteration use
    the deterministic (row, col) ordering, so exact equality is well
    defined.
    """

    __slots__ = ("dim", "_rows", "den")

    def __init__(self, dim):
        self.dim = dim
        self._rows = {}
        self.den = 1

    @classmethod
    def _over(cls, dim, rows, den):
        """The matrix rows / den, rows {r: {c: int}} holding no zero and den
        a nonzero int; a negative den moves its sign into the rows."""
        out = cls(dim)
        if den < 0:
            rows = {r: {c: -v for c, v in row.items()}
                    for r, row in rows.items()}
            den = -den
        out._rows, out.den = rows, den
        return out

    @staticmethod
    def identity(dim):
        return SparseMatrix._over(dim, {i: {i: 1} for i in range(dim)}, 1)

    @staticmethod
    def from_dense(M: Matrix):
        """M over the denominator of its table, taken as it is."""
        if M.rows != M.cols:
            raise ValueError(f"SparseMatrix is square, got {M.rows}x{M.cols}")
        N, d = M._table
        return SparseMatrix._over(
            M.rows, _kept((i, dict(enumerate(row))) for i, row in enumerate(N)),
            d)

    def _check_index(self, r, c):
        if not (0 <= r < self.dim and 0 <= c < self.dim):
            raise IndexError("coordinate out of range")

    def add(self, r, c, v):
        """Add the rational v at (r, c), in place: a sum with the one-entry
        matrix, over the lcm of the two denominators, for small builders."""
        self._check_index(r, c)
        one = SparseMatrix._over(self.dim, {r: {c: v.numerator}} if v else {},
                                 v.denominator)
        total = self + one
        self._rows, self.den = total._rows, total.den

    def get(self, r, c):
        self._check_index(r, c)
        return Fraction(self._rows.get(r, {}).get(c, 0), self.den)

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
        if self.dim != other.dim:
            raise ValueError("shape mismatch")
        # (A / da)(B / db) = A B / (da db): int products, no gcd
        rows = {}
        for r, row in self._rows.items():
            acc = rows[r] = {}
            for k, v in row.items():
                for c, w in other._rows.get(k, {}).items():
                    acc[c] = acc.get(c, 0) + v * w
        return SparseMatrix._over(self.dim, _kept(rows.items()),
                                  self.den * other.den)

    def scale(self, s):
        """s M for a rational s: the rows times its numerator, over den
        times its denominator."""
        n = s.numerator
        if not n:
            return SparseMatrix(self.dim)
        return SparseMatrix._over(
            self.dim, {r: {c: v * n for c, v in row.items()}
                       for r, row in self._rows.items()},
            self.den * s.denominator)

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def _sum(self, other, sign):
        """self + sign other, over the lcm of the two denominators."""
        if self.dim != other.dim:
            raise ValueError(f"shape mismatch: dim {self.dim} vs {other.dim}")
        d = math.lcm(self.den, other.den)
        fa, fb = d // self.den, sign * (d // other.den)
        rows = {r: {c: v * fa for c, v in row.items()}
                for r, row in self._rows.items()}
        for r, row in other._rows.items():
            acc = rows.setdefault(r, {})
            for c, v in row.items():
                acc[c] = acc.get(c, 0) + v * fb
        return SparseMatrix._over(self.dim, _kept(rows.items()), d)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return self.dim == other.dim and \
            next(self._mismatches(other), None) is None

    def _mismatches(self, other):
        """(row, col, self's entry, other's entry) wherever the two differ,
        in (row, col) order, the entries as Fractions.  Over one den, equal
        rows are skipped by one dict comparison; otherwise A / da and B / db
        are compared as A (d / da) and B (d / db), d = lcm(da, db)."""
        if self.dim != other.dim:
            raise ValueError(f"shape mismatch: dim {self.dim} vs {other.dim}")
        da, db = self.den, other.den
        d = math.lcm(da, db)
        fa, fb = d // da, d // db
        rows_a, rows_b = self._rows, other._rows
        for r in sorted(rows_a.keys() | rows_b.keys()):
            row_a, row_b = rows_a.get(r, {}), rows_b.get(r, {})
            if da == db and row_a == row_b:
                continue
            for c in sorted(row_a.keys() | row_b.keys()):
                a, b = row_a.get(c, 0), row_b.get(c, 0)
                if a * fa != b * fb:
                    yield r, c, Fraction(a, da), Fraction(b, db)

    def _check_vector(self, vec):
        if len(vec) != self.dim:
            raise ValueError(f"vector length {len(vec)} != dim {self.dim}")

    def apply(self, vec):
        """M v for a vector of Fractions or ints, as Fractions: (N / d)(w /
        e) = N w / (d e), w the ints of ``integer_vector``."""
        self._check_vector(vec)
        w, e = integer_vector(vec)
        out = [0] * self.dim
        for r, row in self._rows.items():
            out[r] = sum(v * w[c] for c, v in row.items())
        de = self.den * e
        return [Fraction(g, de) for g in out]

    def apply_left(self, vec):
        """v^T M, as Fractions, the same way."""
        self._check_vector(vec)
        w, e = integer_vector(vec)
        de = self.den * e
        return [Fraction(g, de) for g in self._left(w)]

    def _left(self, w):
        """w^T N for a list w of ints: v^T M = w^T N / (e den) for v = w / e."""
        out = [0] * self.dim
        for r, row in self._rows.items():
            wr = w[r]
            if not wr:
                continue
            for c, v in row.items():
                out[c] += wr * v
        return out

    def __repr__(self):
        return f"SparseMatrix(dim={self.dim}, nnz={self.nnz})"


def embed_at_positions(terms, n_factors) -> SparseMatrix:
    """Sum of local operators on (C^2)^(x n_factors), each identity off
    its slots.  ``terms`` is a list of (op, positions) pairs: op is a
    SparseMatrix of dim 2^k acting on k distinct 0-indexed tensor slots,
    its legs in the order of ``positions``.  A term visits each output row
    once: the row's slot bits pick its local row, and each entry's column
    keeps the row's other bits.  The sum is taken in ints over the lcm of
    the terms' denominators; zero sums are dropped."""
    dim = 1 << n_factors
    den = math.lcm(*(op.den for op, _ in terms))
    rows = [{} for _ in range(dim)]
    for op, positions in terms:
        k = len(positions)
        if op.dim != 1 << k:
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
    return SparseMatrix._over(dim, _kept(enumerate(rows)), den)


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
    vectors (1 at f, x on P) are recovered by rational reconstruction and
    returned once an exact integer matvec shows M v = 0 for every one.

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
    rows = [M._rows.get(r, {}) for r in range(M.dim)]
    for p in _primes():
        factors = _eliminate_mod(rows, M.dim, p)
        pivot_rows = [ri for ri, _, _, _, _ in factors]
        pivot_cols = [cj for _, cj, _, _, _ in factors]
        free = sorted(set(range(M.dim)).difference(pivot_cols))
        if not free:
            return []
        # x is 1 at f and 0 at the other free columns; the residual of
        # A[R,P] x = -A[R,f] starts at -A[R,f]
        solutions = [[0] * M.dim for _ in free]
        residuals = [[0] * M.dim for _ in free]
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
                return candidate


def integer_vector(vec) -> tuple:
    """(ints, d) with vec = ints / d, d the lcm of the denominators of the
    entries (Fraction or int)."""
    (row,), d = _dense_over_lcm([vec])
    return row, d


def _dense_over_lcm(rows):
    """(the rows times d as int lists, d), d the lcm of the denominators of
    all entries of the rows (lists of Fraction or int)."""
    d = math.lcm(*[v.denominator for row in rows for v in row])
    return [[v.numerator * (d // v.denominator) for v in row]
            for row in rows], d


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
    """Rational vectors with the given residues, or None if an entry has no
    reconstruction with numerator and denominator below sqrt(modulus/2)."""
    bound = math.isqrt(modulus >> 1)
    out = []
    for vec in residues:
        rat = []
        for u in vec:
            r0, r1, t0, t1 = modulus, u, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1 = r1, r0 - q * r1
                t0, t1 = t1, t0 - q * t1
            if abs(t1) > bound or math.gcd(r1, t1) != 1:
                return None
            rat.append(Fraction(r1, t1))
        out.append(rat)
    return out


def _annihilates(rows, vectors) -> bool:
    """Exact check that every integer row is orthogonal to every vector."""
    for vec in vectors:
        w, _ = integer_vector(vec)
        for row in rows:
            if sum(v * w[c] for c, v in row.items()):
                return False
    return True


def derivative_at(f, x0) -> Matrix:
    """Exact derivative of a matrix-valued rational function at x0.  At the
    Dual point x0 + eps, f returns the pair (f(x0), f'(x0)) of rational
    Matrices, as the R and K caches of ``models`` do, and its second part is
    the derivative.  Poles raise PoleError."""
    from .scalars import Dual
    try:
        return f(Dual.variable(x0))[1]
    except ZeroDivisionError as exc:
        raise PoleError(f"pole while differentiating at {x0}: {exc}") from exc
