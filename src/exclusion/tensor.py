"""Dense and sparse exact matrices and the tensor-space kernel.

Site ordering follows the probability-vector convention: site 1 is the most
significant bit of the configuration index, so index 1 is (0,...,0,1).
All operations are pure; entries may be Fraction or Dual (any scalar
supporting field arithmetic and exact zero tests).  A SparseMatrix may also
hold ints, which products, sums, matvecs, the embedding and the partial
trace keep as ints.  ``integer_form`` and ``integer_vector`` put rational
matrices and vectors in that form over one common denominator, so exact
products take no gcd per entry; they are the package's only scaling of
rationals to integers.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalars import Dual


class PoleError(ZeroDivisionError):
    """A rational expression was evaluated at a zero of its denominator."""


class Matrix:
    """Small dense matrix, row-major.  Immutable by convention."""

    __slots__ = ("a", "rows", "cols")

    def __init__(self, rows_of_entries):
        # bare ints are promoted so that entry division stays exact
        self.a = [[Fraction(e) if isinstance(e, int) else e for e in r]
                  for r in rows_of_entries]
        self.rows = len(self.a)
        self.cols = len(self.a[0]) if self.a else 0
        if any(len(r) != self.cols for r in self.a):
            raise ValueError("ragged matrix")

    @staticmethod
    def zeros(rows, cols):
        return Matrix([[Fraction(0)] * cols for _ in range(rows)])

    @staticmethod
    def identity(n):
        return Matrix([[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.a[i][j]

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            return Matrix([[sum(self.a[i][k] * other.a[k][j] for k in range(self.cols))
                            for j in range(other.cols)] for i in range(self.rows)])
        return Matrix([[e * other for e in row] for row in self.a])

    def __rmul__(self, other):
        return Matrix([[other * e for e in row] for row in self.a])

    def _same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} vs "
                             f"{other.rows}x{other.cols}")

    def __add__(self, other):
        self._same_shape(other)
        return Matrix([[x + y for x, y in zip(r, s)] for r, s in zip(self.a, other.a)])

    def __sub__(self, other):
        self._same_shape(other)
        return Matrix([[x - y for x, y in zip(r, s)] for r, s in zip(self.a, other.a)])

    def __neg__(self):
        return Matrix([[-x for x in r] for r in self.a])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and all(
            x == y for r, s in zip(self.a, other.a) for x, y in zip(r, s))

    def transpose(self):
        return Matrix([[self.a[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def trace(self):
        return sum(self.a[i][i] for i in range(self.rows))

    def map(self, fn):
        return Matrix([[fn(e) for e in row] for row in self.a])

    def apply(self, vec):
        if len(vec) != self.cols:
            raise ValueError(f"vector length {len(vec)} != {self.cols} columns")
        return [sum(self.a[i][j] * vec[j] for j in range(self.cols)) for i in range(self.rows)]

    def __repr__(self):
        return f"Matrix({self.a!r})"


def kron(A: Matrix, B: Matrix) -> Matrix:
    out = Matrix.zeros(A.rows * B.rows, A.cols * B.cols)
    for i in range(A.rows):
        for j in range(A.cols):
            aij = A.a[i][j]
            if not aij:
                continue
            for k in range(B.rows):
                for l in range(B.cols):
                    if B.a[k][l]:
                        out.a[i * B.rows + k][j * B.cols + l] = aij * B.a[k][l]
    return out


def permutation_op() -> Matrix:
    """4x4 swap P: P(u (x) v) = v (x) u, P^2 = I."""
    P = Matrix.zeros(4, 4)
    for i in range(2):
        for j in range(2):
            P.a[2 * i + j][2 * j + i] = Fraction(1)
    return P


def partial_transpose(M: Matrix, leg: int) -> Matrix:
    """Transpose one tensor leg of a 4x4 two-site operator (leg 1 or 2)."""
    if M.rows != 4 or M.cols != 4:
        raise ValueError("partial_transpose expects a 4x4 matrix")
    if leg not in (1, 2):
        raise ValueError("leg must be 1 or 2")
    out = Matrix.zeros(4, 4)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    if leg == 1:
                        out.a[2 * k + j][2 * i + l] = M.a[2 * i + j][2 * k + l]
                    else:
                        out.a[2 * i + l][2 * k + j] = M.a[2 * i + j][2 * k + l]
    return out


def partial_trace_first(M):
    """Trace out the first 2-dim factor of an operator on 2 (x) 2^n."""
    if isinstance(M, SparseMatrix):
        if M.dim % 2:
            raise ValueError("dimension not even")
        half = M.dim // 2
        out = SparseMatrix(half)
        for r, row in M.rows_items():
            j = r % half
            for c, v in row.items():
                if (r < half) == (c < half):
                    out.add(j, c % half, v)
        return out
    if M.rows != M.cols or M.rows % 2:
        raise ValueError("dimension not even")
    half = M.rows // 2
    return Matrix([[M.a[j][l] + M.a[half + j][half + l] for l in range(half)]
                   for j in range(half)])


def _gauss_jordan(rows, ncols) -> tuple:
    """Gauss-Jordan elimination over the first ncols columns: (the reduced
    rows, the pivot count)."""
    a = list(rows)   # rows are replaced below, never changed in place
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


def inverse(M: Matrix) -> Matrix:
    """Exact inverse of a small dense matrix by Gauss-Jordan elimination."""
    n = M.rows
    if n != M.cols:
        raise ValueError("inverse of non-square matrix")
    a, rank = _gauss_jordan(
        [row + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
         for i, row in enumerate(M.a)], n)
    if rank < n:
        raise PoleError("matrix is singular")
    return Matrix([row[n:] for row in a])


def rank(M: Matrix) -> int:
    """Exact rank of a small dense matrix."""
    return _gauss_jordan(M.a, M.cols)[1]


class SparseMatrix:
    """Square sparse matrix as row -> {col: value}; zeros are never stored.

    Comparison and iteration use the deterministic (row, col) ordering, so
    exact equality is well defined.
    """

    __slots__ = ("dim", "_rows")

    def __init__(self, dim):
        self.dim = dim
        self._rows = {}

    @staticmethod
    def identity(dim):
        out = SparseMatrix(dim)
        for i in range(dim):
            out._rows[i] = {i: Fraction(1)}
        return out

    @staticmethod
    def from_dense(M: Matrix):
        if M.rows != M.cols:
            raise ValueError(f"SparseMatrix is square, got {M.rows}x{M.cols}")
        out = SparseMatrix(M.rows)
        for i in range(M.rows):
            for j in range(M.cols):
                if M.a[i][j]:
                    out._rows.setdefault(i, {})[j] = M.a[i][j]
        return out

    def to_dense(self) -> Matrix:
        out = Matrix.zeros(self.dim, self.dim)
        for r, row in self._rows.items():
            for c, v in row.items():
                out.a[r][c] = v
        return out

    def add(self, r, c, v):
        if not (0 <= r < self.dim and 0 <= c < self.dim):
            raise IndexError("coordinate out of range")
        row = self._rows.setdefault(r, {})
        nv = row.get(c, 0) + v
        if not nv:
            row.pop(c, None)
            if not row:
                self._rows.pop(r, None)
        else:
            row[c] = nv

    def get(self, r, c):
        return self._rows.get(r, {}).get(c, Fraction(0))

    def rows_items(self):
        return self._rows.items()

    def items(self):
        """COO entries sorted by (row, col)."""
        for r in sorted(self._rows):
            row = self._rows[r]
            for c in sorted(row):
                yield r, c, row[c]

    @property
    def nnz(self):
        return sum(len(r) for r in self._rows.values())

    def __mul__(self, other):
        if isinstance(other, SparseMatrix):
            if self.dim != other.dim:
                raise ValueError("shape mismatch")
            out = SparseMatrix(self.dim)
            for r, row in self._rows.items():
                acc = {}
                for k, v in row.items():
                    brow = other._rows.get(k)
                    if not brow:
                        continue
                    for c, w in brow.items():
                        acc[c] = acc.get(c, 0) + v * w
                acc = {c: v for c, v in acc.items() if v}
                if acc:
                    out._rows[r] = acc
            return out
        return self.scale(other)

    def scale(self, s):
        out = SparseMatrix(self.dim)
        if not s:
            return out
        for r, row in self._rows.items():
            out._rows[r] = {c: v * s for c, v in row.items()}
        return out

    def __add__(self, other):
        if self.dim != other.dim:
            raise ValueError(f"shape mismatch: dim {self.dim} vs {other.dim}")
        out = SparseMatrix(self.dim)
        out._rows = {r: dict(row) for r, row in self._rows.items()}
        for r, row in other._rows.items():
            for c, v in row.items():
                out.add(r, c, v)
        return out

    def __sub__(self, other):
        return self + other.scale(Fraction(-1))

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return self.dim == other.dim and list(self.items()) == list(other.items())

    def _check_vector(self, vec):
        if len(vec) != self.dim:
            raise ValueError(f"vector length {len(vec)} != dim {self.dim}")

    def apply(self, vec):
        self._check_vector(vec)
        out = [0] * self.dim
        for r, row in self._rows.items():
            out[r] = sum(v * vec[c] for c, v in row.items())
        return out

    def apply_left(self, vec):
        self._check_vector(vec)
        out = [0] * self.dim
        for r, row in self._rows.items():
            vr = vec[r]
            if not vr:
                continue
            for c, v in row.items():
                out[c] += vr * v
        return out

    def map(self, fn):
        out = SparseMatrix(self.dim)
        for r, row in self._rows.items():
            nr = {c: fn(v) for c, v in row.items()}
            nr = {c: v for c, v in nr.items() if v}
            if nr:
                out._rows[r] = nr
        return out

    def __repr__(self):
        return f"SparseMatrix(dim={self.dim}, nnz={self.nnz})"


def embed_at_positions(op, positions, n_factors) -> SparseMatrix:
    """Embed an operator acting on the given 0-indexed tensor slots of
    (C^2)^(x n_factors), identity elsewhere.  ``op`` is a Matrix or a
    SparseMatrix of dim 2^len(positions), with its tensor legs matching
    ``positions`` in order; its entries are copied as they are."""
    if isinstance(op, Matrix):
        op = SparseMatrix.from_dense(op)
    k = len(positions)
    if op.dim != 1 << k:
        raise ValueError("operator size does not match position count")
    if len(set(positions)) != k or any(not 0 <= p < n_factors for p in positions):
        raise ValueError("bad tensor positions")
    dim = 1 << n_factors
    shifts = [n_factors - 1 - p for p in positions]
    ent = list(op.items())
    out = SparseMatrix(dim)
    mask = 0
    for s in shifts:
        mask |= 1 << s
    rest = [b for b in range(dim) if not b & mask]
    for base in rest:
        for i, j, v in ent:
            r = base
            c = base
            for t, s in enumerate(shifts):
                r |= ((i >> (k - 1 - t)) & 1) << s
                c |= ((j >> (k - 1 - t)) & 1) << s
            out._rows.setdefault(r, {})[c] = v  # (base, i, j) -> (r, c) is 1:1
    return out


def embed_local(op: Matrix, first_site: int, length: int) -> SparseMatrix:
    """Embed a single-site (2x2) or adjacent-pair (4x4) operator; sites are
    1-indexed, site 1 being the most significant bit."""
    if op.rows == 2:
        if not 1 <= first_site <= length:
            raise ValueError(f"site {first_site} out of range for {length} sites")
        return embed_at_positions(op, (first_site - 1,), length)
    if op.rows == 4:
        if not 1 <= first_site <= length - 1:
            raise ValueError(f"pair ({first_site},{first_site + 1}) out of range "
                             f"for {length} sites")
        return embed_at_positions(op, (first_site - 1, first_site), length)
    raise ValueError("embed_local expects a 2x2 or 4x4 operator")


def embed_sum(terms, n_factors) -> SparseMatrix:
    """Sum of operators on adjacent tensor slots of (C^2)^(x n_factors),
    identity elsewhere.  ``terms`` holds (op, first) pairs: op is a
    SparseMatrix of dim 2^k acting on the 0-indexed slots first, ...,
    first + k - 1.  Entries are summed as they are, so int operators give
    an int sum, and no term is embedded on its own."""
    dim = 1 << n_factors
    rows = [{} for _ in range(dim)]
    for op, first in terms:
        mask = op.dim - 1
        shift = n_factors - first - mask.bit_length()
        if op.dim & mask or first < 0 or shift < 0:
            raise ValueError("bad tensor positions")
        local = [[] for _ in range(op.dim)]   # row i -> (col << shift, v)
        for i, j, v in op.items():
            local[i].append((j << shift, v))
        keep = ~(mask << shift)
        for r, row in enumerate(rows):
            for j, v in local[r >> shift & mask]:
                c = r & keep | j
                row[c] = row.get(c, 0) + v
    out = SparseMatrix(dim)
    for r, row in enumerate(rows):
        row = {c: v for c, v in row.items() if v}
        if row:
            out._rows[r] = row
    return out


def exact_nullspace(M) -> list:
    """Exact basis of the kernel of a rational matrix, by one elimination
    modulo a prime and p-adic lifting (Dixon 1982).

    Each row is scaled by the lcm of its denominators, which keeps the
    kernel and makes the matrix integral.  Elimination runs once modulo a
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
    if isinstance(M, Matrix):
        M = SparseMatrix.from_dense(M)
    rows = _integer_rows(M)
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


def integer_form(*mats: SparseMatrix) -> tuple:
    """([N_1, ..., N_k], d) with M_i = N_i / d, where the N_i are integer
    matrices and d is the lcm of the denominators of every entry of every
    M_i: one common denominator for all of them."""
    keys = [(i, r) for i, M in enumerate(mats) for r in M._rows]
    rows, d = _rows_over_lcm([mats[i]._rows[r] for i, r in keys])
    out = [SparseMatrix(M.dim) for M in mats]
    for (i, r), row in zip(keys, rows):
        out[i]._rows[r] = row
    return out, d


def integer_vector(vec) -> tuple:
    """(ints, d) with vec = ints / d, d the lcm of the denominators of the
    entries (Fraction or int): the vector twin of integer_form."""
    (row,), d = _rows_over_lcm([dict(enumerate(vec))])
    return list(row.values()), d


def _integer_rows(M: SparseMatrix) -> list:
    """Rows of M as {col: int}, each scaled by the lcm of its denominators."""
    return [_rows_over_lcm([M._rows.get(r, {})])[0][0] for r in range(M.dim)]


def _rows_over_lcm(rows) -> tuple:
    """(the rows times d, d), d the lcm of the denominators of all entries of
    the rows ({col: Fraction or int}): the scaled rows hold ints."""
    d = math.lcm(*(v.denominator for row in rows for v in row.values()))
    return [{c: v.numerator * (d // v.denominator) for c, v in row.items()}
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
    """Exact derivative of a matrix-valued rational function at x0, by
    evaluating over dual numbers.  Poles raise PoleError."""
    try:
        M = f(Dual.variable(x0))
    except ZeroDivisionError as exc:
        raise PoleError(f"pole while differentiating at {x0}: {exc}") from exc
    return deriv_matrix(M)


def value_matrix(M: Matrix) -> Matrix:
    """Drop derivative parts, keeping exact values."""
    return M.map(lambda e: e.value if isinstance(e, Dual) else e)


def deriv_matrix(M: Matrix) -> Matrix:
    """Drop values, keeping exact first derivatives (0 for a plain rational)."""
    return M.map(lambda e: e.deriv if isinstance(e, Dual) else Fraction(0))
