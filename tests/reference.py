"""Oracles that only the tests use: the entry-by-entry Fraction product,
Kronecker product and partial transpose that the int rows of
``tensor.SparseMatrix`` are checked against, the dense embedding, op (x) I
entry by entry and a slot permutation, that ``tensor.embed_at_positions``
is checked against, dual numbers, on which the closed-form rows of R and K
give the derivative pairs of the compiled forms' oracle, the
embed-and-multiply products and sums, over Fraction or Dual entries held
as {row: {col: entry}}, that ``transfer.build_transfer``, the coproduct of
``MonodromyRealization.components``, the Yang-Baxter sides and the RD
letters are checked against, and the RD current balance of
``ansatz.rd_closed_forms``.  Dual is used in this module only."""

from fractions import Fraction

import exclusion.models as m
from exclusion.ansatz import rd_closed_forms
from exclusion.tensor import SparseMatrix


class Dual:
    """Rational value plus first derivative: (a, a')(b, b') = (ab, a'b +
    ab').  A division by a Dual whose value part is 0 raises
    ZeroDivisionError."""

    __slots__ = ("value", "deriv")

    def __init__(self, value, deriv=0):
        self.value = Fraction(value)
        self.deriv = Fraction(deriv)

    @staticmethod
    def _lift(other):
        return other if isinstance(other, Dual) else Dual(other)

    def __add__(self, other):
        o = self._lift(other)
        return Dual(self.value + o.value, self.deriv + o.deriv)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.value, -self.deriv)

    def __sub__(self, other):
        return self + -self._lift(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._lift(other)
        return Dual(self.value * o.value,
                    self.deriv * o.value + self.value * o.deriv)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o.value == 0:
            raise ZeroDivisionError("dual division by zero value part")
        v = self.value / o.value
        return Dual(v, (self.deriv - v * o.deriv) / o.value)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __pow__(self, n: int):
        out = Dual(1)
        for _ in range(n):
            out = out * self
        return out

    def __bool__(self):
        return self.value != 0 or self.deriv != 0


def dual_parts(f, x0) -> tuple:
    """(f(x0), f'(x0)) for a scalar rational function f, read from f at the
    dual point x0 + eps."""
    out = Dual._lift(f(Dual(x0, 1)))
    return out.value, out.deriv


def fraction_product(a, b) -> list:
    """The rows of a b, a and b lists of rows of Fractions: one Fraction
    sum of Fraction products per entry."""
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in zip(*b)] for row in a]


def fraction_kron(a, b) -> list:
    """The rows of a (x) b, entry (i k, j l) the product a[i][j] b[k][l]
    of two entries (Fraction or Dual) as they are."""
    out = [[Fraction(0)] * (len(a[0]) * len(b[0]))
           for _ in range(len(a) * len(b))]
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            for k, brow in enumerate(b):
                for l, y in enumerate(brow):
                    out[i * len(b) + k][j * len(b[0]) + l] = x * y
    return out


def fraction_partial_transpose(a, leg: int) -> list:
    """The rows of a 4 x 4 two-site operator with one tensor leg
    transposed, entry by entry."""
    out = [[None] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    if leg == 1:
                        out[2 * k + j][2 * i + l] = a[2 * i + j][2 * k + l]
                    else:
                        out[2 * i + l][2 * k + j] = a[2 * i + j][2 * k + l]
    return out


def entries(M: SparseMatrix) -> list:
    """M's entries as rows of Fractions, read one by one through get."""
    rows, cols = M.shape
    return [[M.get(r, c) for c in range(cols)] for r in range(rows)]


def embed_dense(op: SparseMatrix, positions, length: int) -> SparseMatrix:
    """op on the 0-indexed slots ``positions`` of (C^2)^(x length), its legs
    in the order of ``positions``, identity elsewhere: op (x) I, whose entry
    (i m + t, j m + t) is op[i][j] for each t < m, acts on the leading
    slots, and the permutation P sending slot t to the t-th of positions +
    (the other slots, ascending) puts it in place, P (op (x) I) P^T.  P e_a
    = e_b(a), so entry (a, a') of op (x) I lands at (b(a), b(a'))."""
    k = len(positions)
    if op.shape != (1 << k, 1 << k) or len(set(positions)) != k or \
            not all(0 <= p < length for p in positions):
        raise ValueError("{}x{} operator at slots {} of {}".format(
            *op.shape, positions, length))
    order = list(positions) + [p for p in range(length) if p not in positions]
    dim = 1 << length
    b = [sum(((a >> (length - 1 - t)) & 1) << (length - 1 - slot)
             for t, slot in enumerate(order)) for a in range(dim)]
    m = dim >> k
    rows = [[0] * dim for _ in range(dim)]
    for i, j, v in op.items():
        for t in range(m):
            rows[b[i * m + t]][b[j * m + t]] = v
    return SparseMatrix(rows)


def embed_local(op: SparseMatrix, first_site: int,
                length: int) -> SparseMatrix:
    """Embed an operator on adjacent sites from first_site on; sites are
    1-indexed, site 1 being the most significant bit."""
    k = op.shape[0].bit_length() - 1
    return embed_dense(op, range(first_site - 1, first_site - 1 + k), length)


def embed_rows(op: list, positions, length: int) -> dict:
    """The operator with the rows op on the 0-indexed slots ``positions`` of
    (C^2)^(x length), its legs in the order of ``positions``, identity
    elsewhere, as {row: {col: entry}} over its entries (Fraction or Dual)
    as they are: entry (a, b) is op[i][j] where a and b agree off the
    slots, i and j their slot bits."""
    shifts = [length - 1 - p for p in positions]
    mask = sum(1 << s for s in shifts)

    def local(a):
        return sum((a >> s & 1) << (len(shifts) - 1 - t)
                   for t, s in enumerate(shifts))

    out = {}
    for a in range(1 << length):
        row = {b: op[local(a)][local(b)] for b in range(1 << length)
               if not (a ^ b) & ~mask and op[local(a)][local(b)]}
        if row:
            out[a] = row
    return out


def rows_product(a: dict, b: dict) -> dict:
    """The product of two operators held as {row: {col: entry}}, one sum
    of entry products (Fraction or Dual) per entry, zeros dropped."""
    out = {}
    for r, row in a.items():
        acc = {}
        for k, v in row.items():
            for c, w in b.get(k, {}).items():
                acc[c] = acc.get(c, 0) + v * w
        acc = {c: v for c, v in acc.items() if v}
        if acc:
            out[r] = acc
    return out


def rows_sum(terms) -> dict:
    """The sum of c a over the (c, a) pairs, each a held as {row: {col:
    entry}}: one Fraction sum per entry, zeros dropped."""
    out = {}
    for c, a in terms:
        for r, row in a.items():
            acc = out.setdefault(r, {})
            for k, v in row.items():
                acc[k] = acc.get(k, 0) + c * v
    return {r: kept for r, row in out.items()
            if (kept := {k: v for k, v in row.items() if v})}


def rows_apply(a: dict, v) -> list:
    """a v for a square operator held as {row: {col: entry}}."""
    return [sum((x * v[c] for c, x in a.get(r, {}).items()), Fraction(0))
            for r in range(len(v))]


def rows_apply_left(a: dict, v) -> list:
    """v^T a, the same way."""
    out = [Fraction(0)] * len(v)
    for r, row in a.items():
        for c, x in row.items():
            out[c] += v[r] * x
    return out


def sparse_rows(M: SparseMatrix) -> dict:
    """M's entries as {row: {col: Fraction}}, read through items."""
    out = {}
    for r, c, v in M.items():
        out.setdefault(r, {})[c] = v
    return out


def entry(rows: dict, r: int, c: int):
    return rows.get(r, {}).get(c, 0)


def closed_rows(model, kind: str, x) -> list:
    """The rows of R (kind "R") or of K, Kbar or Ktilde at x, straight from
    the closed forms of ``models``: Fraction entries at a rational x, Dual
    entries (constants left as Fractions) at a Dual x."""
    return (m._r_matrix if kind == "R" else m._K_FORMS[kind])(model, x)


def twisted_k_rows(model, tau, x) -> list:
    """The rows of the ASEP K at the model's alpha, gamma and q twisted by
    tau, [[a, b / tau], [tau c, d]], from the closed form."""
    base = model._replace(beta=Fraction(1), delta=Fraction(0))
    (a, b), (c, d) = closed_rows(base, "K", x)
    return [[a, b / tau], [tau * c, d]]


def split(rows) -> tuple:
    """(values, derivatives): the rows of the two parts of rows of Fraction
    or Dual entries, entry by entry, a plain rational having derivative 0."""
    return ([[e.value if isinstance(e, Dual) else e for e in row]
             for row in rows],
            [[e.deriv if isinstance(e, Dual) else 0 for e in row]
             for row in rows])


def rows_at(rows_of, x0, derivative=False):
    """rows_of(x0), a function's rows of entries, as a SparseMatrix; with
    derivative the pair (M(x0), M'(x0)) of the rows at the dual point
    x0 + eps, split entry by entry.  A pole raises ZeroDivisionError."""
    if derivative:
        return tuple(map(SparseMatrix, split(rows_of(Dual(x0, 1)))))
    return SparseMatrix(rows_of(x0))


def _entries(model, kind: str, x) -> list:
    """The rows of R or K of kind at x: the entries of the package's matrix
    at a rational x, so that a test's stand-in for it is seen, and the
    closed-form rows, Dual entries included, at a Dual x."""
    if isinstance(x, Dual):
        return closed_rows(model, kind, x)
    return entries(m.r_matrix(model, x) if kind == "R"
                   else m.k_matrix(model, kind, x))


def transfer_factors(spec, x, derivative=False) -> list:
    """(positions, rows) of the 2L + 2 factors of t(x), in product order,
    slot 0 the auxiliary space; with derivative their rows at the dual
    point x + eps."""
    model, conv, L = spec.model, spec.model.convention, spec.L
    x = Dual(x, 1) if derivative else x
    factors = [((0,), _entries(model, "Ktilde", x))]
    factors += [((0, j), _entries(model, "R",
                                  conv.compose(x, spec.thetas[j - 1])))
                for j in range(L, 0, -1)]
    factors.append(((0,), _entries(model, "K", x)))
    factors += [((j, 0), _entries(
        model, "R", conv.reflect_compose(x, spec.thetas[j - 1])))
        for j in range(1, L + 1)]
    return factors


def transfer_product(spec, x, derivative=False):
    """t(x) as the ordered product of the embedded factors over Fraction
    entries, traced over the auxiliary space: no integer assembly.  A
    SparseMatrix, or with derivative the pair (t, t') of the product over
    Dual entries at x + eps, split entry by entry."""
    acc = None
    for positions, f in transfer_factors(spec, x, derivative):
        f = embed_rows(f, positions, spec.L + 1)
        acc = f if acc is None else rows_product(acc, f)
    half = 1 << spec.L
    t = [[entry(acc, j, l) + entry(acc, half + j, half + l)
          for l in range(half)] for j in range(half)]
    return tuple(map(SparseMatrix, split(t))) if derivative \
        else SparseMatrix(t)


def monodromy_components(model, inner_length: int, x, derivative=False):
    """(A_0(x), A_1(x)) with A_i = sum over k of T_ik(x) v_k(x), T = R_0L'
    ... R_01 the monodromy matrix multiplied out on the auxiliary (x) inner
    chain space (slot 0 the auxiliary one), over Fraction entries, and cut
    into its 2 x 2 blocks of inner-chain operators.  With derivative the
    pair ((A_0, A_1), (A_0', A_1')) of the product over Dual entries at
    x + eps, split entry by entry."""
    x = Dual(x, 1) if derivative else x
    n = inner_length + 1
    acc = None
    for j in range(inner_length, 0, -1):
        f = embed_rows(_entries(model, "R", x), (0, j), n)
        acc = f if acc is None else rows_product(acc, f)
    half = 1 << inner_length
    v = m.markov_vector(model, x)
    out = [[[entry(acc, i * half + r, c) * v[0] +
             entry(acc, i * half + r, half + c) * v[1]
             for c in range(half)] for r in range(half)] for i in (0, 1)]
    if derivative:
        return tuple([SparseMatrix(split(A)[k]) for A in out]
                     for k in (0, 1))
    return [SparseMatrix(A) for A in out]


def rd_current_balance(kappa, alpha, beta, gamma, delta, L: int, i: int) -> Fraction:
    """J^lat_{i-1->i} - J^lat_{i->i+1} - J^eva_{i-1,i} - J^eva_{i,i+1};
    zero in the stationary state."""
    if not 2 <= i <= L - 1:
        raise ValueError("interior site required")
    left = rd_closed_forms(kappa, alpha, beta, gamma, delta, L, i - 1)
    right = rd_closed_forms(kappa, alpha, beta, gamma, delta, L, i)
    return left["current_lat"] - right["current_lat"] \
        - left["current_eva"] - right["current_eva"]
