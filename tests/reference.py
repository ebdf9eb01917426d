"""Oracles that only the tests use: the entry-by-entry Fraction product,
Kronecker product and partial transpose that the integer tables of
``tensor.Matrix`` are checked against, the dense embedding, built from
``kron`` and a slot permutation, that ``tensor.embed_at_positions`` is
checked against, the embed-and-multiply products, over Fraction or Dual
entries held as {row: {col: entry}}, that ``transfer.build_transfer`` and
the coproduct of ``MonodromyRealization.components`` are checked against,
and the RD current balance of ``ansatz.rd_closed_forms``."""

from fractions import Fraction

import exclusion.models as m
from exclusion.ansatz import rd_closed_forms
from exclusion.tensor import Matrix, SparseMatrix, kron


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


def dense(M: SparseMatrix) -> Matrix:
    """M as a dense Matrix."""
    out = Matrix.zeros(M.dim, M.dim)
    for r, c, v in M.items():
        out.a[r][c] = v
    return out


def embed_dense(op: Matrix, positions, length: int) -> Matrix:
    """op on the 0-indexed slots ``positions`` of (C^2)^(x length), its legs
    in the order of ``positions``, identity elsewhere: kron(op, I) acts on
    the leading slots, and the permutation P sending slot t to the t-th of
    positions + (the other slots, ascending) puts it in place, P kron(op, I)
    P^T.  P e_a = e_b(a), so entry (a, a') of kron(op, I) lands at
    (b(a), b(a'))."""
    k = len(positions)
    if op.rows != 1 << k or len(set(positions)) != k or \
            not all(0 <= p < length for p in positions):
        raise ValueError(f"{op.rows}x{op.rows} operator at slots {positions} "
                         f"of {length}")
    order = list(positions) + [p for p in range(length) if p not in positions]
    dim = 1 << length
    b = [sum(((a >> (length - 1 - t)) & 1) << (length - 1 - slot)
             for t, slot in enumerate(order)) for a in range(dim)]
    out = Matrix.zeros(dim, dim)
    for a, row in enumerate(kron(op, Matrix.identity(dim >> k)).a):
        for a2, entry in enumerate(row):
            out.a[b[a]][b[a2]] = entry
    return out


def embed_local(op: Matrix, first_site: int, length: int) -> SparseMatrix:
    """Embed an operator on adjacent sites from first_site on; sites are
    1-indexed, site 1 being the most significant bit."""
    k = op.rows.bit_length() - 1
    return SparseMatrix.from_dense(
        embed_dense(op, range(first_site - 1, first_site - 1 + k), length))


def embed_rows(op: Matrix, positions, length: int) -> dict:
    """op on the 0-indexed slots ``positions`` of (C^2)^(x length), its legs
    in the order of ``positions``, identity elsewhere, as {row: {col:
    entry}} over its entries (Fraction or Dual) as they are: entry (a, b) is
    op[i][j] where a and b agree off the slots, i and j their slot bits."""
    shifts = [length - 1 - p for p in positions]
    mask = sum(1 << s for s in shifts)

    def local(a):
        return sum((a >> s & 1) << (len(shifts) - 1 - t)
                   for t, s in enumerate(shifts))

    out = {}
    for a in range(1 << length):
        row = {b: op.a[local(a)][local(b)] for b in range(1 << length)
               if not (a ^ b) & ~mask and op.a[local(a)][local(b)]}
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


def _entry(rows: dict, r: int, c: int):
    return rows.get(r, {}).get(c, 0)


def transfer_factors(spec, x) -> list:
    """(positions, matrix) of the 2L + 2 factors of t(x), in product order,
    slot 0 the auxiliary space."""
    model, conv, L = spec.model, spec.model.convention, spec.L
    factors = [((0,), m.k_matrix(model, "Ktilde", x))]
    factors += [((0, j), m.r_matrix(model, conv.compose(x, spec.thetas[j - 1])))
                for j in range(L, 0, -1)]
    factors.append(((0,), m.k_matrix(model, "K", x)))
    factors += [((j, 0), m.r_matrix(model,
                                    conv.reflect_compose(x, spec.thetas[j - 1])))
                for j in range(1, L + 1)]
    return factors


def transfer_product(spec, x) -> Matrix:
    """t(x) as the ordered product of the embedded factors over Fraction (or
    Dual) entries, traced over the auxiliary space: no integer assembly."""
    acc = None
    for positions, f in transfer_factors(spec, x):
        f = embed_rows(f, positions, spec.L + 1)
        acc = f if acc is None else rows_product(acc, f)
    half = 1 << spec.L
    return Matrix([[_entry(acc, j, l) + _entry(acc, half + j, half + l)
                    for l in range(half)] for j in range(half)])


def monodromy_components(model, inner_length: int, x) -> list:
    """(A_0(x), A_1(x)) with A_i = sum over k of T_ik(x) v_k(x), T = R_0L'
    ... R_01 the monodromy matrix multiplied out on the auxiliary (x) inner
    chain space (slot 0 the auxiliary one), over Fraction (or Dual)
    entries, and cut into its 2 x 2 blocks of inner-chain operators."""
    n = inner_length + 1
    acc = None
    for j in range(inner_length, 0, -1):
        f = embed_rows(m.r_matrix(model, x), (0, j), n)
        acc = f if acc is None else rows_product(acc, f)
    half = 1 << inner_length
    v = m.markov_vector(model, x)
    return [Matrix([[_entry(acc, i * half + r, c) * v[0] +
                     _entry(acc, i * half + r, half + c) * v[1]
                     for c in range(half)] for r in range(half)])
            for i in (0, 1)]


def rd_current_balance(kappa, alpha, beta, gamma, delta, L: int, i: int) -> Fraction:
    """J^lat_{i-1->i} - J^lat_{i->i+1} - J^eva_{i-1,i} - J^eva_{i,i+1};
    zero in the stationary state."""
    if not 2 <= i <= L - 1:
        raise ValueError("interior site required")
    left = rd_closed_forms(kappa, alpha, beta, gamma, delta, L, i - 1)
    right = rd_closed_forms(kappa, alpha, beta, gamma, delta, L, i)
    return left["current_lat"] - right["current_lat"] \
        - left["current_eva"] - right["current_eva"]
