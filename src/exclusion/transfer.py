"""Double-row transfer matrices with open boundaries.

t(x) is contracted site by site as a matrix product operator of bond
dimension 4, one auxiliary index for each of its two rows of R factors, so
no operator on the (auxiliary (x) chain) space of dimension 2^(L+1) is
formed.  The contraction runs in integers: each local factor is scaled by
the lcm of its denominators, and t(x) is handed out, and checked, as a
SparseMatrix over the product of those denominators, so no gcd is taken.
With ``derivative`` the factors are the pairs (F, dF/dx) that ``models``
reads off its compiled forms, and t'(x) is carried along by the product
rule.  t(x) carries no prefactor: the homogeneous normalization
1/tr Ktilde(identity) is 1 for every catalogued model.

The checks raise PoleError at a pole, naming the point and the expression
that vanishes there.  A Skipped report means that the model lacks the
structure checked.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import repeat
from operator import add, mul

from . import models as m
from .models import ModelDescriptor
from .tensor import PoleError, SparseMatrix, _block, exact_nullspace, \
    inverse, kron
from .verifier import CheckReport, compare, skipped


class TransferSpec(namedtuple("TransferSpec", "model L thetas")):
    """A model on L sites with one inhomogeneity per site; thetas defaults
    to the identity point at every site and is held as Fractions."""
    __slots__ = ()

    def __new__(cls, model, L, thetas=None):
        if L < 1:
            raise ValueError("L must be >= 1")
        idp = model.identity_point
        thetas = thetas if thetas is not None else (idp,) * L
        thetas = tuple(Fraction(t) for t in thetas)
        if len(thetas) != L:
            raise ValueError("need one inhomogeneity per site")
        return super().__new__(cls, model, L, thetas)

    @property
    def homogeneous(self) -> bool:
        return all(t == self.model.identity_point for t in self.thetas)


def _factor(what, thunk):
    try:
        return thunk()
    except ZeroDivisionError as exc:
        raise PoleError(f"transfer factor {what}: {exc}") from exc


def _local_factors(spec: TransferSpec, x, derivative=False):
    """The 2L+2 factors of t(x) in product order: Ktilde_0, R_0L...R_01,
    K_0, R_10...R_L0, with derivative the pairs (F, dF/dx).  Each is
    evaluated once, as it is drawn, so a pole is reported for the first
    factor in that order that has one."""
    model, conv, L = spec.model, spec.model.convention, spec.L

    def r(arg, t, power):
        # R at x t^power (x + power t for SSEP), or the pair (R, R' t^power)
        F = m.r_matrix(model, arg, derivative)
        if derivative and conv.kind != "additive" and t != 1:
            F = F[0], SparseMatrix([[F[1].get(i, k) * t ** power
                                     for k in range(4)] for i in range(4)])
        return F

    yield _factor("Ktilde_0", lambda: m.k_matrix(model, "Ktilde", x,
                                                 derivative))
    for j, t in zip(range(L, 0, -1), reversed(spec.thetas)):
        arg = conv.compose(x, t)
        yield _factor(f"R_0{j}", lambda: r(arg, t, -1))
    yield _factor("K_0", lambda: m.k_matrix(model, "K", x, derivative))
    for j, t in enumerate(spec.thetas, 1):
        arg = conv.reflect_compose(x, t)
        yield _factor(f"R_{j}0", lambda: r(arg, t, 1))


_BONDS = ((0, 0), (0, 1), (1, 0), (1, 1))   # bond state (p, y), at 2p + y


def _combine(vectors, coefficients) -> list:
    """The int list sum of c v over the pairs (v, c), zero c skipped."""
    acc = None
    for v, c in zip(vectors, coefficients):
        if c:
            term = map(mul, v, repeat(c))
            acc = list(term) if acc is None else list(map(add, acc, term))
    return acc if acc is not None else [0] * len(vectors[0])


def _mul2(a, b) -> tuple:
    """The product of two 2 x 2 matrices held as row-major 4-tuples."""
    return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])


def _site_ops(R, Rh) -> list:
    """ops[b'][2s + u]: the coefficients (r_p'p rhat_yy')[s][u] of one site
    over the bond states b = (p, y), as ints, for each b' = (p', y').  The
    site operator r_p'p rhat_yy' takes R_0j's factor first, with r_ab[s][t]
    = R_0j[2a + s][2b + t] and rhat_ab[t][u] = R_j0[2t + a][2u + b]."""
    r = [[(R[2 * a][2 * b], R[2 * a][2 * b + 1],
           R[2 * a + 1][2 * b], R[2 * a + 1][2 * b + 1]) for b in (0, 1)]
         for a in (0, 1)]
    rh = [[(Rh[a][b], Rh[a][2 + b], Rh[2 + a][b], Rh[2 + a][2 + b])
           for b in (0, 1)] for a in (0, 1)]
    return [list(zip(*[_mul2(r[p2][p], rh[y][y2]) for p, y in _BONDS]))
            for p2, y2 in _BONDS]


def _site(O, ops) -> list:
    """Add one site: entry 4i + 2s + u of the new O[b'] is the sum over b
    of O[b][i] ops[b'][2s + u][b], so that the new site's (s, u) are the
    lowest two bits of the entry index."""
    out = []
    for coefficients in ops:
        o = [0] * (4 * len(O[0]))
        for k in range(4):
            o[k::4] = _combine(O, coefficients[k])
        out.append(o)
    return out


def build_transfer(spec: TransferSpec, x, derivative=False):
    """t(x) = tr_0( Ktilde_0(x) R_0L...R_01 K_0(x) R_10...R_L0 ), and with
    derivative the pair (t(x), t'(x)): SparseMatrix integer tables N / den
    over one den.

    Each factor F is read as a dense int table over its denominator d,
    and den is the product of the d; with derivative the factor is the pair
    (F, F') of matrices, and their two tables are read over the lcm of
    their denominators.  t(x) is then contracted site by site as
    an operator product of bond dimension 4, without forming any operator
    on the 2^(L+1)-dimensional auxiliary (x) chain space.  The bond state
    (p, y) holds the auxiliary index of the R_0j chain and of the R_j0
    chain; O_j[(p, y)] is an operator on sites 1..j, site 1 the most
    significant bit:

        O_0[(p, y)] = K[p][y],
        O_j[(p', y')] = sum over (p, y) of O_{j-1}[(p, y)] (x) r_p'p rhat_yy',
        N = sum over (p, y) of Ktilde[y][p] O_L[(p, y)],

    with r and rhat the 2 x 2 blocks of R_0j and R_j0 (``_site_ops``).  With
    derivative the pair (O, O') is carried by the product rule."""
    L = spec.L
    factors, den = [], 1
    for F in _local_factors(spec, x, derivative):
        parts = F if derivative else (F,)
        d = math.lcm(*(P.den for P in parts))
        factors.append([_table(P, d // P.den) for P in parts])
        den *= d
    Kt, K = factors[0], factors[L + 1]
    O = [[K[0][p][y]] for p, y in _BONDS]
    if derivative:
        Od = [[K[1][p][y]] for p, y in _BONDS]
    for R, Rh in zip(factors[L:0:-1], factors[L + 2:]):
        ops = _site_ops(R[0], Rh[0])
        if derivative:
            # (O r rhat)' = O' r rhat + O r' rhat + O r rhat'
            terms = (ops, _site_ops(R[1], Rh[0]), _site_ops(R[0], Rh[1]))
            Od = _site(Od + O + O, [[sum(by_k, ()) for by_k in zip(*by_b2)]
                                    for by_b2 in zip(*terms)])
        O = _site(O, ops)
    close = [Kt[0][y][p] for p, y in _BONDS]
    flat = [_combine(O, close)]
    if derivative:
        flat.append(_combine(Od + O, close + [Kt[1][y][p] for p, y in _BONDS]))
    # site j's (s, u) are bits 2(L - j) + 1 and 2(L - j) of a flat table's
    # entry index; its row is s_1...s_L and its column u_1...u_L
    rows, cols = [0], [0]
    for _ in range(L):
        rows = [2 * r + s for r in rows for s in (0, 0, 1, 1)]
        cols = [2 * c + u for c in cols for u in (0, 1, 0, 1)]
    out = []
    for table in flat:
        N = {}
        for r, c, v in zip(rows, cols, table):
            if v:
                N.setdefault(r, {})[c] = v
        out.append(SparseMatrix._over((1 << L, 1 << L), N, den))
    return tuple(out) if derivative else out[0]


def _table(P: SparseMatrix, f: int) -> list:
    """The int rows of P times f, as dense lists."""
    n, k = P.shape
    out = [[0] * k for _ in range(n)]
    for r, row in P._rows.items():
        for c, v in row.items():
            out[r][c] = v * f
    return out


def check_commutation(spec: TransferSpec, x, x2) -> CheckReport:
    """[t(x), t(x2)] = 0: both products are integer tables over the same
    denominator, compared row by row."""
    t1, t2 = build_transfer(spec, x), build_transfer(spec, x2)
    return compare(spec.model, "transfer.commutation", (x, x2),
                   t1 * t2, t2 * t1)


def markov_from_transfer(model: ModelDescriptor, L: int) -> CheckReport:
    """(1/2 rho) t'(identity) = M, with t the homogeneous transfer matrix,
    differentiated exactly: its factors are pairs (F, F') read off the
    compiled forms of R and K."""
    from .markov import build_markov
    idp = model.identity_point
    _, dt = build_transfer(TransferSpec(model, L), idp, derivative=True)
    return compare(model, "transfer.markov_derivative", (idp,),
                   dt.scale(1 / (2 * model.rho)), build_markov(model, L))


def lambda_eigenvalue(model: ModelDescriptor, x, thetas) -> Fraction:
    """Closed-form transfer eigenvalue on the matrix-ansatz eigenvector.
    A pole of the closed form (such as x = 1/q for ASEP) raises PoleError."""
    thetas = [Fraction(t) for t in thetas]
    try:
        return _lambda_closed_form(model, x, thetas)
    except ZeroDivisionError as exc:
        raise PoleError(f"eigenvalue lambda has a pole at x={x}") from exc


def _lambda_closed_form(model: ModelDescriptor, x, thetas) -> Fraction:
    # the left boundary factor, and the right one: the left at the mirror
    (nr, dr), (nl, dl) = (m.boundary_factor(m.mirror(model), x),
                          m.boundary_factor(model, x))
    prod = Fraction(1)
    if model.name == m.SSEP:
        for t in thetas:
            prod *= (x * x - t * t) / ((x + 1) ** 2 - t * t)
        return 1 + nr / dr * (nl / dl) * x / (x + 1) * prod
    q = model.q
    for t in thetas:
        prod *= (x - t) * (x * t - 1) / ((q * x - t) * (q * x * t - 1))
    return 1 + nr / dr * (nl / dl) * q ** (len(thetas) - 1) * \
        (x * x - 1) / (q * q * x * x - 1) * prod


def check_eigenpair(spec: TransferSpec, x, vector, side: str = "right",
                    eigenvalue=None) -> CheckReport:
    """t(x) v = lambda v (right) or v^T t(x) = lambda v^T (left), exactly.
    v is a 1 x 2^L row, and the two sides are v t(x)^T or v t(x), and
    lambda v."""
    model = spec.model
    if not any(vector):
        raise ValueError("eigenvector must be nonzero")
    lam = eigenvalue if eigenvalue is not None else \
        lambda_eigenvalue(model, x, spec.thetas)
    t = build_transfer(spec, x)
    v = SparseMatrix([vector])
    got = v * t.transpose() if side == "right" else v * t
    return compare(model, f"transfer.eigen_{side}", (x,), got, v.scale(lam))


def left_eigen_ones(spec: TransferSpec, x) -> CheckReport:
    ones = [Fraction(1)] * (1 << spec.L)
    return check_eigenpair(spec, x, ones, side="left")


def eigenvector_from_nullspace(spec: TransferSpec, x0) -> list:
    """Exact right eigenvector of t: the stationary state of the generator
    for a homogeneous chain, else the kernel of t(x0) - lambda(x0) I.
    Commutation makes it x-independent."""
    if spec.homogeneous:
        from .markov import build_markov, steady_state_exact
        return steady_state_exact(build_markov(spec.model, spec.L)) \
            .probabilities()
    lam = lambda_eigenvalue(spec.model, x0, spec.thetas)
    t = build_transfer(spec, x0)
    kernel = exact_nullspace(t - SparseMatrix.identity(t.dim).scale(lam))
    if len(kernel) != 1:
        raise ValueError(f"eigen-kernel dimension {len(kernel)} != 1 at x={x0}")
    return kernel[0]


def check_right_eigenvector(spec: TransferSpec, x, x0) -> CheckReport:
    """t(x) v = lambda(x) v for v = eigenvector_from_nullspace(spec, x0)."""
    return check_eigenpair(spec, x, eigenvector_from_nullspace(spec, x0))


def check_rd_inhomogeneous_eigenvector(spec: TransferSpec) -> list:
    """t(theta_j) S = S and t(1/theta_j) S = S, exactly, for the RD
    inhomogeneous ansatz state S."""
    if spec.model.name != m.RD:
        raise m.UnsupportedError("inhomogeneous-eigenvector is the RD check")
    from .ansatz import inhomogeneous_state
    state = inhomogeneous_state(spec.model, spec.thetas)
    return [check_eigenpair(spec, x, state, eigenvalue=Fraction(1))
            for theta in spec.thetas for x in (theta, 1 / theta)]


def check_crossing_symmetry_t(spec: TransferSpec, x) -> CheckReport:
    """SSEP: t(x) = (lambda(x)-1) t(-x-1); ASEP: t(x) = (lambda(x)-1) t(1/qx)."""
    model = spec.model
    if model.name not in (m.SSEP, m.ASEP):
        return skipped(model, "transfer.crossing", (x,),
                       "no crossing relation for this model")
    lam = lambda_eigenvalue(model, x, spec.thetas)
    if model.name == m.SSEP:
        partner = -x - 1
    else:
        partner = 1 / m._nonzero(model.q * x,
                                 "q*x in the crossing partner 1/(q*x)", x)
    t1, t2 = build_transfer(spec, x), build_transfer(spec, partner)
    return compare(model, "transfer.crossing", (x,), t1, t2.scale(lam - 1))


def ssep_conjugated(spec: TransferSpec, x) -> list:
    """Conjugation by Gamma = [[-1, beta], [1, delta]] per site: triangular
    D(x), diagonal Dtilde(x), and the all-down matrix element of the
    conjugated transfer matrix."""
    model = spec.model
    if model.name != m.SSEP:
        return [skipped(model, "conjugated.ssep", (x,), "SSEP only")]
    al, be, ga, de = model.alpha, model.beta, model.gamma, model.delta
    if be + de == 0:
        raise ValueError("Gamma is singular: beta + delta = 0")
    Gam = SparseMatrix([[-1, be], [1, de]])
    Gi = inverse(Gam)

    # K and Ktilde first: they raise, naming the expression, at the poles
    # of the closed forms of D and Dtilde
    got = Gi * m.k_matrix(model, "K", x) * Gam
    d = x * (al + ga) + 1
    want = SparseMatrix([[-(x * (al + ga) - 1) / d,
                          2 * x * (al * be - de * ga) / d], [0, 1]])
    out = [compare(model, "conjugated.D", (x,), got, want)]

    got = Gi * m.k_matrix(model, "Ktilde", x) * Gam
    pre = (2 * x + 1) / (2 * (x + 1) * (x * (de + be) + 1))
    want = SparseMatrix([[pre * (-(x + 1) * (be + de) + 1), 0],
                         [0, pre * ((x + 1) * (be + de) + 1)]])
    out.append(compare(model, "conjugated.Dtilde", (x,), got, want))

    # <-| ts(x) |-> with |-> the all-occupied basis vector: contract t
    # against the conjugated boundary row and column, the L-fold kron of
    # row 1 of Gamma^-1 and of column 1 of Gamma, instead of conjugating t.
    t = build_transfer(spec, x)
    row = col = SparseMatrix.identity(1)
    for _ in range(spec.L):
        row, col = kron(row, _block(Gi, 1, 0, 1, 2)), \
            kron(col, _block(Gam, 0, 1, 2, 1))
    lam = SparseMatrix([[lambda_eigenvalue(model, x, spec.thetas)]])
    out.append(compare(model, "conjugated.scalar", (x,), row * t * col, lam))
    return out
