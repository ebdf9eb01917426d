"""Double-row transfer matrices with open boundaries.

t(x) is assembled as an ordered sparse product on the (auxiliary (x) chain)
space of dimension 2^(L+1) and then traced over the auxiliary factor.  The
product runs in integers: each local factor is scaled by the lcm of its
denominators, and t(x) is handed out, and checked, as an integer table over
the product of those denominators, so no gcd is taken.  t(x) carries no
prefactor: the homogeneous normalization 1/tr Ktilde(identity) is 1 for
every catalogued model.

The checks raise PoleError at a pole, naming the point and the expression
that vanishes there.  A Skipped report means that the model lacks the
structure checked.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import models as m
from .ansatz import CAP, rd_inhomogeneous_converged
from .markov import build_markov, integer_markov, steady_state_exact
from .models import ModelDescriptor
from .scalars import Dual
from .tensor import Matrix, PoleError, SparseMatrix, deriv_matrix, \
    embed_at_positions, exact_nullspace, integer_form, integer_vector, \
    inverse, partial_trace_first, value_matrix
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


def _local_factors(spec: TransferSpec, x):
    """(tensor positions, matrix) of the 2L+2 factors of t(x) in product
    order.  Each is evaluated once, as it is drawn, so a pole is reported
    for the first factor in that order that has one."""
    model, conv, L = spec.model, spec.model.convention, spec.L
    yield (0,), _factor("Ktilde_0", lambda: m.k_matrix(model, "Ktilde", x))
    for j in range(L, 0, -1):
        arg = conv.compose(x, spec.thetas[j - 1])
        yield (0, j), _factor(f"R_0{j}", lambda: m.r_matrix(model, arg))
    yield (0,), _factor("K_0", lambda: m.k_matrix(model, "K", x))
    for j in range(1, L + 1):
        arg = conv.reflect_compose(x, spec.thetas[j - 1])
        yield (j, 0), _factor(f"R_{j}0", lambda: m.r_matrix(model, arg))


def build_transfer(spec: TransferSpec, x) -> tuple:
    """t(x) = tr_0( Ktilde_0(x) R_0L...R_01 K_0(x) R_10...R_L0 ) as integer
    tables over one denominator, the form ``integer_form`` gives: ([N], den)
    with t(x) = N / den, and at a Dual point x ([N, N'], den) with also
    t'(x) = N' / den.

    Each factor F is scaled to integers by the lcm d of its denominators and
    embedded; the embedded factors are multiplied and the auxiliary space is
    traced out in integers, and den is the product of the d.  At a Dual
    point every factor F0 + eps F1 becomes two integer tables over one d,
    and the pair (A, A') <- (A F0, A' F0 + A F1) is carried."""
    dual = isinstance(x, Dual)
    n = spec.L + 1  # tensor factor 0 is the auxiliary space
    acc, den = None, 1
    for positions, F in _local_factors(spec, x):
        tables = [value_matrix(F), deriv_matrix(F)] if dual else [F]
        ints, d = integer_form(*map(SparseMatrix.from_dense, tables))
        f = [embed_at_positions(t, positions, n) for t in ints]
        den *= d
        if acc is None:
            acc = f
        elif dual:
            acc = [acc[0] * f[0], acc[1] * f[0] + acc[0] * f[1]]
        else:
            acc = [acc[0] * f[0]]
    return [partial_trace_first(a) for a in acc], den


def check_commutation(spec: TransferSpec, x, x2) -> CheckReport:
    """[t(x), t(x2)] = 0: both products are taken in integers, over the
    denominators d1, d2 of t(x), t(x2), and compared over d1 d2."""
    (t1,), d1 = build_transfer(spec, x)
    (t2,), d2 = build_transfer(spec, x2)
    return compare(spec.model, "transfer.commutation", (x, x2),
                   t1 * t2, t2 * t1, d1 * d2)


def markov_from_transfer(model: ModelDescriptor, L: int) -> CheckReport:
    """(1/2 rho) t'(identity) = M, with t the homogeneous transfer matrix,
    differentiated exactly over dual numbers."""
    idp = model.identity_point
    (_, dt), den = build_transfer(TransferSpec(model, L), Dual.variable(idp))
    return compare(model, "transfer.markov_derivative", (idp,),
                   dt.scale(1 / (2 * model.rho * den)), build_markov(model, L))


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
                    eigenvalue=None,
                    tolerance: Fraction | None = None) -> CheckReport:
    """t(x) v = lambda v (right) or v^T t(x) = lambda v^T (left), exactly,
    or within a relative residual when a tolerance is given.  The product
    is taken in integers, over the denominators of t(x) and v."""
    model = spec.model
    if not any(vector):
        raise ValueError("eigenvector must be nonzero")
    lam = eigenvalue if eigenvalue is not None else \
        lambda_eigenvalue(model, x, spec.thetas)
    (ti,), d = build_transfer(spec, x)
    vi, e = integer_vector(vector)
    got = ti.apply(vi) if side == "right" else ti.apply_left(vi)
    got = [Fraction(g, d * e) for g in got]
    want = [lam * v for v in vector]
    if tolerance is not None:
        # entries within the relative residual count as equal
        bound = tolerance * max(abs(v) for v in vector)
        want = [g if abs(g - w) <= bound else w for g, w in zip(got, want)]
    return compare(model, f"transfer.eigen_{side}", (x,), got, want)


def left_eigen_ones(spec: TransferSpec, x) -> CheckReport:
    ones = [Fraction(1)] * (1 << spec.L)
    return check_eigenpair(spec, x, ones, side="left")


def eigenvector_from_nullspace(spec: TransferSpec, x0) -> list:
    """Exact right eigenvector of t: the stationary state of the generator
    for a homogeneous chain, else the kernel of t(x0) - lambda(x0) I, taken
    as that of N - lambda(x0) den I for t(x0) = N / den.  Commutation makes
    it x-independent."""
    if spec.homogeneous:
        return steady_state_exact(integer_markov(spec.model, spec.L)[0]) \
            .probabilities()
    lam = lambda_eigenvalue(spec.model, x0, spec.thetas)
    (t,), den = build_transfer(spec, x0)
    shift = SparseMatrix.identity(t.dim).scale(-lam * den)
    kernel = exact_nullspace(t + shift)
    if len(kernel) != 1:
        raise ValueError(f"eigen-kernel dimension {len(kernel)} != 1 at x={x0}")
    return kernel[0]


def check_right_eigenvector(spec: TransferSpec, x, x0) -> CheckReport:
    """t(x) v = lambda(x) v for v = eigenvector_from_nullspace(spec, x0)."""
    return check_eigenpair(spec, x, eigenvector_from_nullspace(spec, x0))


def check_rd_inhomogeneous_eigenvector(spec: TransferSpec,
                                       cap: int = CAP) -> list:
    """t(theta_j) S = S and t(1/theta_j) S = S, each within relative 1e-10,
    for the RD inhomogeneous ansatz state S that the truncation loop
    converges to."""
    if spec.model.name != m.RD:
        raise m.UnsupportedError("inhomogeneous-eigenvector is the RD check")
    state, _ = rd_inhomogeneous_converged(spec.model, spec.thetas, cap=cap)
    tol = Fraction(1, 10 ** 10)
    return [check_eigenpair(spec, x, state, eigenvalue=Fraction(1),
                            tolerance=tol)
            for theta in spec.thetas for x in (theta, 1 / theta)]


def check_crossing_symmetry_t(spec: TransferSpec, x) -> CheckReport:
    """SSEP: t(x) = (lambda(x)-1) t(-x-1); ASEP: t(x) = (lambda(x)-1) t(1/qx).
    With t(x) = N1 / d1, t(partner) = N2 / d2 and lambda(x) - 1 = a / b,
    N1 d2 b and N2 d1 a are compared over d1 d2 b."""
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
    (t1,), d1 = build_transfer(spec, x)
    (t2,), d2 = build_transfer(spec, partner)
    a, b = (lam - 1).numerator, (lam - 1).denominator
    return compare(model, "transfer.crossing", (x,), t1.scale(d2 * b),
                   t2.scale(d1 * a), d1 * d2 * b)


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
    Gam = Matrix([[Fraction(-1), be], [Fraction(1), de]])
    Gi = inverse(Gam)

    # K and Ktilde first: they raise, naming the expression, at the poles
    # of the closed forms of D and Dtilde
    got = Gi * m.k_matrix(model, "K", x) * Gam
    d = x * (al + ga) + 1
    want = Matrix([[-(x * (al + ga) - 1) / d, 2 * x * (al * be - de * ga) / d],
                   [Fraction(0), Fraction(1)]])
    out = [compare(model, "conjugated.D", (x,), got, want)]

    got = Gi * m.k_matrix(model, "Ktilde", x) * Gam
    pre = (2 * x + 1) / (2 * (x + 1) * (x * (de + be) + 1))
    want = Matrix([[pre * (-(x + 1) * (be + de) + 1), Fraction(0)],
                   [Fraction(0), pre * ((x + 1) * (be + de) + 1)]])
    out.append(compare(model, "conjugated.Dtilde", (x,), got, want))

    # <-| ts(x) |-> with |-> the all-occupied basis vector: contract t
    # against the conjugated boundary vectors instead of conjugating t.
    (t,), den = build_transfer(spec, x)
    row = [Fraction(1)]
    col = [Fraction(1)]
    for _ in range(spec.L):
        row = [r * g for r in row for g in (Gi.a[1][0], Gi.a[1][1])]
        col = [c * g for c in col for g in (Gam.a[0][1], Gam.a[1][1])]
    tcol = t.apply(col)
    got = sum(r * v for r, v in zip(row, tcol)) / den
    out.append(compare(model, "conjugated.scalar", (x,),
                       [got], [lambda_eigenvalue(model, x, spec.thetas)]))
    return out
