"""Catalog of the four exclusion-process models.

For each of ASEP, TASEP, SSEP and the reaction-diffusion (RD) chain this
module provides the bulk hop rates, the local jump operators (w, B, Bbar)
built from them, the R-matrix, the boundary matrices K / Kbar / Ktilde,
crossing data, and the scalar vectors of the bulk Markovian property.  A
ModelDescriptor is a name and rates; the rest is derived from them.  All
entries are exact rational functions of the rates and the spectral
parameter, written in closed form, except on the right boundary: ``mirror``
reflects the chain and exchanges particles and holes, (alpha, beta, gamma,
delta) -> (beta, alpha, delta, gamma), and Kbar = J K(x^-1) J at the mirror,
J = [[0, 1], [1, 0]], so ASEP's Kbar is undefined at x = 0.  The closed
forms are the one place a Dual meets a matrix: they take Fraction or Dual
arguments alike and return rows of entries (at a Dual argument the
constant entries stay plain Fractions), and the R and K caches wrap them
once, as a Matrix at a rational point and as the pair (M(x0), M'(x0)) of
rational Matrices at a Dual point x0 + eps.

Spectral-parameter bookkeeping differs per model: ASEP, TASEP and RD
compose arguments multiplicatively (x1/x2, identity point 1) while SSEP is
additive (x1-x2, identity point 0).
"""

from __future__ import annotations

import functools
import warnings
from collections import namedtuple
from fractions import Fraction

from .scalars import Dual, rat
from .tensor import Matrix, PoleError, inverse, kron, partial_trace_first, \
    partial_transpose, permutation_op

ASEP = "asep"
TASEP = "tasep"
SSEP = "ssep"
RD = "rd"

MODEL_NAMES = (ASEP, TASEP, SSEP, RD)


class UnsupportedError(ValueError):
    """The requested object does not exist for this model."""


class SpectralConvention(namedtuple("SpectralConvention", "kind")):
    """How spectral parameters compose; kind is "multiplicative" or
    "additive"."""
    __slots__ = ()

    @property
    def identity_point(self) -> Fraction:
        return Fraction(1) if self.kind == "multiplicative" else Fraction(0)

    def compose(self, x1, x2):
        return x1 / x2 if self.kind == "multiplicative" else x1 - x2

    def invert(self, x):
        return 1 / x if self.kind == "multiplicative" else -x

    def reflect_compose(self, x1, x2):
        return x1 * x2 if self.kind == "multiplicative" else x1 + x2

    def cross_shift(self, x, Q=None):
        if self.kind == "multiplicative":
            return 1 / (x * Q)
        return -x - 2


MULTIPLICATIVE = SpectralConvention("multiplicative")
ADDITIVE = SpectralConvention("additive")


class Crossing(namedtuple("Crossing", "U Q lam")):
    """Crossing data: the Matrix U, the Fraction Q, and lam, a scalar
    function of the spectral parameter."""
    __slots__ = ()


class ModelDescriptor(namedtuple(
        "ModelDescriptor", "name alpha beta gamma delta q kappa",
        defaults=(None, None))):
    """A model's name and rates (Fractions): q is set for ASEP only and
    kappa for RD only.  Everything else follows from these fields, so
    descriptors with equal rates are equal."""
    __slots__ = ()

    @property
    def convention(self) -> SpectralConvention:
        return ADDITIVE if self.name == SSEP else MULTIPLICATIVE

    @property
    def identity_point(self) -> Fraction:
        return self.convention.identity_point

    @property
    def rho(self) -> Fraction:
        """The scale of the local jumps: P R'(identity) = rho w."""
        if self.name == ASEP:
            return 1 / (self.q - 1)
        if self.name == RD:
            return 1 / (2 * self.kappa)
        return Fraction(1 if self.name == SSEP else -1)

    @property
    def crossing(self):
        """Crossing data; None for TASEP, whose R^t2 is singular."""
        if self.name == ASEP:
            q = self.q
            U = Matrix([[Fraction(1), Fraction(0)], [Fraction(0), q]])
            return Crossing(U, q * q, lambda x: (x - 1) * (q * q * x - 1) /
                            ((q * x - 1) ** 2))
        if self.name == SSEP:   # Q = 2: the additive shift x -> -x-2
            return Crossing(Matrix.identity(2), Fraction(2),
                            lambda x: x * (x + 2) / ((x + 1) ** 2))
        if self.name == TASEP:
            return None
        u, v = self.kappa + 1, self.kappa - 1
        return Crossing(Matrix.identity(2), u ** 2 / v ** 2, lambda x: (
            (x * x - 1) * (x * u ** 2 + v ** 2) * (x * u ** 2 - v ** 2)
            / ((x * u + v) ** 2 * (x * u - v) ** 2)))

    def rates(self) -> dict:
        """The rates that are set, by name, in field order."""
        return {k: v for k, v in zip(self._fields[1:], self[1:])
                if v is not None}


def mirror(model: ModelDescriptor) -> ModelDescriptor:
    """The model on the reflected chain with particles and holes exchanged:
    (alpha, beta, gamma, delta) -> (beta, alpha, delta, gamma)."""
    return model._replace(alpha=model.beta, beta=model.alpha,
                          gamma=model.delta, delta=model.gamma)


def _warn_negative(rates):
    for name, v in rates.items():
        if v < 0:
            warnings.warn(f"negative rate {name}={v}: not a stochastic model, "
                          "algebraic checks only", stacklevel=3)


def _check_q(q):
    if q == 1:
        raise ValueError("q=1 is the SSEP model; use ssep()")
    if q == 0:
        raise ValueError("q=0 is the TASEP model; use tasep()")


def asep(q, alpha, beta, gamma, delta) -> ModelDescriptor:
    q, alpha, beta, gamma, delta = map(rat, (q, alpha, beta, gamma, delta))
    _check_q(q)
    _warn_negative({"alpha": alpha, "beta": beta, "gamma": gamma, "delta": delta,
                    "q": q})
    return ModelDescriptor(ASEP, alpha, beta, gamma, delta, q=q)


def tasep(alpha, beta) -> ModelDescriptor:
    alpha, beta = rat(alpha), rat(beta)
    _warn_negative({"alpha": alpha, "beta": beta})
    return ModelDescriptor(TASEP, alpha, beta, Fraction(0), Fraction(0))


def ssep(alpha, beta, gamma, delta) -> ModelDescriptor:
    alpha, beta, gamma, delta = map(rat, (alpha, beta, gamma, delta))
    _warn_negative({"alpha": alpha, "beta": beta, "gamma": gamma, "delta": delta})
    return ModelDescriptor(SSEP, alpha, beta, gamma, delta)


def rd(kappa, alpha, beta, gamma, delta) -> ModelDescriptor:
    kappa, alpha, beta, gamma, delta = map(rat, (kappa, alpha, beta, gamma, delta))
    if kappa in (0, 1, -1):
        raise ValueError("rd model requires kappa not in {0, 1, -1}")
    _warn_negative({"alpha": alpha, "beta": beta, "gamma": gamma, "delta": delta})
    return ModelDescriptor(RD, alpha, beta, gamma, delta, kappa=kappa)


# ---------------------------------------------------------------- local ops

def hop_rates(model: ModelDescriptor) -> tuple:
    """(right, left): the rates of a bulk particle's hop to an empty right
    and left neighbour."""
    if model.name == RD:
        return model.kappa ** 2, model.kappa ** 2
    return Fraction(1), {ASEP: model.q, SSEP: Fraction(1),
                         TASEP: Fraction(0)}[model.name]


def local_operators(model: ModelDescriptor):
    """(w, B, Bbar): bulk pair operator and the two boundary operators."""
    al, be, ga, de = model.alpha, model.beta, model.gamma, model.delta
    right, left = hop_rates(model)
    z = Fraction(0)
    w = [[z, z, z, z], [z, -left, right, z], [z, left, -right, z], [z, z, z, z]]
    if model.name == RD:    # pair annihilation 11 -> 00 and creation 00 -> 11
        w[0][0], w[0][3], w[3][0], w[3][3] = -1, 1, 1, -1
    return Matrix(w), Matrix([[-al, ga], [al, -ga]]), \
        Matrix([[-de, be], [de, -be]])


# ---------------------------------------------------------------- R-matrix

def _nonzero(denom, what, x):
    # a Dual with vanishing value part is a pole at the evaluation point
    bad = (denom.value == 0) if isinstance(denom, Dual) else not denom
    if bad:
        raise PoleError(f"{what} vanishes at x={x}")
    return denom


# entries of each bounded cache of R(x) and K(x).  A 5-sample verify
# builds 145-339 distinct matrices.
CACHE_SIZE = 1024


def r_matrix(model: ModelDescriptor, x) -> Matrix:
    """The 4x4 R-matrix at spectral parameter x, exact; at a Dual point
    x0 + eps the pair (R(x0), R'(x0)) of rational Matrices.

    Both come from a bounded cache keyed by (name, q, kappa, x, whether x
    is a Dual), the constants R reads, so every caller gets the same
    Matrix: never change it.  A pole is not cached: it raises PoleError on
    every call."""
    return _r_cached(model.name, model.q, model.kappa, x,
                     isinstance(x, Dual))


@functools.lru_cache(maxsize=CACHE_SIZE)
def _r_cached(name, q, kappa, x, dual):
    # a descriptor of the key's constants alone: R cannot read a rate
    return _wrapped(_r_matrix(
        ModelDescriptor(name, None, None, None, None, q, kappa), x), dual)


def _wrapped(rows, dual):
    """Closed-form rows as the caches hand them out: a Matrix, or at a Dual
    point the pair (values, derivatives) of rational Matrices."""
    if not dual:
        return Matrix(rows)
    return tuple(Matrix([[_split(e)[k] for e in row] for row in rows])
                 for k in (0, 1))


def _split(e) -> tuple:
    """(value, derivative) of a Fraction or Dual scalar, a plain rational
    having derivative 0."""
    return (e.value, e.deriv) if isinstance(e, Dual) else (e, 0)


def _r_matrix(model: ModelDescriptor, x) -> list:
    if model.name == ASEP:
        q = model.q
        d = _nonzero(q * x - 1, "q*x - 1", x)
        return [[1, 0, 0, 0],
                [0, (x - 1) * q / d, (q - 1) * x / d, 0],
                [0, (q - 1) / d, (x - 1) / d, 0],
                [0, 0, 0, 1]]
    if model.name == TASEP:
        return [[1, 0, 0, 0],
                [0, 0, x, 0],
                [0, 1, 1 - x, 0],
                [0, 0, 0, 1]]
    if model.name == SSEP:
        d = _nonzero(x + 1, "x + 1", x)
        return [[1, 0, 0, 0],
                [0, x / d, 1 / d, 0],
                [0, 1 / d, x / d, 0],
                [0, 0, 0, 1]]
    k = model.kappa
    d1 = _nonzero(k * (x + 1) + x - 1, "kappa*(x+1) + x-1", x)
    d2 = _nonzero(k * (x - 1) + x + 1, "kappa*(x-1) + x+1", x)
    return [[k * (x + 1) / d1, 0, 0, (x - 1) / d1],
            [0, k * (x - 1) / d2, (x + 1) / d2, 0],
            [0, (x + 1) / d2, k * (x - 1) / d2, 0],
            [(x - 1) / d1, 0, 0, k * (x + 1) / d1]]


def r_matrix_swapped(model: ModelDescriptor, x) -> Matrix:
    """R21(x) = P R12(x) P at a rational x: R's table with both tensor legs
    of the row and of the column index swapped (01 <-> 10)."""
    N, d = r_matrix(model, x)._table
    return Matrix._over([[N[r][c] for c in _SWAP] for r in _SWAP], d)


_SWAP = (0, 2, 1, 3)   # the index of P e_i


# ---------------------------------------------------------------- K-matrices

def k_matrix(model: ModelDescriptor, kind: str, x) -> Matrix:
    """Boundary matrix of the requested kind: 'K' (left), 'Kbar' (right)
    or 'Ktilde' (dual).  K and Ktilde are closed forms.  Kbar(x) is
    J K(x^-1) J at mirror(model), so ASEP's Kbar is undefined at 0, and a
    pole of Kbar names Kbar, x and the mirrored rates.
    The RD Ktilde is the reduced form of the crossing expression
    tr_0(Kbar_0(1/x) R_10(1/(x^2 Q)) P_01) / lambda(x^2), so its removable
    singularities, the identity point included, need no special evaluation;
    ktilde_from_kbar checks it.

    At a Dual point x0 + eps it is the pair (M(x0), M'(x0)) of rational
    Matrices.  Both come from a bounded cache keyed by (kind, model, x,
    whether x is a Dual), so every caller gets the same Matrix: never
    change it.  A pole is not cached: it raises PoleError on every call."""
    if kind not in _K_FORMS:
        raise ValueError(f"unknown K-matrix kind {kind!r}")
    return _k_cached(kind, model, x, isinstance(x, Dual))


@functools.lru_cache(maxsize=CACHE_SIZE)
def _k_cached(kind, model, x, dual):
    return _wrapped(_K_FORMS[kind](model, x), dual)


def _k_left(model: ModelDescriptor, x) -> list:
    al, ga = model.alpha, model.gamma
    if model.name == ASEP:
        q = model.q
        d = _nonzero(ga * x * x + (q + al - ga - 1) * x - al,
                     "gamma*x^2 + (q+alpha-gamma-1)*x - alpha", x)
        return [[x * (-al * x + ga * x + q + al - ga - 1) / d,
                 ga * (x * x - 1) / d],
                [al * (x * x - 1) / d,
                 (q * x + al * x - ga * x - x - al + ga) / d]]
    if model.name == TASEP:
        d = _nonzero(al * x - x - al, "alpha*x - x - alpha", x)
        return [[x * (-al * x + al - 1) / d, 0],
                [al * (x * x - 1) / d, 1]]
    if model.name == SSEP:
        d = _nonzero(x * (al + ga) + 1, "x*(alpha+gamma) + 1", x)
        return [[(x * (ga - al) + 1) / d, 2 * x * ga / d],
                [2 * x * al / d, (x * (al - ga) + 1) / d]]
    k = model.kappa
    x2 = x * x
    d = _nonzero(2 * x * ((x2 - 1) * (al + ga) + 2 * k * (x2 + 1)),
                 "2x*((x^2-1)(alpha+gamma) + 2kappa(x^2+1))", x)
    return [[(x2 + 1) * ((x2 - 1) * (ga - al) + 4 * x * k) / d,
             (x2 - 1) * ((x2 + 1) * (ga - al) + 2 * x * (al + ga)) / d],
            [-(x2 - 1) * ((x2 + 1) * (ga - al) - 2 * x * (al + ga)) / d,
             -(x2 + 1) * ((x2 - 1) * (ga - al) - 4 * x * k) / d]]


def _k_right(model: ModelDescriptor, x) -> list:
    mirrored = mirror(model)
    try:
        (a, b), (c, d) = _k_left(mirrored, model.convention.invert(x))
    except ZeroDivisionError as exc:
        why = exc if isinstance(exc, PoleError) else "x^-1 is undefined"
        raise PoleError(f"Kbar has a pole at x={x}, where K at "
                        f"alpha={mirrored.alpha}, gamma={mirrored.gamma} is "
                        f"evaluated at x^-1: {why}") from None
    return [[d, c], [b, a]]


def _k_dual(model: ModelDescriptor, x) -> list:
    be, de = model.beta, model.delta
    if model.name == ASEP:
        q = model.q
        d = _nonzero((de * x + be) * (x - 1) + (q - 1) * x,
                     "(delta*x+beta)(x-1) + (q-1)x", x)
        d2 = _nonzero(q * q * x * x - 1, "q^2 x^2 - 1", x)
        pre = (q * x * x - 1) / d
        return [[pre * (q * x * (q - 1 - de + be) + de - be) / d2, pre * be],
                [pre * de / q, pre * x * (q * x * (de - be) + q - 1 - de + be) / d2]]
    if model.name == TASEP:
        d = _nonzero(x * (be - 1) - be, "x*(beta-1) - beta", x)
        return [[-be / d, -be / d],
                [0, x * (be - 1) / d]]
    if model.name == SSEP:
        d = _nonzero(x * (de + be) + 1, "x*(delta+beta) + 1", x)
        d2 = _nonzero(2 * (x + 1), "2(x+1)", x)
        pre = (2 * x + 1) / d
        return [[pre * ((x + 1) * (be - de) + 1) / d2, pre * be],
                [pre * de, pre * ((x + 1) * (de - be) + 1) / d2]]
    # u = kappa+1, v = kappa-1; every entry carries F/(2uvx G) with
    # F = u^2 x^4 - v^2 and G = (beta+delta)(x^2-1) + 2kappa(x^2+1)
    k = model.kappa
    center = x.value if isinstance(x, Dual) else x
    if center == 0:
        raise PoleError("Ktilde undefined at x=0 (argument 1/x)")
    u, v = k + 1, k - 1
    ux, x2 = u * x, x * x
    try:
        dm = _nonzero(ux * ux - v * v, "(kappa+1)^2 x^2 - (kappa-1)^2", x)
        dp = _nonzero(ux * ux + v * v, "(kappa+1)^2 x^2 + (kappa-1)^2", x)
        g = _nonzero((be + de) * (x2 - 1) + 2 * k * (x2 + 1),
                     "(beta+delta)(x^2-1) + 2kappa(x^2+1)", x)
    except PoleError as exc:
        raise PoleError(f"dual boundary matrix has a pole at x={center}: "
                        f"{exc}") from None
    pre = (ux * ux * x2 - v * v) / (2 * u * v * x * g)
    s = (be - de) * dm
    t = 4 * k * u * v * x
    return [[pre * (s + t) / dm,
             pre * (be * (ux + v) ** 2 - de * (ux - v) ** 2) / dp],
            [-pre * (be * (ux - v) ** 2 - de * (ux + v) ** 2) / dp,
             -pre * (s - t) / dm]]


_K_FORMS = {"K": _k_left, "Kbar": _k_right, "Ktilde": _k_dual}


def ktilde_from_kbar(model: ModelDescriptor, x) -> Matrix:
    """Dual-boundary map: Ktilde_1(x) = tr_0(Kbar_0(inv x)
    ((R_01(rc(x,x))^{t1})^{-1})^{t1} P_01).  Undefined for TASEP."""
    if model.name == TASEP:
        raise UnsupportedError("tasep: partial transpose of R is singular")
    conv = model.convention
    R = r_matrix(model, conv.reflect_compose(x, x))
    Rt1 = partial_transpose(R, 1)
    try:
        inv = partial_transpose(inverse(Rt1), 1)
    except PoleError as exc:
        raise PoleError(f"singular partial transpose at x={x}") from exc
    kbar = _k_cached("Kbar", model, conv.invert(x), False)
    big = kron(kbar, Matrix.identity(2)) * inv * permutation_op()
    return partial_trace_first(big)


def kbar_from_ktilde(model: ModelDescriptor, x) -> Matrix:
    """Inverse map: Kbar_1(x) = tr_0(Ktilde_0(inv x) R_01(inv rc(x,x)) P_01)."""
    if model.name == TASEP:
        raise UnsupportedError("tasep: dual reflection structure undefined")
    conv = model.convention
    ktilde = _k_cached("Ktilde", model, conv.invert(x), False)
    big = kron(ktilde, Matrix.identity(2)) * \
        r_matrix(model, conv.invert(conv.reflect_compose(x, x))) * permutation_op()
    return partial_trace_first(big)


def general_asep_k(alpha, gamma, q, tau):
    """The twisted ASEP left K-matrix D K(x) D^-1, D = diag(1, tau), as a
    function of x; at a Dual point both parts of the cached pair are
    twisted.  The exponential twist enters algebraically only, as a free
    rational parameter tau (tau=1 is the untwisted Markovian matrix)."""
    alpha, gamma, q, tau = map(rat, (alpha, gamma, q, tau))
    if tau == 0:
        raise ValueError("twist parameter tau must be nonzero")
    _check_q(q)
    base = ModelDescriptor(ASEP, alpha, Fraction(1), gamma, Fraction(0), q=q)

    D, Di = Matrix([[1, 0], [0, tau]]), Matrix([[1, 0], [0, 1 / tau]])

    def k(x):
        K = _k_cached("K", base, x, isinstance(x, Dual))
        return tuple(D * P * Di for P in K) if isinstance(K, tuple) \
            else D * K * Di

    return k


def boundary_factor(model: ModelDescriptor, x) -> tuple:
    """(num, den) of the left boundary factor of the transfer eigenvalue
    (SSEP and ASEP); the right factor is the left one at mirror(model).
    The caller divides, in the order its own expression fixes."""
    al, ga = model.alpha, model.gamma
    if model.name == SSEP:
        return (x + 1) * (ga + al) - 1, x * (ga + al) + 1
    if model.name == ASEP:
        q = model.q
        return (q * x - 1) * (ga + q * x * al) + q * x * (1 - q), \
            (x - 1) * (x * ga + al) + x * (q - 1)
    raise UnsupportedError(f"{model.name}: no closed-form eigenvalue known")


def markov_vector(model: ModelDescriptor, x):
    """The scalar vector v(x) of the bulk Markovian property, in the gauge
    v(x) = (x, 1), or (1, 1) for SSEP."""
    if model.name == RD:
        raise UnsupportedError("rd: no scalar Markovian vector exists")
    if model.name == SSEP:
        return (Fraction(1), Fraction(1))
    return (x, Fraction(1))
