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
J = [[0, 1], [1, 0]], so ASEP's Kbar is undefined at x = 0.  Each closed
form is compiled once per model to int polynomial tables (``_Form``), and
R and K at a rational x, with ``derivative`` the pair (M(x), M'(x)), are
read off them in ints; at a pole the closed form raises its own PoleError.

Spectral-parameter bookkeeping differs per model: ASEP, TASEP and RD
compose arguments multiplicatively (x1/x2, identity point 1) while SSEP is
additive (x1-x2, identity point 0).
"""

from __future__ import annotations

import functools
import math
import warnings
from collections import namedtuple
from fractions import Fraction
from itertools import zip_longest
from operator import mul

from .scalars import rat
from .tensor import PoleError, SparseMatrix, inverse, kron, \
    partial_trace_first, partial_transpose, permutation_op

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
    """Crossing data: the 2 x 2 matrix U, the Fraction Q, and lam, a scalar
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
            U = SparseMatrix([[1, 0], [0, q]])
            return Crossing(U, q * q, lambda x: (x - 1) * (q * q * x - 1) /
                            ((q * x - 1) ** 2))
        if self.name == SSEP:   # Q = 2: the additive shift x -> -x-2
            return Crossing(SparseMatrix.identity(2), Fraction(2),
                            lambda x: x * (x + 2) / ((x + 1) ** 2))
        if self.name == TASEP:
            return None
        u, v = self.kappa + 1, self.kappa - 1
        return Crossing(SparseMatrix.identity(2), u ** 2 / v ** 2, lambda x: (
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
    return SparseMatrix(w), SparseMatrix([[-al, ga], [al, -ga]]), \
        SparseMatrix([[-de, be], [de, -be]])


# ---------------------------------------------------------------- R-matrix

def _nonzero(denom, what, x):
    if not denom:
        raise PoleError(f"{what} vanishes at x={x}")
    return denom


def r_matrix(model: ModelDescriptor, x, derivative=False):
    """The 4x4 R-matrix at a rational x, an int or a Fraction, exact; with
    derivative, the pair (R(x), R'(x)), both read off the compiled form."""
    return _form(model, "R", _r_matrix)(x, derivative)


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


def r_matrix_swapped(model: ModelDescriptor, x) -> SparseMatrix:
    """R21(x) = P R12(x) P at a rational x: R's rows with both tensor legs
    of the row and of the column index swapped (01 <-> 10)."""
    R = r_matrix(model, x)
    return SparseMatrix._over((4, 4), {
        _SWAP[r]: {_SWAP[c]: v for c, v in row.items()}
        for r, row in R._rows.items()}, R.den)


_SWAP = (0, 2, 1, 3)   # the index of P e_i, and of P^-1 e_i


# ---------------------------------------------------------------- K-matrices

def k_matrix(model: ModelDescriptor, kind: str, x, derivative=False):
    """Boundary matrix of the requested kind: 'K' (left), 'Kbar' (right)
    or 'Ktilde' (dual), at a rational x, an int or a Fraction; with
    derivative, the pair (M(x), M'(x)).  K and Ktilde are closed forms.
    Kbar(x) is J K(x^-1) J at mirror(model), so ASEP's Kbar is undefined at
    0, and a pole of Kbar names Kbar, x and the mirrored rates.
    The RD Ktilde is the reduced form of the crossing expression
    tr_0(Kbar_0(1/x) R_10(1/(x^2 Q)) P_01) / lambda(x^2), so its removable
    singularities, the identity point included, need no special evaluation;
    ktilde_from_kbar checks it."""
    if kind not in _K_FORMS:
        raise ValueError(f"unknown K-matrix kind {kind!r}")
    return _form(model, kind, _K_FORMS[kind])(x, derivative)


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
    if not x:
        raise PoleError("Ktilde undefined at x=0 (argument 1/x)")
    u, v = k + 1, k - 1
    ux, x2 = u * x, x * x
    try:
        dm = _nonzero(ux * ux - v * v, "(kappa+1)^2 x^2 - (kappa-1)^2", x)
        dp = _nonzero(ux * ux + v * v, "(kappa+1)^2 x^2 + (kappa-1)^2", x)
        g = _nonzero((be + de) * (x2 - 1) + 2 * k * (x2 + 1),
                     "(beta+delta)(x^2-1) + 2kappa(x^2+1)", x)
    except PoleError as exc:
        raise PoleError(f"dual boundary matrix has a pole at x={x}: "
                        f"{exc}") from None
    pre = (ux * ux * x2 - v * v) / (2 * u * v * x * g)
    s = (be - de) * dm
    t = 4 * k * u * v * x
    return [[pre * (s + t) / dm,
             pre * (be * (ux + v) ** 2 - de * (ux - v) ** 2) / dp],
            [-pre * (be * (ux - v) ** 2 - de * (ux + v) ** 2) / dp,
             -pre * (s - t) / dm]]


_K_FORMS = {"K": _k_left, "Kbar": _k_right, "Ktilde": _k_dual}


# ------------------------------------------------------------ compiled forms

@functools.lru_cache(maxsize=256)
def _forms(model: ModelDescriptor) -> dict:
    """The compiled forms of model by kind, kept for the last models."""
    return {}


_last = [None, None]    # the model of the last lookup, and its forms


def _form(model: ModelDescriptor, kind, closed) -> "_Form":
    """The form of kind compiled from closed once per (model, kind); a run
    of lookups for one descriptor finds it by identity, hashing no rate."""
    if _last[0] is not model:
        _last[:] = model, _forms(model)
    forms = _last[1]
    if kind not in forms:
        forms[kind] = _Form(closed, model)
    return forms[kind]


class _Form:
    """A closed form compiled to int polynomials in x: its entries N_rc(x)
    over one denominator D(x), and P(x), the product of its divisors.  At
    x = n/d a polynomial c of degree at most M is read in ints as d^M c(n/d)
    = sum c_k n^k d^(M - k).  Where P vanishes, a division meets a zero, and
    the closed form, evaluated at x, raises its own error.  Elsewhere M(x)
    = N / D and M'(x) = (N' D - N D') / D^2 = d (N' D - N D') / D^2, N' and
    D' read at degree M - 1, each matrix over the lcm of its entries'
    reduced denominators by one int gcd, as SparseMatrix puts Fractions."""

    __slots__ = ("closed", "model", "shape", "layout", "degree", "poles",
                 "den", "nums")

    def __init__(self, closed, model):
        self.closed, self.model, divisors = closed, model, []
        x = _Rat((0, 1), _ONE, divisors)
        try:
            rows = [list(map(x._lift, row)) for row in closed(model, x)]
        except ZeroDivisionError:   # a divisor vanishes at every x
            rows, divisors = [], [()]
        self.shape = len(rows), len(rows[0]) if rows else 0
        # D: the product of the distinct entry denominators; N_rc = p D / q
        qs = list(dict.fromkeys(e.q for row in rows for e in row if e))
        self.den = functools.reduce(_product, qs, _ONE)
        self.layout = [(r, c) for r, row in enumerate(rows)
                       for c, e in enumerate(row) if e]
        self.nums = [functools.reduce(
            _product, [q for q in qs if q != rows[r][c].q], rows[r][c].p)
            for r, c in self.layout]
        self.poles = functools.reduce(_product, dict.fromkeys(divisors), _ONE)
        self.degree = max(map(len, (self.poles, self.den, *self.nums))) - 1

    def __call__(self, x, derivative=False):
        """The matrix at x, an int or a Fraction; with derivative, the pair
        (M(x), M'(x))."""
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"not an exact rational: {x!r}")
        n, d, top = x.numerator, x.denominator, self.degree
        mono = [n ** k * d ** (top - k) for k in range(top + 1)]
        if not sum(map(mul, self.poles, mono)):
            self.closed(self.model, Fraction(x))
            raise AssertionError(f"no error at a pole, x={x}")
        den = sum(map(mul, self.den, mono))
        nums = [sum(map(mul, p, mono)) for p in self.nums]
        value = self._matrix(nums, den)
        if not derivative:
            return value
        mono = [0] + [k * n ** (k - 1) * d ** (top - k)
                      for k in range(1, top + 1)]
        den1 = sum(map(mul, self.den, mono))
        return value, self._matrix(
            [d * (sum(map(mul, p, mono)) * den - v * den1)
             for p, v in zip(self.nums, nums)], den * den)

    def _matrix(self, nums, den) -> SparseMatrix:
        """The table nums / den over the lcm of its entries' reduced
        denominators."""
        g = math.gcd(den, *nums) * (1 if den > 0 else -1)
        rows = {}
        for (r, c), v in zip(self.layout, nums):
            if v:
                rows.setdefault(r, {})[c] = v // g
        return SparseMatrix._over(self.shape, rows, den // g)


class _Rat:
    """p(x) / q(x), int polynomials as coefficient tuples, lowest degree
    first (zero is ()): the scalar the closed forms are compiled on.  No
    polynomial gcd is taken, only shared powers of x and int content
    cancel, and q leads positive.  A division by a polynomial that is not
    constant appends it to ``divisors``, shared by one compilation."""

    __slots__ = ("p", "q", "divisors")

    def __init__(self, p, q, divisors):
        while p and not p[-1]:
            p = p[:-1]
        while p and not p[0] and not q[0]:
            p, q = p[1:], q[1:]
        g = math.gcd(*p, *q) * (1 if q[-1] > 0 else -1)
        self.p = tuple(v // g for v in p)
        self.q, self.divisors = tuple(v // g for v in q), divisors

    def _lift(self, other) -> "_Rat":
        if isinstance(other, _Rat):
            return other
        return _Rat((other.numerator,), (other.denominator,), self.divisors)

    def __add__(self, other):
        o = self._lift(other)
        p, r, q = self.p, o.p, self.q
        if q != o.q:
            p, r, q = _product(p, o.q), _product(r, q), _product(q, o.q)
        return _Rat(tuple(map(sum, zip_longest(p, r, fillvalue=0))), q,
                    self.divisors)

    def __mul__(self, other):
        o = self._lift(other)
        return _Rat(_product(self.p, o.p), _product(self.q, o.q),
                    self.divisors)

    def __truediv__(self, other):
        o = self._lift(other)
        if not o:
            raise ZeroDivisionError("division by the zero polynomial")
        if len(o.p) > 1:
            self.divisors.append(o.p)
        return _Rat(_product(self.p, o.q), _product(self.q, o.p),
                    self.divisors)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -self._lift(other)

    def __rsub__(self, other):
        return -self + other

    def __pow__(self, k: int):
        return functools.reduce(_Rat.__mul__, [self] * k, self._lift(1))

    def __bool__(self):
        return bool(self.p)

    __radd__, __rmul__ = __add__, __mul__


_ONE = (1,)


def _product(a, b) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return tuple(out)


def ktilde_from_kbar(model: ModelDescriptor, x) -> SparseMatrix:
    """The dual-boundary map: Ktilde_1(x) = tr_0(Kbar_0(inv x)
    ((R_01(rc(x,x))^{t1})^{-1})^{t1} P_01).  Undefined for TASEP."""
    if model.name == TASEP:
        raise UnsupportedError("tasep: partial transpose of R is singular")
    conv, x = model.convention, Fraction(x)
    R = r_matrix(model, conv.reflect_compose(x, x))
    Rt1 = partial_transpose(R, 1)
    try:
        inv = partial_transpose(inverse(Rt1), 1)
    except PoleError as exc:
        raise PoleError(f"singular partial transpose at x={x}") from exc
    kbar = k_matrix(model, "Kbar", conv.invert(x))
    big = kron(kbar, SparseMatrix.identity(2)) * inv * permutation_op()
    return partial_trace_first(big)


def kbar_from_ktilde(model: ModelDescriptor, x) -> SparseMatrix:
    """Inverse map: Kbar_1(x) = tr_0(Ktilde_0(inv x) R_01(inv rc(x,x)) P_01)."""
    if model.name == TASEP:
        raise UnsupportedError("tasep: dual reflection structure undefined")
    conv, x = model.convention, Fraction(x)
    ktilde = k_matrix(model, "Ktilde", conv.invert(x))
    big = kron(ktilde, SparseMatrix.identity(2)) * \
        r_matrix(model, conv.invert(conv.reflect_compose(x, x))) * permutation_op()
    return partial_trace_first(big)


def general_asep_k(alpha, gamma, q, tau):
    """The twisted ASEP left K-matrix D K(x) D^-1, D = diag(1, tau), as a
    function of x and derivative, as k_matrix takes them.  The exponential
    twist enters algebraically only, as a free rational parameter tau
    (tau=1 is the untwisted Markovian matrix)."""
    alpha, gamma, q, tau = map(rat, (alpha, gamma, q, tau))
    if tau == 0:
        raise ValueError("twist parameter tau must be nonzero")
    _check_q(q)
    base = ModelDescriptor(ASEP, alpha, Fraction(1), gamma, Fraction(0), q=q)

    def twisted(model, x):
        (a, b), (c, d) = _k_left(model, x)
        return [[a, b / tau], [tau * c, d]]

    return _form(base, ("K", tau), twisted)    # one form per rates and tau


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


def markov_vector(model: ModelDescriptor, x, derivative=False):
    """The scalar vector v(x) of the bulk Markovian property, in the gauge
    v(x) = (x, 1), or (1, 1) for SSEP; with derivative the pair (v(x),
    v'(x))."""
    if model.name == RD:
        raise UnsupportedError("rd: no scalar Markovian vector exists")
    one = Fraction(1)
    v, vp = ((one, one), (0, 0)) if model.name == SSEP else ((x, one), (1, 0))
    return (v, vp) if derivative else v
