"""Exact pointwise verification of the bulk and boundary identities.

Every Pass is an exact matrix identity over the rationals evaluated at the
given sample points; there are no tolerances anywhere in this module.
Checks that a model genuinely does not support (TASEP crossing and dual
structure, the RD scalar Markovian vector) report Skipped with a reason so
the gaps stay visible.

Each check is a record (name, points, sides).  sides is either the reason
of a Skipped or a thunk that evaluates the identity's two sides, the two
SparseMatrix operands of ``compare``: a vector identity compares 1 x n
rows, and a ZF relation two block operators.  ``run`` turns records into
reports in order; a pole met while evaluating the sides makes the report
Skipped.  Each identity family yields records and runs none:
``run_model_suite`` is one ``run`` over them all.
The ZF and GZ families of ``ansatz`` (``zf_relations``, ``gz_relations``)
yield records of the same form.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import models as m
from .models import ModelDescriptor
from .sampling import model_safe, pair_safe
from .scalars import format_rational
from .tensor import SparseMatrix, embed_at_positions, \
    inverse, kron, partial_transpose, permutation_op, rank

PASS = "Pass"
FAIL = "Fail"
SKIPPED = "Skipped"
TWIST = Fraction(2)     # the tau of the suite's twisted ASEP K checks


class CheckReport(namedtuple(
        "CheckReport", "model check points status witness reason",
        defaults=(None, None))):
    """One check's outcome: model and check names, the formatted points, the
    status, and the witness dict of a Fail or the reason of a Skipped."""
    __slots__ = ()


def _fmt_points(points) -> tuple:
    return tuple(format_rational(p) for p in points)


# ------------------------------------------------------------ report core

def compare(model, check, points, lhs, rhs) -> CheckReport:
    """Pass when the SparseMatrix lhs equals rhs entry by entry, else Fail
    with the first mismatch in row-major order as the witness, its two
    entries as reduced rationals.  The int rows are compared over the lcm
    of the two denominators; differing shapes raise ValueError.  A vector
    is a 1 x n matrix, so its witness is in row 0."""
    for r, c, a, b in lhs._mismatches(rhs):
        return CheckReport(model.name, check, _fmt_points(points), FAIL,
                           witness={"row": r, "col": c,
                                    "lhs": format_rational(a),
                                    "rhs": format_rational(b)})
    return CheckReport(model.name, check, _fmt_points(points), PASS)


def skipped(model, check, points, reason) -> CheckReport:
    return CheckReport(model.name, check, _fmt_points(points), SKIPPED,
                       reason=reason)


def run(model, records) -> list:
    """The report of each (name, points, sides) record, in order: Skipped
    when sides is a reason, else compare of the two operands sides()
    returns, or Skipped when
    evaluating the sides hits a pole (PoleError included).  A record is
    drawn only after the one before it has run, so a generator of records
    evaluates what it needs between checks in check order."""
    reports = []
    for name, points, sides in records:
        if isinstance(sides, str):
            reports.append(skipped(model, name, points, sides))
            continue
        try:
            reports.append(compare(model, name, points, *sides()))
        except ZeroDivisionError as exc:
            reports.append(skipped(model, name, points, f"pole: {exc}"))
    return reports


I2 = SparseMatrix.identity(2)
I4 = SparseMatrix.identity(4)
ONES2 = SparseMatrix([[1, 1]])          # the rows whose products with a
ONES4 = SparseMatrix([[1, 1, 1, 1]])    # matrix are its column sums


# ------------------------------------------------------------- Yang-Baxter

def yang_baxter(model: ModelDescriptor, x1, x2, x3):
    conv = model.convention

    def sides():
        # R12, R13, R23 embedded: both triple products are over the
        # product of their three denominators
        rs = [m.r_matrix(model, conv.compose(a, b))
              for a, b in ((x1, x2), (x1, x3), (x2, x3))]
        r12, r13, r23 = (embed_at_positions([term], 3) for term in
                         zip(rs, ((0, 1), (0, 2), (1, 2))))
        return r12 * r13 * r23, r23 * r13 * r12

    yield "yang_baxter", (x1, x2, x3), sides


# ------------------------------------------------------------ R properties

def r_properties(model: ModelDescriptor, x, x2=None):
    conv = model.convention
    idp = model.identity_point
    P = permutation_op()

    yield "r.regularity", (idp,), lambda: (m.r_matrix(model, idp), P)
    yield "r.unitarity", (x,), lambda: (
        m.r_matrix(model, x) * m.r_matrix_swapped(model, conv.invert(x)), I4)

    cr = model.crossing
    if cr is None:
        yield "r.crossing", (x,), "partial transpose singular"
    else:
        def crossing():
            U2 = kron(I2, cr.U)
            shifted = conv.cross_shift(x, cr.Q)
            lhs = partial_transpose(m.r_matrix(model, x), 2) * U2 * \
                partial_transpose(m.r_matrix_swapped(model, shifted), 2) * inverse(U2)
            return lhs, cr.lam(x) * I4
        yield "r.crossing", (x,), crossing

    def local_jump():
        w, _, _ = m.local_operators(model)
        _, rp = m.r_matrix(model, idp, derivative=True)
        return P * rp, model.rho * w
    yield "r.local_jump", (idp,), local_jump

    yield "r.markov_left", (x,), lambda: (ONES4 * m.r_matrix(model, x), ONES4)

    if model.name == m.RD:
        yield "r.markov_vector", (x,), "no scalar Markovian vector for this model"
        return
    y = x2 if x2 is not None else _aux_point(model, x)

    def markov_vector():
        vv = kron(SparseMatrix([m.markov_vector(model, x)]),
                  SparseMatrix([m.markov_vector(model, y)]))
        R = m.r_matrix(model, conv.compose(x, y))
        return vv * R.transpose(), vv
    yield "r.markov_vector", (x, y), markov_vector


def _aux_point(model: ModelDescriptor, x):
    """Deterministic second point compose-safe with x."""
    step = Fraction(1)
    for _ in range(64):
        for cand in (x + step, x - step):
            if cand != x and model_safe(model, cand) and \
                    pair_safe(model, x, cand):
                return cand
        step += 1
    raise RuntimeError("no compose-safe auxiliary point found")


# ---------------------------------------------------------- reflection eqs

def reflection(model: ModelDescriptor, kind: str, x1, x2, kf=None,
               name=None):
    """The reflection equation of kind at (x1, x2), named reflection.<kind>
    or name, with kf the boundary matrix as a function of the spectral
    parameter (k_matrix of kind when absent)."""
    conv = model.convention
    pts = (x1, x2)
    name = name or f"reflection.{kind}"
    if kind == "Ktilde" and model.name == m.TASEP:
        yield name, pts, "partial transpose singular"
        return
    if kind not in ("K", "Kbar", "Ktilde"):
        raise ValueError(f"unknown reflection kind {kind!r}")
    kf = kf or (lambda z: m.k_matrix(model, kind, z))

    def sides():
        K1 = kron(kf(x1), I2)
        K2 = kron(I2, kf(x2))
        if kind == "K":
            rc = conv.reflect_compose(x1, x2)
            lhs = m.r_matrix(model, conv.compose(x1, x2)) * K1 * \
                m.r_matrix_swapped(model, rc) * K2
            rhs = K2 * m.r_matrix(model, rc) * K1 * \
                m.r_matrix_swapped(model, conv.compose(x1, x2))
        elif kind == "Kbar":
            irc = conv.invert(conv.reflect_compose(x1, x2))
            lhs = m.r_matrix_swapped(model, conv.compose(x2, x1)) * K1 * \
                m.r_matrix(model, irc) * K2
            rhs = K2 * m.r_matrix_swapped(model, irc) * K1 * \
                m.r_matrix(model, conv.compose(x2, x1))
        else:
            rc = conv.reflect_compose(x1, x2)
            c21 = conv.compose(x2, x1)
            inv21 = partial_transpose(
                inverse(partial_transpose(m.r_matrix_swapped(model, rc), 1)), 1)
            inv12 = partial_transpose(
                inverse(partial_transpose(m.r_matrix(model, rc), 2)), 2)
            lhs = K2 * inv21 * K1 * m.r_matrix_swapped(model, c21)
            rhs = m.r_matrix(model, c21) * K1 * inv12 * K2
        return lhs, rhs

    yield name, pts, sides


# ---------------------------------------------------------- K properties

def k_properties(model: ModelDescriptor, kind: str, x, twist=None,
                 u_points=None, name=None):
    """Unitarity, regularity, boundary jump and the Markovian properties of
    K or Kbar (the ASEP K twisted by twist) at x, named k.<kind> or name.
    ``u_points`` are the points of the markov_u solve (x and two auxiliary
    points), drawn here when absent."""
    name = name or f"k.{kind}"
    conv = model.convention
    idp = model.identity_point
    if twist is not None:
        kf = m.general_asep_k(model.alpha, model.gamma, model.q, twist)
    else:
        kf = lambda z, derivative=False: m.k_matrix(model, kind, z, derivative)

    def boundary_jump():
        _, B, Bbar = m.local_operators(model)
        eps = Fraction(1) if kind == "K" else Fraction(-1)
        target = B if kind == "K" else Bbar
        if twist is not None:
            tau = Fraction(twist)
            target = SparseMatrix([[-model.alpha, model.gamma / tau],
                                   [tau * model.alpha, -model.gamma]])
        return kf(idp, derivative=True)[1], (2 * model.rho * eps) * target

    yield f"{name}.unitarity", (x,), lambda: (kf(x) * kf(conv.invert(x)), I2)
    yield f"{name}.regularity", (idp,), lambda: (kf(idp), I2)
    yield f"{name}.boundary_jump", (idp,), boundary_jump
    if twist is not None and twist != 1:
        reason = "twisted matrix does not satisfy the Markovian property"
        yield f"{name}.markov_left", (x,), reason
        yield f"{name}.markov_u", (x,), reason
        return
    yield f"{name}.markov_left", (x,), lambda: (ONES2 * kf(x), ONES2)
    u_dim = lambda: _u_solution_dim(model, kf, u_points or _u_points(model, x))
    # markov_u: a u space of dimension at least 1, so capped at 1 it is 1
    yield f"{name}.markov_u", (x,), lambda: (
        SparseMatrix([[min(u_dim(), 1)]]), SparseMatrix.identity(1))


def _u_points(model: ModelDescriptor, x) -> list:
    """x and two auxiliary points, each compose-safe with the one before."""
    points = [x]
    while len(points) < 3:
        points.append(_aux_point(model, points[-1]))
    return points


def _u_solution_dim(model: ModelDescriptor, kf, points) -> int:
    """Dimension of the space of low-degree vectors u with
    K(x) u(invert x) = u(x), imposed at each of the points."""
    conv = model.convention
    monomials = [lambda z: 1, lambda z: z]
    if model.name == m.RD:
        monomials.append(lambda z: 1 / z)
    basis = [(comp, mono) for comp in range(2) for mono in monomials]
    rows = []
    for p in points:
        K = kf(p)
        k = [[K.get(r, c) for c in range(2)] for r in range(2)]
        ip = conv.invert(p)
        for comp in range(2):
            row = []
            for bc, mono in basis:
                val = k[comp][bc] * mono(ip)
                if bc == comp:
                    val -= mono(p)
                row.append(val)
            rows.append(row)
    return len(basis) - rank(SparseMatrix(rows))


# ------------------------------------------------- dual-map consistency

def dual_maps(model: ModelDescriptor, x):
    """ktilde_from_kbar against the catalogue Ktilde, and the round trip
    back to Kbar."""
    if model.name == m.TASEP:
        reason = "partial transpose singular"
        yield "dual.map_vs_catalog", (x,), reason
        yield "dual.roundtrip", (x,), reason
        return
    yield "dual.map_vs_catalog", (x,), lambda: (
        m.ktilde_from_kbar(model, x), m.k_matrix(model, "Ktilde", x))
    yield "dual.roundtrip", (x,), lambda: (
        m.kbar_from_ktilde(model, x), m.k_matrix(model, "Kbar", x))


# ------------------------------------------------------ named symmetries

def named_symmetries(model: ModelDescriptor, x):
    if model.name == m.SSEP:
        yield from _ssep_symmetries(model, x)
    elif model.name == m.ASEP:
        yield from _asep_symmetries(model, x)
    else:
        yield "symmetry", (x,), "no named symmetry list for this model"


def _ssep_symmetries(model: ModelDescriptor, x):
    V = SparseMatrix([[0, 1], [-1, 0]])
    Vi = inverse(V)
    R = m.r_matrix(model, x)

    yield "symmetry.pt", (x,), lambda: (
        partial_transpose(partial_transpose(R, 1), 2), R)
    yield "symmetry.swap", (x,), lambda: (m.r_matrix_swapped(model, x), R)
    yield "symmetry.crossing", (x,), lambda: (
        R, (x / (x + 1)) * (kron(V, I2) *
                            partial_transpose(m.r_matrix(model, -x - 1), 2) *
                            kron(Vi, I2)))

    # (alpha, gamma) = (delta, beta): the mirror conjugated by J
    swapped = model._replace(alpha=model.delta, gamma=model.beta)

    def ktilde_crossing():
        num, den = m.boundary_factor(m.mirror(model), x)
        pre = -(2 * x + 1) / (2 * (x + 1)) * num / den
        rhs = pre * (V * m.k_matrix(swapped, "K", -x - 1).transpose() * Vi)
        return m.k_matrix(model, "Ktilde", x), rhs
    yield "symmetry.ktilde_crossing", (x,), ktilde_crossing

    def duality():
        # tr_0(Ktilde_0(x) R_01(2x) P_01), built before K: a pole of
        # Ktilde or R is the one reported
        rhs = m.kbar_from_ktilde(model, model.convention.invert(x))
        return m.k_matrix(swapped, "K", x), rhs
    yield "symmetry.duality", (x,), duality


def _asep_symmetries(model: ModelDescriptor, x):
    q = model.q
    V = SparseMatrix([[0, -1], [q, 0]])
    W = SparseMatrix([[0, 1], [1, 0]])
    Mq = SparseMatrix([[q, 0], [0, 1]])
    Vi, Wi, Mi = inverse(V), inverse(W), inverse(Mq)
    R = m.r_matrix(model, x)
    R21 = m.r_matrix_swapped(model, x)

    yield "symmetry.t", (x,), lambda: (
        partial_transpose(partial_transpose(R, 1), 2),
        kron(Mq, I2) * R21 * kron(I2, Mi))
    yield "symmetry.p_v", (x,), lambda: (R21, kron(V, V) * R * kron(Vi, Vi))
    yield "symmetry.p_w", (x,), lambda: (R21, kron(W, W) * R * kron(Wi, Wi))
    yield "symmetry.z2", (x,), lambda: (R, kron(Mq, Mq) * R * kron(Mi, Mi))
    yield "symmetry.crossing", (x,), lambda: (
        R, ((x - 1) / (q * x - 1)) * (
            kron(Mq * V, I2) *
            partial_transpose(m.r_matrix(model, 1 / (q * x)), 2) * kron(Vi, I2)))

    swapped = m.mirror(model)

    def ktilde_crossing():
        num, den = m.boundary_factor(swapped, x)
        pre = (q * x * x - 1) / (x * x - 1) * den / num
        lhs = V.transpose() * \
            m.k_matrix(model, "Ktilde", 1 / (q * x)).transpose() * Vi
        return lhs, pre * (Mq * W * m.k_matrix(swapped, "K", x) * Wi)
    yield "symmetry.ktilde_crossing", (x,), ktilde_crossing

    def duality():
        # tr_0(Ktilde_0(x) R_01(x^2) P_01), the multiplicative analog of
        # R(2x), built before K as above
        rhs = m.kbar_from_ktilde(model, model.convention.invert(x))
        return W * m.k_matrix(swapped, "K", x) * Wi, rhs
    yield "symmetry.duality", (x,), duality


# --------------------------------------------------------------- the suite

def run_model_suite(model: ModelDescriptor, points: list) -> list:
    """Every applicable check at the given sample points, in a fixed order."""
    return run(model, _suite(model, points))


def _suite(model: ModelDescriptor, points: list):
    n = len(points)
    for i, x in enumerate(points):
        x2 = points[(i + 1) % n] if n > 1 else None
        if n > 2:
            yield from yang_baxter(model, x, x2, points[(i + 2) % n])
        yield from r_properties(model, x, x2)
        if x2 is not None:
            for kind in ("K", "Kbar", "Ktilde"):
                yield from reflection(model, kind, x, x2)
        u_points = _u_points(model, x)
        for kind in ("K", "Kbar"):
            yield from k_properties(model, kind, x, u_points=u_points)
        yield from dual_maps(model, x)
        yield from named_symmetries(model, x)
        if model.name == m.ASEP:
            if x2 is not None:
                kf = m.general_asep_k(model.alpha, model.gamma, model.q, TWIST)
                yield from reflection(model, "K", x, x2, kf,
                                      "reflection.K_twisted")
            yield from k_properties(model, "K", x, TWIST, u_points,
                                    "k.K_twisted")
