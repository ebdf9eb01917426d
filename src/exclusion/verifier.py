"""Exact pointwise verification of the bulk and boundary identities.

Every Pass is an exact matrix identity over the rationals evaluated at the
given sample points; there are no tolerances anywhere in this module.
Checks that a model genuinely does not support (TASEP crossing and dual
structure, the RD scalar Markovian vector) report Skipped with a reason so
the gaps stay visible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from . import models as m
from .models import ModelDescriptor
from .scalars import format_rational
from .tensor import Matrix, SparseMatrix, derivative_at, \
    embed_at_positions, inverse, kron, partial_trace_first, partial_transpose, \
    permutation_op, rank

PASS = "Pass"
FAIL = "Fail"
SKIPPED = "Skipped"
TWIST = Fraction(2)     # the tau of the suite's twisted ASEP K checks


@dataclass(frozen=True)
class CheckReport:
    model: str
    check: str
    points: tuple
    status: str
    witness: dict | None = None
    reason: str | None = None


def _fmt_points(points) -> tuple:
    return tuple(format_rational(p) for p in points)


# ------------------------------------------------------------ report core

def compare(model, check, points, lhs, rhs) -> CheckReport:
    """Pass when lhs equals rhs entry by entry, else Fail with the first
    mismatch in row-major order as the witness.  The operands are two dense
    Matrix, two SparseMatrix (never densified) or two flat sequences, read
    as row 0; differing shapes raise ValueError."""
    for r, c, a, b in _mismatches(lhs, rhs):
        return failed(model, check, points,
                      {"row": r, "col": c, "lhs": format_rational(a),
                       "rhs": format_rational(b)})
    return CheckReport(model.name, check, _fmt_points(points), PASS)


def _mismatches(lhs, rhs):
    """(row, col, lhs entry, rhs entry) wherever the operands differ."""
    if isinstance(lhs, SparseMatrix):
        if lhs.dim != rhs.dim:
            raise ValueError(f"shape mismatch: dim {lhs.dim} vs {rhs.dim}")
        # equal rows are skipped by one dict comparison, with no arithmetic
        rows_a, rows_b = dict(lhs.rows_items()), dict(rhs.rows_items())
        for r in sorted(rows_a.keys() | rows_b.keys()):
            row_a, row_b = rows_a.get(r, {}), rows_b.get(r, {})
            if row_a != row_b:
                for c in sorted(row_a.keys() | row_b.keys()):
                    a, b = row_a.get(c, Fraction(0)), row_b.get(c, Fraction(0))
                    if a != b:
                        yield r, c, a, b
        return
    if isinstance(lhs, Matrix):
        lhs._same_shape(rhs)
        rows = zip(lhs.a, rhs.a)
    elif len(lhs) != len(rhs):
        raise ValueError(f"length mismatch: {len(lhs)} vs {len(rhs)}")
    else:
        rows = [(lhs, rhs)]
    for r, (row_a, row_b) in enumerate(rows):
        for c, (a, b) in enumerate(zip(row_a, row_b)):
            if a != b:
                yield r, c, a, b


def failed(model, check, points, witness) -> CheckReport:
    return CheckReport(model.name, check, _fmt_points(points), FAIL,
                       witness=witness)


def skipped(model, check, points, reason) -> CheckReport:
    return CheckReport(model.name, check, _fmt_points(points), SKIPPED,
                       reason=reason)


def guarded(model, check, points, thunk):
    """thunk(), or Skipped when it hits a pole (PoleError included)."""
    try:
        return thunk()
    except ZeroDivisionError as exc:
        return skipped(model, check, points, f"pole: {exc}")


I2 = Matrix.identity(2)
I4 = Matrix.identity(4)


def _row_times(row, M: Matrix):
    return [sum(row[i] * M.a[i][j] for i in range(M.rows)) for j in range(M.cols)]


# ------------------------------------------------------------- Yang-Baxter

def check_yang_baxter(model: ModelDescriptor, x1, x2, x3) -> CheckReport:
    conv = model.convention
    pts = (x1, x2, x3)

    def run():
        r12 = embed_at_positions(m.r_matrix(model, conv.compose(x1, x2)), (0, 1), 3)
        r13 = embed_at_positions(m.r_matrix(model, conv.compose(x1, x3)), (0, 2), 3)
        r23 = embed_at_positions(m.r_matrix(model, conv.compose(x2, x3)), (1, 2), 3)
        lhs = r12 * r13 * r23
        rhs = r23 * r13 * r12
        return compare(model, "yang_baxter", pts, lhs.to_dense(), rhs.to_dense())

    return guarded(model, "yang_baxter", pts, run)


# ------------------------------------------------------------ R properties

def check_r_properties(model: ModelDescriptor, x, x2=None) -> list:
    conv = model.convention
    out = []
    idp = model.identity_point
    P = permutation_op()

    out.append(guarded(model, "r.regularity", (idp,), lambda: compare(
        model, "r.regularity", (idp,), m.r_matrix(model, idp), P)))

    out.append(guarded(model, "r.unitarity", (x,), lambda: compare(
        model, "r.unitarity", (x,),
        m.r_matrix(model, x) * m.r_matrix_swapped(model, conv.invert(x)), I4)))

    if model.crossing is None:
        out.append(skipped(model, "r.crossing", (x,), "partial transpose singular"))
    else:
        def crossing():
            cr = model.crossing
            U2 = kron(I2, cr.U)
            shifted = conv.cross_shift(x, cr.Q)
            lhs = partial_transpose(m.r_matrix(model, x), 2) * U2 * \
                partial_transpose(m.r_matrix_swapped(model, shifted), 2) * inverse(U2)
            return compare(model, "r.crossing", (x,), lhs, cr.lam(x) * I4)
        out.append(guarded(model, "r.crossing", (x,), crossing))

    def local_jump():
        w, _, _ = m.local_operators(model)
        rp = derivative_at(lambda s: m.r_matrix(model, s), idp)
        return compare(model, "r.local_jump", (idp,), P * rp, model.rho * w)
    out.append(guarded(model, "r.local_jump", (idp,), local_jump))

    def markov_left():
        R = m.r_matrix(model, x)
        ones = [Fraction(1)] * 4
        return compare(model, "r.markov_left", (x,), _row_times(ones, R), ones)
    out.append(guarded(model, "r.markov_left", (x,), markov_left))

    if model.name == m.RD:
        out.append(skipped(model, "r.markov_vector", (x,),
                           "no scalar Markovian vector for this model"))
    else:
        y = x2 if x2 is not None else _aux_point(model, x)

        def markov_vec():
            v1 = m.markov_vector(model, x)
            v2 = m.markov_vector(model, y)
            vv = [v1[0] * v2[0], v1[0] * v2[1], v1[1] * v2[0], v1[1] * v2[1]]
            R = m.r_matrix(model, conv.compose(x, y))
            return compare(model, "r.markov_vector", (x, y), R.apply(vv), vv)
        out.append(guarded(model, "r.markov_vector", (x, y), markov_vec))
    return out


def _aux_point(model: ModelDescriptor, x):
    """Deterministic second point compose-safe with x."""
    from .sampling import model_safe, pair_safe
    step = Fraction(1)
    for _ in range(64):
        for cand in (x + step, x - step):
            if cand != x and model_safe(model, cand) and \
                    pair_safe(model, x, cand) and pair_safe(model, cand, x):
                return cand
        step += 1
    raise RuntimeError("no compose-safe auxiliary point found")


# ---------------------------------------------------------- reflection eqs

def check_reflection(model: ModelDescriptor, kind: str, x1, x2,
                     k_fn=None) -> CheckReport:
    conv = model.convention
    pts = (x1, x2)
    name = f"reflection.{kind}"
    if kind == "Ktilde" and model.name == m.TASEP:
        return skipped(model, name, pts, "partial transpose singular")

    def kmat(z):
        return k_fn(z) if k_fn is not None else m.k_matrix(model, kind, z)

    def run():
        if kind == "K":
            K1 = kron(kmat(x1), I2)
            K2 = kron(I2, kmat(x2))
            rc = conv.reflect_compose(x1, x2)
            lhs = m.r_matrix(model, conv.compose(x1, x2)) * K1 * \
                m.r_matrix_swapped(model, rc) * K2
            rhs = K2 * m.r_matrix(model, rc) * K1 * \
                m.r_matrix_swapped(model, conv.compose(x1, x2))
        elif kind == "Kbar":
            K1 = kron(kmat(x1), I2)
            K2 = kron(I2, kmat(x2))
            irc = conv.invert(conv.reflect_compose(x1, x2))
            lhs = m.r_matrix_swapped(model, conv.compose(x2, x1)) * K1 * \
                m.r_matrix(model, irc) * K2
            rhs = K2 * m.r_matrix_swapped(model, irc) * K1 * \
                m.r_matrix(model, conv.compose(x2, x1))
        elif kind == "Ktilde":
            K1 = kron(kmat(x1), I2)
            K2 = kron(I2, kmat(x2))
            rc = conv.reflect_compose(x1, x2)
            c21 = conv.compose(x2, x1)
            inv21 = partial_transpose(
                inverse(partial_transpose(m.r_matrix_swapped(model, rc), 1)), 1)
            inv12 = partial_transpose(
                inverse(partial_transpose(m.r_matrix(model, rc), 2)), 2)
            lhs = K2 * inv21 * K1 * m.r_matrix_swapped(model, c21)
            rhs = m.r_matrix(model, c21) * K1 * inv12 * K2
        else:
            raise ValueError(f"unknown reflection kind {kind!r}")
        return compare(model, name, pts, lhs, rhs)

    return guarded(model, name, pts, run)


# ---------------------------------------------------------- K properties

def check_k_properties(model: ModelDescriptor, kind: str, x, twist=None,
                       u_points=None) -> list:
    """Unitarity, regularity, boundary jump and the Markovian properties of
    K or Kbar at x.  ``u_points`` are the points of the markov_u solve
    (x and two auxiliary points), drawn here when absent."""
    conv = model.convention
    idp = model.identity_point
    out = []
    name = f"k.{kind}"
    if kind == "Ktilde":
        return [skipped(model, f"{name}.properties", (x,),
                        "dual matrix: covered by the dual reflection checks")]
    if twist is not None:
        if model.name != m.ASEP:
            return [skipped(model, f"{name}.twisted", (x,), "twist is ASEP-only")]
        kf = m.general_asep_k(model.alpha, model.gamma, model.q, twist)
    else:
        kf = lambda z: m.k_matrix(model, kind, z)

    out.append(guarded(model, f"{name}.unitarity", (x,), lambda: compare(
        model, f"{name}.unitarity", (x,), kf(x) * kf(conv.invert(x)), I2)))

    out.append(guarded(model, f"{name}.regularity", (idp,), lambda: compare(
        model, f"{name}.regularity", (idp,), kf(idp), I2)))

    def boundary_jump():
        _, B, Bbar = m.local_operators(model)
        eps = Fraction(1) if kind == "K" else Fraction(-1)
        target = B if kind == "K" else Bbar
        if twist is not None:
            tau = Fraction(twist)
            target = Matrix([[-model.alpha, model.gamma / tau],
                             [tau * model.alpha, -model.gamma]])
        kp = derivative_at(kf, idp)
        return compare(model, f"{name}.boundary_jump", (idp,), kp,
                       (2 * model.rho * eps) * target)
    out.append(guarded(model, f"{name}.boundary_jump", (idp,), boundary_jump))

    if twist is not None and twist != 1:
        out.append(skipped(model, f"{name}.markov_left", (x,),
                           "twisted matrix does not satisfy the Markovian property"))
        out.append(skipped(model, f"{name}.markov_u", (x,),
                           "twisted matrix does not satisfy the Markovian property"))
        return out

    def markov_left():
        ones = [Fraction(1), Fraction(1)]
        return compare(model, f"{name}.markov_left", (x,),
                       _row_times(ones, kf(x)), ones)
    out.append(guarded(model, f"{name}.markov_left", (x,), markov_left))

    def markov_u():
        if _u_solution_dim(model, kf, u_points or _u_points(model, x)) >= 1:
            return CheckReport(model.name, f"{name}.markov_u", _fmt_points((x,)),
                               PASS)
        return failed(model, f"{name}.markov_u", (x,),
                      {"row": 0, "col": 0, "lhs": "0-dimensional u space",
                       "rhs": ">= 1"})
    out.append(guarded(model, f"{name}.markov_u", (x,), markov_u))
    return out


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
        ip = conv.invert(p)
        for comp in range(2):
            row = []
            for bc, mono in basis:
                val = K.a[comp][bc] * mono(ip)
                if bc == comp:
                    val -= mono(p)
                row.append(val)
            rows.append(row)
    return len(basis) - rank(Matrix(rows))


# ------------------------------------------------- dual-map consistency

def check_dual_maps(model: ModelDescriptor, x) -> list:
    """ktilde_from_kbar against the catalogue Ktilde, and the round trip
    back to Kbar."""
    out = []
    if model.name == m.TASEP:
        out.append(skipped(model, "dual.map_vs_catalog", (x,),
                           "partial transpose singular"))
        out.append(skipped(model, "dual.roundtrip", (x,),
                           "partial transpose singular"))
        return out

    def map_vs_catalog():
        lhs = m.ktilde_from_kbar(model, x)
        rhs = m.k_matrix(model, "Ktilde", x)
        return compare(model, "dual.map_vs_catalog", (x,), lhs, rhs)
    out.append(guarded(model, "dual.map_vs_catalog", (x,), map_vs_catalog))

    def roundtrip():
        lhs = m.kbar_from_ktilde(model, x)
        rhs = m.k_matrix(model, "Kbar", x)
        return compare(model, "dual.roundtrip", (x,), lhs, rhs)
    out.append(guarded(model, "dual.roundtrip", (x,), roundtrip))
    return out


# ------------------------------------------------------ named symmetries

def check_named_symmetries(model: ModelDescriptor, x) -> list:
    if model.name == m.SSEP:
        return _ssep_symmetries(model, x)
    if model.name == m.ASEP:
        return _asep_symmetries(model, x)
    return [skipped(model, "symmetry", (x,), "no named symmetry list for this model")]


def _ssep_symmetries(model: ModelDescriptor, x) -> list:
    out = []
    V = Matrix([[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]])
    Vi = inverse(V)
    R = m.r_matrix(model, x)

    out.append(guarded(model, "symmetry.pt", (x,), lambda: compare(
        model, "symmetry.pt", (x,),
        partial_transpose(partial_transpose(R, 1), 2), R)))
    out.append(guarded(model, "symmetry.swap", (x,), lambda: compare(
        model, "symmetry.swap", (x,), m.r_matrix_swapped(model, x), R)))

    def crossing():
        rhs = (x / (x + 1)) * (kron(V, I2) *
                               partial_transpose(m.r_matrix(model, -x - 1), 2) *
                               kron(Vi, I2))
        return compare(model, "symmetry.crossing", (x,), R, rhs)
    out.append(guarded(model, "symmetry.crossing", (x,), crossing))

    swapped = m.ssep(model.delta, model.gamma, model.beta, model.alpha)
    # K with alpha->delta, gamma->beta

    def ktilde_crossing():
        be, de = model.beta, model.delta
        pre = -(2 * x + 1) / (2 * (x + 1)) * \
            ((x + 1) * (de + be) - 1) / (x * (de + be) + 1)
        rhs = pre * (V * m.k_matrix(swapped, "K", -x - 1).transpose() * Vi)
        return compare(model, "symmetry.ktilde_crossing", (x,),
                       m.k_matrix(model, "Ktilde", x), rhs)
    out.append(guarded(model, "symmetry.ktilde_crossing", (x,), ktilde_crossing))

    def duality():
        big = kron(m.k_matrix(model, "Ktilde", x), I2) * \
            m.r_matrix(model, 2 * x) * permutation_op()
        return compare(model, "symmetry.duality", (x,),
                       m.k_matrix(swapped, "K", x), partial_trace_first(big))
    out.append(guarded(model, "symmetry.duality", (x,), duality))
    return out


def _asep_symmetries(model: ModelDescriptor, x) -> list:
    out = []
    q = model.q
    V = Matrix([[Fraction(0), Fraction(-1)], [q, Fraction(0)]])
    W = Matrix([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
    Mq = Matrix([[q, Fraction(0)], [Fraction(0), Fraction(1)]])
    Vi, Wi, Mi = inverse(V), inverse(W), inverse(Mq)
    R = m.r_matrix(model, x)
    R21 = m.r_matrix_swapped(model, x)

    out.append(guarded(model, "symmetry.t", (x,), lambda: compare(
        model, "symmetry.t", (x,),
        partial_transpose(partial_transpose(R, 1), 2),
        kron(Mq, I2) * R21 * kron(I2, Mi))))

    out.append(guarded(model, "symmetry.p_v", (x,), lambda: compare(
        model, "symmetry.p_v", (x,), R21, kron(V, V) * R * kron(Vi, Vi))))
    out.append(guarded(model, "symmetry.p_w", (x,), lambda: compare(
        model, "symmetry.p_w", (x,), R21, kron(W, W) * R * kron(Wi, Wi))))
    out.append(guarded(model, "symmetry.z2", (x,), lambda: compare(
        model, "symmetry.z2", (x,), R, kron(Mq, Mq) * R * kron(Mi, Mi))))

    def crossing():
        rhs = ((x - 1) / (q * x - 1)) * (
            kron(Mq * V, I2) *
            partial_transpose(m.r_matrix(model, 1 / (q * x)), 2) * kron(Vi, I2))
        return compare(model, "symmetry.crossing", (x,), R, rhs)
    out.append(guarded(model, "symmetry.crossing", (x,), crossing))

    swapped = m.asep(q, model.beta, model.alpha, model.delta, model.gamma)
    # K with alpha->beta, gamma->delta

    def ktilde_crossing():
        be, de = model.beta, model.delta
        pre = (q * x * x - 1) / (x * x - 1) * \
            ((x - 1) * (x * de + be) + x * (q - 1)) / \
            ((q * x - 1) * (q * x * be + de) + q * x * (1 - q))
        lhs = V.transpose() * \
            m.k_matrix(model, "Ktilde", 1 / (q * x)).transpose() * Vi
        rhs = pre * (Mq * W * m.k_matrix(swapped, "K", x) * Wi)
        return compare(model, "symmetry.ktilde_crossing", (x,), lhs, rhs)
    out.append(guarded(model, "symmetry.ktilde_crossing", (x,), ktilde_crossing))

    def duality():
        # multiplicative analog: R(x^2), not the additive-looking R(2x)
        big = kron(m.k_matrix(model, "Ktilde", x), I2) * \
            m.r_matrix(model, x * x) * permutation_op()
        lhs = W * m.k_matrix(swapped, "K", x) * Wi
        return compare(model, "symmetry.duality", (x,), lhs,
                       partial_trace_first(big))
    out.append(guarded(model, "symmetry.duality", (x,), duality))
    return out


# --------------------------------------------------------------- the suite

def run_model_suite(model: ModelDescriptor, points: list) -> list:
    """Every applicable check at the given sample points, in a fixed order."""
    reports = []
    n = len(points)
    for i, x in enumerate(points):
        x2 = points[(i + 1) % n] if n > 1 else None
        x3 = points[(i + 2) % n] if n > 2 else None
        if x2 is not None and x3 is not None:
            reports.append(check_yang_baxter(model, x, x2, x3))
        reports.extend(check_r_properties(model, x, x2))
        if x2 is not None:
            reports.append(check_reflection(model, "K", x, x2))
            reports.append(check_reflection(model, "Kbar", x, x2))
            reports.append(check_reflection(model, "Ktilde", x, x2))
        u_points = _u_points(model, x)
        reports.extend(check_k_properties(model, "K", x, u_points=u_points))
        reports.extend(check_k_properties(model, "Kbar", x, u_points=u_points))
        reports.extend(check_dual_maps(model, x))
        reports.extend(check_named_symmetries(model, x))
        if model.name == m.ASEP:
            kf = m.general_asep_k(model.alpha, model.gamma, model.q, TWIST)
            if x2 is not None:
                rep = check_reflection(model, "K", x, x2, k_fn=kf)
                reports.append(replace(rep, check="reflection.K_twisted"))
            for rep in check_k_properties(model, "K", x, twist=TWIST,
                                          u_points=u_points):
                reports.append(replace(rep, check=rep.check.replace(
                    "k.K", "k.K_twisted", 1)))
    return reports
