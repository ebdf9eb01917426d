"""Oracles that only the tests use: the Fraction embedding that
``tensor.embed_sum`` is checked against, and the RD current balance of
``ansatz.rd_closed_forms``."""

from fractions import Fraction

from exclusion.ansatz import rd_closed_forms
from exclusion.tensor import Matrix, SparseMatrix, embed_at_positions


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


def rd_current_balance(kappa, alpha, beta, gamma, delta, L: int, i: int) -> Fraction:
    """J^lat_{i-1->i} - J^lat_{i->i+1} - J^eva_{i-1,i} - J^eva_{i,i+1};
    zero in the stationary state."""
    if not 2 <= i <= L - 1:
        raise ValueError("interior site required")
    left = rd_closed_forms(kappa, alpha, beta, gamma, delta, L, i - 1)
    right = rd_closed_forms(kappa, alpha, beta, gamma, delta, L, i)
    return left["current_lat"] - right["current_lat"] \
        - left["current_eva"] - right["current_eva"]
