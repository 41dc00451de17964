"""Corrections to commonly stated closed forms, with oracle evidence.

Four of the stated formulas for this construction are wrong as written; the
enumeration oracle pins down the correct versions, which is what the rest of
the package implements.  Each entry records where the discrepancy sits, the
stated (published) form, and the oracle-confirmed form.  The stated variants
stay available for diagnostics (``published_isotropic_row`` in
:mod:`conicwalk.hypergroup`, :func:`published_f_discriminant`,
:func:`published_six_step_reference` here).
"""

from __future__ import annotations

from fractions import Fraction

from .conic_geometry import ConicParams, f_discriminant, index_set
from .finite_field import FieldElement


def errata_entries() -> list[dict]:
    """The machine-readable errata list: {location, published_value, oracle_value}."""
    return [
        {
            "location": "intersection_discriminant_formula",
            "published_value": "f(i,j,k) = i*j - (i - j - k)^2 / 4",
            "oracle_value": (
                "f(i,j,k) = i*j - (i + j - k)^2 / 4"
                " = (2ij + 2jk + 2ki - i^2 - j^2 - k^2)/4, symmetric in i, j, k"
            ),
        },
        {
            "location": "isotropic_times_finite_row_support",
            "published_value": (
                "n[iso,j]^k = 1/(q-1) for every k != j"
                " (row mass q/(q-1) over the split index set)"
            ),
            "oracle_value": (
                "n[iso,j]^k = 1/(q-1) for k in (F_q^* \\ {j}) union {iso};"
                " n[iso,j]^0 = 0 (row mass 1, identity support preserved)"
            ),
        },
        {
            "location": "four_step_minorization_denominator",
            "published_value": "K^4(i,j) >= q^2 (q-1) / (p+1)^4 * pi(j)",
            "oracle_value": (
                "K^4(i,j) >= q^2 (q-1) / (q+1)^4 * pi(j);"
                " the (p+1)^4 reading exceeds 1 on proper prime powers"
            ),
        },
        {
            "location": "six_step_reference_distribution",
            "published_value": (
                "pi(C_i) = (q+1)/q^2 for i in F_q^*, pi(C_iso) = (2q-1)/q^2"
                " (total mass (q^2 + 2q - 1)/q^2 > 1)"
            ),
            "oracle_value": (
                "pi(C_0) = 1/q^2, pi(C_i) = (q-1)/q^2, pi(C_iso) = (2q-2)/q^2"
                " (class sizes over q^2; satisfies pi K = pi exactly)"
            ),
        },
    ]


def published_f_discriminant(
    i: FieldElement, j: FieldElement, k: FieldElement
) -> FieldElement:
    """The stated, non-symmetric discriminant i*j - (i - j - k)^2 / 4.

    It is f(i, j, k) + j*(i - k), because (i+j-k)^2 - (i-j-k)^2 = 4j(i-k).
    """
    return f_discriminant(i, j, k) + j * (i - k)


def published_six_step_reference(params: ConicParams) -> list[Fraction]:
    """The stated six-step reference vector; does not sum to 1 for q = 1 (mod 4)."""
    q = params.q
    out = []
    for c in index_set(params):
        if c.is_isotropic:
            out.append(Fraction(2 * q - 1, q * q))
        elif c.value.idx == 0:
            out.append(Fraction(1, q * q))
        else:
            out.append(Fraction(q + 1, q * q))
    return out


def errata_report(fresh_mismatches: list[dict] | None = None) -> dict:
    """Full report: the known corrections plus any fresh closed-form/oracle
    mismatches found during a verification run (there should be none)."""
    return {
        "known_corrections": errata_entries(),
        "fresh_mismatches": fresh_mismatches or [],
    }
