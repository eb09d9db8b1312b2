"""Output checks made apart from the program.

Each check returns a list of problems (empty when the output is right).
Bound-suite records are judged from their own fields and the documented
verdict contract; numerical radii are judged against numpy's own eigen and
norm routines and against a certified upper bound computed here.
"""

from __future__ import annotations

import math

import numpy as np

from numrad import bounds

# kinds whose members are normal matrices, so w(T) is the spectral radius
NORMAL_KINDS = ("hermitian", "normal", "unitary", "diagonal")

REL = 1e-12  # rounding slack for identities the program computes exactly
EIG_REL = 1e-9  # slack for w against an independent eigensolver


def failed_status(status: str) -> bool:
    return status.startswith("error-")


def verdict(rec) -> str:
    """The status a record must carry, derived from its own fields."""
    scale = max(1.0, abs(rec.lhs_lower), abs(rec.norm_term))
    if rec.lhs_lower > rec.norm_term + bounds.CERTIFIED_SLACK * scale:
        return "certified-violation"
    if rec.lhs_lower > rec.rhs_refined_est + bounds.POINTWISE_SLACK * scale:
        return "inconclusive"
    # every suite trial checks a non-empty sample set pointwise
    return "verified-pointwise" if rec.pointwise_violations == 0 else "consistent"


def check_records(records, rules) -> list[str]:
    """Bound-suite records: verdicts, violations, signs and rule coverage."""
    problems = []
    covered = set()
    for rec in records:
        if failed_status(rec.status):
            continue
        covered.add(rec.theorem)
        tag = f"{rec.theorem} trial {rec.trial} dim {rec.dim}"
        if rec.status != verdict(rec):
            problems.append(f"{tag}: status {rec.status}, fields give {verdict(rec)}")
        if rec.pointwise_violations:
            problems.append(f"{tag}: {rec.pointwise_violations} pointwise violations")
        if rec.dominance_violations:
            problems.append(f"{tag}: {rec.dominance_violations} dominance violations")
        if not rec.refinement_upper >= 0.0:
            problems.append(f"{tag}: refinement_upper {rec.refinement_upper} < 0")
        if rec.rhs_refined_est != rec.norm_term - rec.refinement_upper:
            problems.append(f"{tag}: rhs_refined_est is not norm_term - refinement_upper")
    problems += [f"rule {rule} has no completed trial" for rule in rules if rule not in covered]
    return problems


def check_lemmas(records) -> list[str]:
    return [
        f"{rec.theorem}: {rec.pointwise_violations} violations, status {rec.status}"
        for rec in records
        if rec.pointwise_violations or rec.status != "verified-pointwise"
    ]


def johnson_upper(t: np.ndarray, grid: int = 512, chunk: int = 64) -> float:
    """Certified upper bound max_k lambda_max(H(theta_k)) / cos(pi/m) of w(T).

    The support lines at m equally spaced directions enclose the field of
    values in a polygon whose vertices lie within that radius (Johnson,
    SIAM J. Numer. Anal. 15, 1978).  Phases are processed in chunks so the
    check's own memory stays small next to the program's.
    """
    h1 = (t + t.conj().T) / 2.0
    h2 = (t - t.conj().T) / 2.0j
    thetas = 2.0 * math.pi * np.arange(grid) / grid
    top = -math.inf
    for s in range(0, grid, chunk):
        th = thetas[s : s + chunk, None, None]
        lam = np.linalg.eigvalsh(np.cos(th) * h1 + np.sin(th) * h2)[:, -1]
        top = max(top, float(lam.max()))
    return top / math.cos(math.pi / grid)


def radius_reference(kind: str, t: np.ndarray) -> dict:
    ref = {"norm": float(np.linalg.norm(t, 2)), "upper": johnson_upper(t)}
    if kind in NORMAL_KINDS:
        ref["spectral_radius"] = float(np.max(np.abs(np.linalg.eigvals(t))))
    return ref


def check_radius(tag: str, t: np.ndarray, est, ref: dict) -> list[str]:
    """One numerical_radius result against the independent reference."""
    problems = []
    w = est.value
    norm = ref["norm"]
    if not (norm / 2.0 * (1.0 - REL) <= w <= norm * (1.0 + REL)):
        problems.append(f"{tag}: w={w!r} outside [||T||/2, ||T||] with ||T||={norm!r}")
    if "spectral_radius" in ref and abs(w - ref["spectral_radius"]) > EIG_REL * max(1.0, norm):
        problems.append(f"{tag}: w={w!r} but the spectral radius is {ref['spectral_radius']!r}")
    x = np.asarray(est.witness)
    if abs(np.linalg.norm(x) - 1.0) > REL:
        problems.append(f"{tag}: witness norm {np.linalg.norm(x)!r}")
    again = abs(complex(np.vdot(x, t @ x)))
    if abs(again - w) > REL * max(1.0, w):
        problems.append(f"{tag}: |x*Tx|={again!r} does not reproduce w={w!r}")
    if w > ref["upper"] * (1.0 + REL):
        problems.append(f"{tag}: w={w!r} above the certified upper bound {ref['upper']!r}")
    return problems
