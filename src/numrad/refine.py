"""Scalar refinement machinery for weighted Young-type comparisons.

The correction subtracted from the weighted arithmetic mean is a sum of
levels.  Level j is driven by the floor indices r_j = floor(2^j nu) and
k_j = floor(2^(j-1) nu); its weight equals the distance from 2^(j-1) nu
to the nearest integer, so every weight is nonnegative and all weights
vanish exactly when nu is dyadic of level <= j.  The level-1 truncation
recovers the classical min(nu, 1-nu) * (sqrt(a) - sqrt(b))^2 correction.
The level weights and bracket exponents of each (nu, levels, mode) are
computed once and cached; the batched kernel only raises a and b to them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

MAX_LEVELS = 32

# Snap 2^j * nu to an integer when it is this close; floating-point noise in
# nu must not flip a floor index.
_SNAP = 1e-12


@dataclass(frozen=True)
class RefinementParams:
    """Weight nu in [0, 1] and the number of correction levels."""

    nu: float
    levels: int = 1

    def __post_init__(self):
        if not (0.0 <= self.nu <= 1.0):
            raise DomainError(f"nu must lie in [0, 1], got {self.nu}")
        if not (1 <= int(self.levels) <= MAX_LEVELS):
            raise DomainError(f"levels must lie in 1..{MAX_LEVELS}, got {self.levels}")


@dataclass(frozen=True)
class LevelIndices:
    level: int
    r: int
    k: int
    weight: float


def _snaps(x: np.ndarray) -> np.ndarray:
    return np.abs(x - np.round(x)) <= _SNAP * np.maximum(1.0, np.abs(x))


def _snap_floor(x: np.ndarray) -> np.ndarray:
    return np.where(_snaps(x), np.round(x), np.floor(x)).astype(np.int64)


def _level(j: int, nu):
    """r_j, k_j, the weight and the bracket exponents of level j.

    ``nu`` is a float or an array of them; so are the results.  Where 2^j nu
    snaps to r, the weight is that of the snapped index: 0 for even r, 1/2
    for odd r.  np.round rounds half to even, as Python's round does.
    Level j's squared bracket is (b^e_b1 a^e_a1 - a^e_a2 b^e_b2)^2 with the
    exponents (e_b1, e_a1, e_a2, e_b2); e_b2 < 0 only where 2^(j-1) nu snaps
    to 2^(j-1), at nu = 1 and within the snap tolerance below it, and the
    weight vanishes there.
    """
    scaled = 2.0 ** (j - 1) * np.asarray(nu, dtype=np.float64)  # exact: power-of-two scaling
    r = _snap_floor(2.0 * scaled)
    k = _snap_floor(scaled)
    scaled = np.where(_snaps(2.0 * scaled), r / 2.0, scaled)
    sign = np.where(r % 2 == 0, 1.0, -1.0)
    weight = sign * scaled - sign * ((r + 1) // 2)
    two_j, half = 2.0**j, 2.0 ** (j - 1)
    exponents = ((half - k) / two_j, k / two_j, (k + 1) / two_j, (half - k - 1) / two_j)
    return r, k, weight, exponents


def level_indices(level: int, nu: float) -> LevelIndices:
    """Floor indices and weight for one refinement level.

    weight = (-1)^r * 2^(level-1) * nu + (-1)^(r+1) * floor((r+1)/2),
    which is always >= 0 for nu in [0, 1].
    """
    if not (1 <= int(level) <= MAX_LEVELS):
        raise DomainError(f"level must lie in 1..{MAX_LEVELS}, got {level}")
    if not (0.0 <= nu <= 1.0):
        raise DomainError(f"nu must lie in [0, 1], got {nu}")
    r, k, weight, _ = _level(int(level), nu)
    return LevelIndices(level=int(level), r=int(r), k=int(k), weight=float(weight))


def printed_heinz_weight(li: LevelIndices) -> float:
    """The nu-free level weight (-1)^r 2^(j-1) + (-1)^(r+1) floor((r+1)/2).

    Kept verbatim for evidence; it can be negative (e.g. nu=0.3, level 2
    gives -1), so it is never used where nonnegativity is required.
    """
    sign = -1.0 if li.r % 2 else 1.0
    return sign * 2.0 ** (li.level - 1) - sign * ((li.r + 1) // 2)


@functools.lru_cache(maxsize=256)
def _level_terms(nu: float, levels: int, mode: str) -> tuple[tuple[float, ...], ...]:
    """Weight and bracket exponents (w, e_b1, e_a1, e_a2, e_b2) of each level with w != 0.

    The "young" and "printed_heinz" weights vanish where e_b2 < 0 (see
    ``_level``), so only the "half" mode keeps such a level.
    """
    terms = []
    for j in range(1, levels + 1):
        li = level_indices(j, nu)
        if mode == "young":
            w = li.weight
        elif mode == "half":
            w = 0.5
        elif mode == "printed_heinz":
            w = printed_heinz_weight(li)
        else:
            raise DomainError(f"unknown weight mode {mode!r}")
        if w == 0.0:
            continue
        terms.append((w, *(float(e) for e in _level(j, nu)[3])))
    return tuple(terms)


def weighted_bracket_sum(
    a, b, nu: float, levels: int, mode: str = "young", grad=None
) -> np.ndarray:
    """Sum over levels of weight_j * bracket_j(a, b)^2, vectorized in a, b.

    Modes select the level weights:
      "young"         the nonnegative weights of the refined Young comparison
      "half"          1/2 at every level (printed form of the sandwich bound)
      "printed_heinz" the nu-free printed Heinz weights (may be negative)

    Inputs are clamped at zero; the 0^0 = 1 convention applies.  A kept
    level whose b exponent is negative (the "half" mode at nu = 1 and
    within the snap tolerance below it) is undefined at b = 0, so a zero b
    there raises DomainError.

    ``grad``, a pair (da, db) of float arrays of the output's shape, is
    filled in place with the derivatives of each output entry by its a and
    its b.  A derivative is 0 where its argument is 0 after clamping (there
    the true one is 0 or unbounded).  The values returned are the same bits
    with or without ``grad``.
    """
    a = np.maximum(np.asarray(a, dtype=np.float64), 0.0)
    b = np.maximum(np.asarray(b, dtype=np.float64), 0.0)
    out = np.zeros(np.broadcast(a, b).shape, dtype=np.float64)
    if grad is not None:
        da, db = grad
        da[...] = 0.0
        db[...] = 0.0
    for w, e_b1, e_a1, e_a2, e_b2 in _level_terms(float(nu), int(levels), mode):
        if e_b2 < 0.0 and not b.all():
            raise DomainError(
                f"{mode} weights at nu={nu} keep level exponent {e_b2} < 0, undefined at b = 0"
            )
        first = b**e_b1 * a**e_a1
        second = a**e_a2 * b**e_b2
        t = first - second
        out = out + w * (t * t)
        if grad is not None:
            # a d/da of a monomial a^e b^f is e times the monomial
            wt = (2.0 * w) * t
            da += wt * (e_a1 * first - e_a2 * second)
            db += wt * (e_b1 * first - e_b2 * second)
    if grad is not None:
        for d, x in ((da, a), (db, b)):
            np.divide(d, x, out=d, where=x > 0.0)
            np.copyto(d, 0.0, where=x == 0.0)
    return out


def refinement_S(a: float, b: float, params: RefinementParams) -> float:
    """The total correction S_N(nu) for positive scalars a, b."""
    if a <= 0 or b <= 0:
        raise DomainError(f"refinement requires a, b > 0, got a={a}, b={b}")
    return float(weighted_bracket_sum(a, b, params.nu, params.levels))


def young_refined_gap(a: float, b: float, params: RefinementParams) -> float:
    """nu*a + (1-nu)*b - S_N(nu) - a^nu b^(1-nu); nonnegative in exact arithmetic."""
    if a <= 0 or b <= 0:
        raise DomainError(f"gap requires a, b > 0, got a={a}, b={b}")
    nu = params.nu
    s = refinement_S(a, b, params)
    return nu * a + (1.0 - nu) * b - s - a**nu * b ** (1.0 - nu)


def bracket_sum_vec(a: np.ndarray, b: np.ndarray, nu: np.ndarray, levels: int) -> np.ndarray:
    """Correction sum with elementwise ``nu``; fully vectorized."""
    a = np.maximum(np.asarray(a, dtype=np.float64), 0.0)
    b = np.maximum(np.asarray(b, dtype=np.float64), 0.0)
    nu = np.asarray(nu, dtype=np.float64)
    out = np.zeros(np.broadcast(a, b, nu).shape, dtype=np.float64)
    for j in range(1, int(levels) + 1):
        _, _, w, (e_b1, e_a1, e_a2, e_b2) = _level(j, nu)
        # where the weight vanishes, e_b2 may be negative: 0^e_b2 is inf and
        # its term NaN, and the mask drops it
        with np.errstate(divide="ignore", invalid="ignore"):
            t = b**e_b1 * a**e_a1 - a**e_a2 * b**e_b2
            out = out + np.where(w != 0.0, w * t * t, 0.0)
    return out


def young_refined_gap_many(a, b, nu, levels: int) -> np.ndarray:
    """Vectorized refined-Young gap; ``nu`` may be an array matching a, b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if np.any(a <= 0) or np.any(b <= 0):
        raise DomainError("gap requires a, b > 0")
    nu_arr = np.asarray(nu, dtype=np.float64)
    if np.any(nu_arr < 0) or np.any(nu_arr > 1):
        raise DomainError("nu must lie in [0, 1]")
    if not (1 <= int(levels) <= MAX_LEVELS):
        raise DomainError(f"levels must lie in 1..{MAX_LEVELS}, got {levels}")
    s = bracket_sum_vec(a, b, nu_arr, levels)
    return nu_arr * a + (1.0 - nu_arr) * b - s - a**nu_arr * b ** (1.0 - nu_arr)


def power_mean_rhs(a: float, b: float, nu: float, r: float) -> float:
    """(nu a^r + (1-nu) b^r)^(1/r) for r >= 1; exact arithmetic mix at r = 1."""
    if a <= 0 or b <= 0:
        raise DomainError(f"power mean requires a, b > 0, got a={a}, b={b}")
    if not (0.0 <= nu <= 1.0):
        raise DomainError(f"nu must lie in [0, 1], got {nu}")
    if r < 1.0:
        raise DomainError(f"power mean requires r >= 1, got {r}")
    if r == 1.0:
        return nu * a + (1.0 - nu) * b
    return float((nu * a**r + (1.0 - nu) * b**r) ** (1.0 / r))
