"""Exact modular arithmetic kernels for small-word NTT coefficient math.

Residues are plain ints in ``[0, M)``.  A :class:`ModulusContext` carries the
modulus together with the Barrett shift/multiplier pair used to reduce
products without division.  The default modulus ``2**20 + 2**9 + 1`` gets a
specialised shift-add reducer (:func:`barrett_reduce_fixed`) whose data path
mirrors a fixed 42-bit hardware implementation slice for slice.

Multiplier constants are never trusted blindly: :func:`find_barrett_constants`
derives the minimal pair by an exact integer error bound,
:func:`barrett_first_failure` certifies a pair exactly in O(1) integer
arithmetic, and :func:`validate_barrett_constants` independently sweeps the
full reduction procedure against ``I % M`` over boundary-structured and
randomly sampled inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as _np

# A residue is an int in [0, M); the alias only marks intent in signatures.
Residue = int

FIXED_M = 1_049_089             # 2**20 + 2**9 + 1
FIXED_K = 40
FIXED_U_MIN = 1_048_063         # 2**20 - 2**9 - 1, minimal multiplier for k = 40
FIXED_U_SHORTCUT = 1_048_064    # 2**20 - 2**9, one subtracter cheaper - see gate below

KARATSUBA_BITS = 22             # default operand width: one headroom bit over 21-bit M

_FIXED_DOMAIN_MAX = (FIXED_M - 1) ** 2

# barrett_reduce_fixed keeps only the 23 low bits of r = value - beta*M.  For a
# certified u, beta is q or q-1, so r already lies in [0, 2M), which fits in 23
# bits: the truncation never changes r.
assert 2 * FIXED_M < 1 << 23

# u values barrett_reduce_fixed will accept.  FIXED_U_MIN ships certified; the
# cheaper FIXED_U_SHORTCUT may only be added by certify_fixed_u() after it
# passes the exact certificate (it does not: see the gate's counterexample).
_CERTIFIED_FIXED_U = {FIXED_U_MIN}


class BarrettConstantError(ValueError):
    """Raised when Barrett constants fail a precondition or the gate."""


@dataclass(frozen=True)
class ModulusContext:
    """Modulus plus reduction constants for one coefficient ring.

    ``width`` is the register width for residues (ceil(log2 M) plus one
    headroom bit).  ``u_validated`` records whether (barrett_k, barrett_u)
    passed the domain-correctness gate for all inputs up to ``(M-1)**2``.
    """

    M: int
    width: int
    barrett_k: int
    barrett_u: int
    u_validated: bool = False

    def __post_init__(self):
        if self.M < 2:
            raise ValueError(f"modulus must be >= 2, got {self.M}")
        if self.width < self.M.bit_length():
            raise ValueError(
                f"width {self.width} cannot hold residues of modulus {self.M}")
        if self.barrett_k < self.M.bit_length():
            raise BarrettConstantError(
                f"barrett_k={self.barrett_k} too small for M={self.M}")

    @classmethod
    def create(cls, M: int) -> "ModulusContext":
        """Derive minimal Barrett constants for M and certify them exactly."""
        k, u = find_barrett_constants(M)
        bad = barrett_first_failure(M, k, u)
        if bad is not None:
            # Cannot happen for constants from find_barrett_constants; guard anyway.
            raise BarrettConstantError(
                f"derived constants (k={k}, u={u}) failed the gate at I={bad}")
        return cls(M=M, width=M.bit_length() + 1, barrett_k=k, barrett_u=u,
                   u_validated=True)

    @property
    def error_nonnegative(self) -> bool:
        """True when e = 1/M - u/2**k >= 0, i.e. beta never overestimates."""
        return self.barrett_u * self.M <= (1 << self.barrett_k)


def mod_add(a: Residue, b: Residue, ctx: ModulusContext) -> Residue:
    """(a + b) mod M with a single conditional correction, no division."""
    s = a + b
    return s - ctx.M if s >= ctx.M else s


def mod_sub(a: Residue, b: Residue, ctx: ModulusContext) -> Residue:
    """(a - b) mod M with a single conditional correction, no division."""
    d = a - b
    return d + ctx.M if d < 0 else d


def karatsuba_mul(a: int, b: int, l: int = KARATSUBA_BITS) -> int:
    """Exact product of two l-bit operands using one Karatsuba level.

    Splits each operand into l/2-bit halves and forms the product from
    exactly three half-width multiplications.  The middle-term sums may
    carry one bit past l/2; the carry rides along explicitly rather than
    triggering a further split.
    """
    if l <= 0 or l % 2:
        raise ValueError(f"operand width l must be a positive even int, got {l}")
    bound = 1 << l
    if not (0 <= a < bound and 0 <= b < bound):
        raise ValueError(f"operands must lie in [0, 2**{l}): got {a}, {b}")
    half = l >> 1
    mask = (1 << half) - 1
    a_hi, a_lo = a >> half, a & mask
    b_hi, b_lo = b >> half, b & mask
    z2 = a_hi * b_hi
    z0 = a_lo * b_lo
    mid = (a_hi + a_lo) * (b_hi + b_lo) - z2 - z0
    return (z2 << l) + (mid << half) + z0


def barrett_reduce_generic(value: int, ctx: ModulusContext) -> Residue:
    """Reduce ``value`` (up to (M-1)**2) to [0, M) via shift-multiply Barrett.

    beta = (value * u) >> k approximates the quotient from below, so one
    conditional subtraction finishes the job.  Contexts whose error term is
    negative (u too large, beta may overestimate) are rejected unless the
    validation gate has certified them.
    """
    M = ctx.M
    if not (0 <= value <= (M - 1) ** 2):
        raise ValueError(f"value {value} outside reducible domain for M={M}")
    if not ctx.error_nonnegative and not ctx.u_validated:
        raise BarrettConstantError(
            f"(k={ctx.barrett_k}, u={ctx.barrett_u}) has negative error term "
            f"and is not gate-certified for M={M}")
    r = value - ((value * ctx.barrett_u) >> ctx.barrett_k) * M
    return r - M if r >= M else r


def barrett_reduce_fixed(value: int, u: int = FIXED_U_MIN) -> Residue:
    """Shift-add Barrett reduction for the fixed modulus 2**20 + 2**9 + 1.

    The 42-bit data path uses no general multiplier:

    * ``value * u`` becomes ``(value << 20) - (value << 9) [- value]``,
      kept pre-scaled as ``r1 = (value * u) >> 20``;
    * ``beta`` is the slice ``r1[41:20]``;
    * ``beta * M`` is subtracted as the three addends ``beta << 20``,
      ``beta << 9`` and ``beta``, each truncated to the 23 low result bits
      (slices ``r1[22:20]``, ``r1[33:20]`` and ``r1[41:20]``);
    * one conditional subtraction of M finishes.

    Only gate-certified multipliers are accepted; the nominally cheaper
    FIXED_U_SHORTCUT stays locked out unless certify_fixed_u() passes it.
    """
    if not (0 <= value <= _FIXED_DOMAIN_MAX):
        raise ValueError(f"value {value} outside reducible domain for M={FIXED_M}")
    if u not in _CERTIFIED_FIXED_U:
        raise BarrettConstantError(
            f"u={u} is not certified for the fixed reducer; run certify_fixed_u")
    if u == FIXED_U_SHORTCUT:
        r1 = ((value << 20) - (value << 9)) >> 20
    else:
        r1 = ((value << 20) - (value << 9) - value) >> 20
    beta = (r1 >> 20) & 0x3FFFFF                      # r1[41:20]
    low = (value
           - beta                                     # r1[41:20]
           - ((beta & 0x3FFF) << 9)                   # r1[33:20] << 9
           - ((beta & 0x7) << 20)) & 0x7FFFFF         # r1[22:20] << 20
    return low - FIXED_M if low >= FIXED_M else low


def find_barrett_constants(M: int) -> tuple[int, int]:
    """Smallest (k, u) with u = floor(2**k / M) whose quotient error is safe.

    The approximation error e = 1/M - u/2**k must stay small enough that
    beta = (I*u) >> k underestimates the true quotient by at most one for
    every I up to (M-1)**2, i.e. e * (M-1)**2 < 1.  Checked exactly in
    integers: (M-1)**2 * (2**k - u*M) < M * 2**k.
    """
    if M < 2:
        raise ValueError(f"modulus must be >= 2, got {M}")
    sq = (M - 1) ** 2
    k = M.bit_length()          # smallest k with 2**k > M
    while True:
        pow2 = 1 << k
        u = pow2 // M
        if sq * (pow2 - u * M) < M * pow2:
            return k, u
        k += 1


def barrett_first_failure(M: int, k: int, u: int) -> int | None:
    """Smallest I in [0, (M-1)**2] that Barrett reduction with (k, u) gets wrong.

    With q = I // M, one conditional subtraction yields I % M exactly when
    beta = (I*u) >> k is q or q - 1.  beta is monotone in I, so within each
    quotient block [qM, qM + M) overestimates form a suffix and
    underestimates by two or more a prefix; the first bad block and its
    first bad input follow in closed form.  Returns None when (k, u) is
    correct on the whole domain.
    """
    if M < 2 or k < 1 or u < 1:
        raise ValueError("need M >= 2, k >= 1, u >= 1")
    top = (M - 1) ** 2
    pow2 = 1 << k
    d = u * M - pow2
    if d > 0:
        # beta >= q + 1 first at the end of block q once (q + 1) * d >= u;
        # inside that block from the first I with I*u >= (q + 1) * 2**k
        q = -(-u // d) - 1
        first = max(q * M, -(-(q + 1) * pow2 // u))
        return first if first <= min(q * M + M - 1, top) else None
    if d < 0:
        # beta <= q - 2 first at the start of block q once q * (2**k - uM) > 2**k
        q = pow2 // -d + 1
        return q * M if q * M <= top else None
    return None


@dataclass(frozen=True)
class BarrettVerdict:
    valid: bool
    first_counterexample: int | None
    tested: int


def validate_barrett_constants(M: int, k: int, u: int, *,
                               samples: int = 100_000,
                               seed: int = 0) -> BarrettVerdict:
    """Empirically gate a candidate (k, u) pair over the full input domain.

    Runs the reduction procedure (beta = (I*u) >> k; r = I - beta*M; one
    conditional subtraction) against I % M for:

    * boundary-structured inputs: every q*M - 1, q*M, q*M + 1 reachable
      below (M-1)**2, plus 0, 1 and (M-1)**2 itself;
    * ``samples`` uniform draws from [0, (M-1)**2], seeded.

    Returns the verdict with the smallest failing input *among those
    tested*; ``tested`` counts distinct inputs per family.  On the int64
    path the valid/invalid verdict is exact: every run of overestimates
    ends at some (q+1)*M - 1 or at (M-1)**2, and every run of
    underestimates by two or more starts at some q*M, so any failure
    reaches the boundary family.  The smallest failing input itself may
    lie earlier in its run; :func:`barrett_first_failure` gives it.  The
    scalar path (moduli too wide for int64) caps the boundary family at
    4096 blocks, so there a failure in a later block is found only if a
    sample happens to hit it: that verdict is not exact.
    """
    if M < 2 or k < 1 or u < 1:
        raise ValueError("need M >= 2, k >= 1, u >= 1")
    top = (M - 1) ** 2
    worst: int | None = None
    tested = 0

    # int64 throughout the vectorised path: I*u and beta*M must both fit.
    fits64 = top * u < (1 << 62) and (top // M + 2) * M < (1 << 62)
    if fits64:
        def check_block(arr) -> int | None:
            # consumes ``arr`` (sorted in place, dropped once deduplicated):
            # given a fresh array, only the deduplicated copy and r stay alive
            # at full size, and r is updated in place
            nonlocal tested
            arr.sort()
            keep = _np.ones(arr.size, dtype=bool)
            keep[1:] = arr[1:] != arr[:-1]
            arr = arr[keep]
            del keep
            tested += arr.size
            r = arr * u
            r >>= k                         # beta
            r *= M
            _np.subtract(arr, r, out=r)     # I - beta*M
            r[r >= M] -= M
            # r is I minus a multiple of M, so r == I % M iff 0 <= r < M
            bad = arr[(r < 0) | (r >= M)]
            return int(bad.min()) if bad.size else None

        def boundary_family():
            q_max = top // M
            family = _np.empty(3 * q_max + 3, dtype=_np.int64)
            family[:3] = (0, 1, top)
            rows = family[3:].reshape(q_max, 3)     # q*M - 1, q*M, q*M + 1
            rows[:, 1] = _np.arange(M, q_max * M + 1, M, dtype=_np.int64)
            _np.subtract(rows[:, 1], 1, out=rows[:, 0])
            _np.add(rows[:, 1], 1, out=rows[:, 2])
            # only the last q*M + 1 can pass top
            return family[:-1] if q_max and q_max * M + 1 > top else family

        worst = check_block(boundary_family())
        if samples > 0:
            nprng = _np.random.default_rng(seed)
            draws = nprng.integers(0, top + 1, size=samples, dtype=_np.int64)
            hit = check_block(draws)
            if hit is not None and (worst is None or hit < worst):
                worst = hit
    else:
        rng = random.Random(seed)
        def check_one(value: int):
            nonlocal worst, tested
            tested += 1
            r = value - ((value * u) >> k) * M
            if r >= M:
                r -= M
            if r != value % M and (worst is None or value < worst):
                worst = value

        q_max = min(top // M, 4096)   # wide moduli: cap the structured family
        for q in range(1, q_max + 1):
            for value in (q * M - 1, q * M, q * M + 1):
                if 0 <= value <= top:
                    check_one(value)
        for value in (0, 1, top):
            check_one(value)
        for _ in range(samples):
            check_one(rng.randrange(top + 1))

    return BarrettVerdict(valid=worst is None, first_counterexample=worst,
                          tested=tested)


def certify_fixed_u(u: int) -> BarrettVerdict:
    """Gate a multiplier for the fixed reducer; unlock it only on a pass.

    The shortcut constant FIXED_U_SHORTCUT saves one subtracter in the
    beta path but overshoots the true quotient for some inputs; running it
    through this gate reports the first such input instead of silently
    producing wrapped negatives.  The verdict is exact over the whole
    domain [0, (M-1)**2] (:func:`barrett_first_failure`), so ``tested``
    counts every input in it.
    """
    bad = barrett_first_failure(FIXED_M, FIXED_K, u)
    if bad is None:
        _CERTIFIED_FIXED_U.add(u)
    return BarrettVerdict(valid=bad is None, first_counterexample=bad,
                          tested=_FIXED_DOMAIN_MAX + 1)
