"""Exact modular arithmetic kernels for small-word NTT coefficient math.

Residues are plain ints in ``[0, M)``.  A :class:`ModulusContext` carries the
modulus together with the Barrett shift/multiplier pair used to reduce
products without division.  The default modulus ``2**20 + 2**9 + 1`` gets a
specialised shift-add reducer (:func:`barrett_reduce_fixed`) whose data path
mirrors a fixed 42-bit hardware implementation slice for slice.

Multiplier constants are certified when a context is constructed:
:func:`barrett_first_failure` certifies a pair exactly in O(1) integer
arithmetic, returning the smallest input of the whole domain
``[0, (M-1)**2]`` the reduction gets wrong.  That certificate is the only
Barrett decider: :func:`find_barrett_constants` takes the smallest k whose
u it accepts, and :func:`validate_barrett_constants`, the one check a
context runs when it is built, raises :class:`BarrettConstantError` naming
the input it rejects.
"""

from __future__ import annotations

from ._frozen import Frozen

# A residue is an int in [0, M); the alias only marks intent in signatures.
Residue = int

FIXED_M = 1_049_089             # 2**20 + 2**9 + 1
FIXED_K = 40
FIXED_U_MIN = 1_048_063         # 2**20 - 2**9 - 1, minimal multiplier for k = 40
FIXED_U_SHORTCUT = 1_048_064    # 2**20 - 2**9, one subtracter cheaper but unsound

KARATSUBA_BITS = 22             # default operand width: one headroom bit over 21-bit M

_FIXED_DOMAIN_MAX = (FIXED_M - 1) ** 2

# barrett_reduce_fixed keeps only the 23 low bits of r = value - beta*M.  With
# u = FIXED_U_MIN, beta is q or q-1, so r already lies in [0, 2M), which fits in
# 23 bits: the truncation never changes r.
assert 2 * FIXED_M < 1 << 23


class BarrettConstantError(ValueError):
    """Raised when Barrett constants reduce some input of the domain wrongly."""


class ModulusContext(Frozen):
    """Modulus plus its certified Barrett reduction constants.

    Construction runs :func:`validate_barrett_constants`, so a context
    exists only for a (barrett_k, barrett_u) pair that reduces every input
    of ``[0, (M-1)**2]`` exactly; any other pair raises
    :class:`BarrettConstantError` naming the first input it gets wrong.
    """

    M: int
    barrett_k: int
    barrett_u: int

    def __post_init__(self):
        validate_barrett_constants(self.M, self.barrett_k, self.barrett_u)

    @classmethod
    def create(cls, M: int) -> "ModulusContext":
        """Context with the minimal Barrett constants for M."""
        return cls(M, *find_barrett_constants(M))


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

    The context's constants are certified, so beta = (value * u) >> k is
    the quotient or one below it and one conditional subtraction finishes
    the job.
    """
    M = ctx.M
    if not (0 <= value <= (M - 1) ** 2):
        raise ValueError(f"value {value} outside reducible domain for M={M}")
    r = value - ((value * ctx.barrett_u) >> ctx.barrett_k) * M
    return r - M if r >= M else r


def barrett_reduce_fixed(value: int) -> Residue:
    """Shift-add Barrett reduction for the fixed modulus 2**20 + 2**9 + 1.

    The 42-bit data path uses no general multiplier:

    * ``value * FIXED_U_MIN`` becomes ``(value << 20) - (value << 9) - value``,
      kept pre-scaled as ``r1 = (value * FIXED_U_MIN) >> 20``;
    * ``beta`` is the slice ``r1[41:20]``;
    * ``beta * M`` is subtracted as the three addends ``beta << 20``,
      ``beta << 9`` and ``beta``, each truncated to the 23 low result bits
      (slices ``r1[22:20]``, ``r1[33:20]`` and ``r1[41:20]``);
    * one conditional subtraction of M finishes.

    FIXED_U_MIN is the only multiplier correct at k = 40 over the whole
    domain (:func:`barrett_first_failure`): any larger u has u*M > 2**40, so
    beta overshoots the quotient inside it (the one-subtracter-cheaper
    FIXED_U_SHORTCUT first at 2*M - 1), and any smaller u undershoots it by
    two.
    """
    if not (0 <= value <= _FIXED_DOMAIN_MAX):
        raise ValueError(f"value {value} outside reducible domain for M={FIXED_M}")
    r1 = ((value << 20) - (value << 9) - value) >> 20
    beta = (r1 >> 20) & 0x3FFFFF                      # r1[41:20]
    low = (value
           - beta                                     # r1[41:20]
           - ((beta & 0x3FFF) << 9)                   # r1[33:20] << 9
           - ((beta & 0x7) << 20)) & 0x7FFFFF         # r1[22:20] << 20
    return low - FIXED_M if low >= FIXED_M else low


def find_barrett_constants(M: int) -> tuple[int, int]:
    """Smallest k >= M.bit_length() whose u = floor(2**k / M) the certificate
    :func:`barrett_first_failure` accepts, returned as (k, u)."""
    if M < 2:
        raise ValueError(f"modulus must be >= 2, got {M}")
    # With r = 2**k mod M, the certificate accepts (k, u) exactly when
    # 2**k >= (M-2) * r; the textbook error bound (M-1)**2 * r < M * 2**k
    # accepts the same pairs except where 2**k == (M-2) * r, which odd
    # M >= 3 rules out.  So for odd M this is the textbook minimal pair
    # (the even M = 6 gets a smaller k).
    k = M.bit_length()          # smallest k with 2**k > M
    while barrett_first_failure(M, k, (1 << k) // M) is not None:
        k += 1
    return k, (1 << k) // M


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


def validate_barrett_constants(M: int, k: int, u: int) -> None:
    """Raise :class:`BarrettConstantError` unless (k, u) reduces every input
    of [0, (M-1)**2] exactly; the message names the first input
    :func:`barrett_first_failure` finds wrong."""
    bad = barrett_first_failure(M, k, u)
    if bad is not None:
        raise BarrettConstantError(f"(k={k}, u={u}) fails for M={M} at I={bad}")
