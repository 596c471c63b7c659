"""Reference negacyclic polynomial multiplication.

Everything here is the plain, array-at-a-time version of the arithmetic: a
schoolbook product computed by two-point Kronecker substitution, as two
exact big-int multiplications of half size, whose even and odd halves
each wrap x**N = -1 in the big-int, which serves as the oracle (its
wrapped slots s_k - s_{k+N} + B lie in [0, 2B] for B a multiple of M, so
none carries or borrows, for coefficients below M < 2**64); a
constant-geometry transform pair on the per-stage twiddle tables, whose
first k = max(0, log2 N - 4) forward stages and last k inverse stages
run on packed blocks, a few big-int operations per block with Shoup's
modular product in [0, 2M) on slots wide enough for N*M (its pairs
(w, w') cached on the table set, ``NttParams.shoup_tables``), and whose
other stages, four from N = 16 on, run two to a pass (four entries read
and four written per loop iteration, after a lone stage in the forward
and before one in the inverse when their count is odd, at N = 8 alone);
and the transform multiplier, an incomplete transform on stage tables
carrying the phi weights and N**-1 (``NttParams.merged_tables``): the
first k_p = max(1, log2 N - 5) packed forward stages on each operand
leave 2**k_p leaves, block c the operand mod x**L - zeta_c with
L = N >> k_p = min(N/2, 32) and zeta_c the square of stage k_p + 1's
twiddle c; one big-int product per leaf, whose slots of 2*beta bits hold
its coefficient sums without a carry; a fold mod x**L - zeta_c, scaled
by L, by four Shoup products on the slots' beta-bit halves and one by 1,
into [0, 2M); and the last k_p packed inverse stages, with the offset
C = 2**k_p * M, after which one conditional subtraction of M, made on
all N packed slots at once, leaves every coefficient in [0, M).  The
multiplier's slots are sized by its own bounds, not by N*M, since it
runs only k_p stages each way: every Shoup input is below
max(8M, 2**(k_p+1) * M) <= 2**beta and every leaf slot below
L*((2*k_p + 1)*M)**2 <= 2**(2*beta), for beta the smallest multiple of 4,
so that a slot is beta/4 whole bytes, which one struct call each way
packs and unpacks (``_product_packing``); the transform pair keeps its
N*M slots.  Its constants are derived on first use and kept on their
table set (``NttParams.leaf_constants`` and
``NttParams.shoup_tables``).  The streaming pipeline model in
:mod:`nttmul.pipesim` returns the schoolbook's products: a
``PipelineConfig`` exists only once its stages' network is proved a tree
of CRT splits that, on the config's tables, computes a*b mod x**N + 1
for every input (``pipesim._network_proof`` and
``pipesim._table_proof``).  Those proofs do not read this transform,
which rests on its own tests.

Polynomials carry one tag besides their coefficients: ``domain`` says which
side of the transform the values live on (``coefficient`` or ``evaluation``).
Entries are always in natural order.
"""

from __future__ import annotations

import reprlib
import struct
from functools import lru_cache
from itertools import chain
from operator import add, sub

from ._frozen import Frozen
from .params import NttParams, bit_reverse_index

DOMAINS = ("coefficient", "evaluation")


class Polynomial(Frozen):
    coeffs: tuple[int, ...]
    modulus: int
    domain: str = "coefficient"

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if self.domain not in DOMAINS:
            raise ValueError(f"unknown domain tag {self.domain!r}")
        n = len(self.coeffs)
        if n == 0 or n & (n - 1):
            raise ValueError(f"length {n} is not a power of two")
        M, cs = self.modulus, self.coeffs
        if set(map(type, cs)) != {int}:
            bad = next(c for c in cs if type(c) is not int)
            raise ValueError(f"coefficient {_describe(bad)} is not an int")
        if min(cs) < 0 or max(cs) >= M:
            bad = next(c for c in cs if not 0 <= c < M)
            raise ValueError(f"coefficient {_describe(bad)} outside [0, {M})")

    def __len__(self):
        return len(self.coeffs)

    @classmethod
    def _unchecked(cls, coeffs: tuple, modulus: int, domain: str):
        """A kernel's result, built without the checks: the kernels below
        make a tuple of N ints, each in [0, M) for the M of a checked table
        set, so every check would pass.  The CLI's record decoder builds
        one too; it checks type, sign, bound and length itself."""
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", coeffs)
        object.__setattr__(p, "modulus", modulus)
        object.__setattr__(p, "domain", domain)
        return p


def _describe(c) -> str:
    try:
        return reprlib.repr(c)
    except ValueError:      # repr refuses an int past the digit limit
        return f"<int of {c.bit_length()} bits>"


def _check_operand(p: Polynomial, params: NttParams, *, domain: str, name: str):
    if p.modulus != params.M:
        raise ValueError(f"{name}: modulus {p.modulus} != params modulus {params.M}")
    if len(p) != params.n:
        raise ValueError(f"{name}: length {len(p)} != N = {params.n}")
    if p.domain != domain:
        raise ValueError(f"{name}: expected {domain}-domain operand, got {p.domain}")


@lru_cache(maxsize=64)
def _slots(n: int, M: int):
    """Slot geometry of :func:`naive_negacyclic_mul` for (N, M): the slot
    width w in bytes, q = ceil(w/8) 64-bit limbs a slot spreads into, the
    bytes a coefficient below M fills, D (B in each of N/2 slots), and the
    struct packer of N/2 coefficients and unpacker of q*N limbs."""
    # B, the smallest multiple of M >= N*(M-1)**2: the wrapped slot
    # s_k - s_{k+N} + B neither borrows (s_{k+N} <= (N-1)*(M-1)**2) nor
    # passes 2B (s_k <= N*(M-1)**2), and w bytes hold 2B.  Any larger
    # multiple B' of M, as (M+1)**2 or M**2 in place of (M-1)**2 gives,
    # yields slots congruent mod M in [0, 2B'], which w' bytes hold, so the
    # same products.  The one from (M-2)**2, B'' >= N*(M-2)**2, still exceeds
    # (N-1)*(M-1)**2 when M >= 2N + 1, but the top slot N*(M-1)**2 + B''
    # can pass 2B''; it overflows w'' bytes only if 256**w'' lies in
    # (2B'', N*(M-1)**2 + B''], which forces M - 1 or M - 2 to be
    # isqrt(256**w'' // 2N), and no valid ring lies there
    # (test_smaller_slot_bound_overflows_on_no_ring checks every N and w'').
    B = -(-n * (M - 1) ** 2 // M) * M
    w = ((2 * B).bit_length() + 7) // 8
    q = (w + 7) // 8
    D = _spread(B, w, n // 2)
    return (w, q, ((M - 1).bit_length() + 7) // 8, D,
            struct.Struct(f"<{n // 2}Q").pack,
            struct.Struct(f"<{q * n}Q").unpack)


def _spread(v: int, size: int, count: int) -> int:
    """v in each of count little-endian slots of size bytes, as one int."""
    return int.from_bytes(v.to_bytes(size, "little") * count, "little")


def _restride(out, start: int, new_step: int, src, step: int, width: int):
    """Copies the low ``width`` bytes of each record ``step`` bytes apart in
    src into out's records ``new_step`` bytes apart from byte ``start``,
    one strided slice copy per byte lane, so the per-record work stays in
    C.  Returns out."""
    for j in range(width):
        out[start + j::new_step] = src[j::step]
    return out


def naive_negacyclic_mul(a: Polynomial, b: Polynomial,
                         params: NttParams) -> Polynomial:
    """Schoolbook product reduced mod x**N + 1: the oracle for every other path.

    c_k = s_k - s_{k+N} (mod M), where s_k = sum_{i+j = k} a_i b_j is the full
    product, computed by two-point Kronecker substitution (Harvey 2009,
    "KS2"), two exact big-int products of half size.  Each operand is split
    into its even and odd coefficients, packed as E and O with coefficient
    2i or 2i + 1 in byte slot i of w bytes, so that with Y = 2**(8w) and
    e = 4w bits, a(2**e) = E + O * 2**e and a(-2**e) = E - O * 2**e.  The
    products z+ and z- of the two operands' values at 2**e and -2**e give
    (z+ + z-) / 2 = sum s_{2i} Y**i and (z+ - z-) / 2**(e+1) =
    sum s_{2i+1} Y**i, both exact.  N is even, so s_{k+N} has the parity
    of s_k, and each half wraps on its own: with B the smallest multiple of
    M at or above N*(M-1)**2 and D holding B in each of N/2 slots, slot i
    of r = lo(z) - hi(z) + D (the low and high N/2 slots of a half z) is
    s_k - s_{k+N} + B for k = 2i or 2i + 1, so c_k = slot mod M.  No slot
    carries or borrows: 0 <= s_k <= N*(M-1)**2 <= B, so every slot of a
    half and of r lies in [0, 2B], and w is the fewest bytes holding 2B.

    Coefficients are below M < 2**64, which
    :func:`nttmul.params.ring_problem` enforces for every table set, so
    struct packs them as little-endian 64-bit words and byte-lane slice
    copies lay them into w-byte slots; the two wrapped halves are laid
    into one buffer, even slots and odd slots interleaved, which is
    unpacked once, each slot spread into q = ceil(w/8) words and joined.
    One path serves every M and N; only the final reduction runs per
    coefficient in Python.
    """
    _check_operand(a, params, domain="coefficient", name="a")
    _check_operand(b, params, domain="coefficient", name="b")
    N, M = params.n, params.M
    w, q, width, D, pack, unpack = _slots(N, M)
    h, e = N // 2, 4 * w
    (xe, xo), (ye, yo) = ([int.from_bytes(_restride(
        bytearray(w * h), 0, w, pack(*p.coeffs[j::2]), 8, width), "little")
        for j in (0, 1)] for p in (a, b))
    xo, yo = xo << e, yo << e
    plus, minus = (xe + xo) * (ye + yo), (xe - xo) * (ye - yo)
    bits, out = 8 * w * h, bytearray(16 * q * h)
    for j, z in enumerate(((plus + minus) >> 1, (plus - minus) >> e + 1)):
        r = (z & (1 << bits) - 1) - (z >> bits) + D
        _restride(out, 8 * q * j, 16 * q, r.to_bytes(w * h, "little"), w, w)
    s = _join_limbs(unpack(out), q)
    return Polynomial._unchecked(tuple([v % M for v in s]), M, "coefficient")


def _forward(a: list[int], tables, M: int) -> list[int]:
    # Constant geometry (Pease 1968), natural order in, bit-reversed out.
    # Each stage pairs a[j] with a[j + N/2] and writes to 2j and 2j + 1,
    # rotating every index left by one bit; so after s - 1 stages the block
    # bits of the in-place index are the low s - 1 bits of j, and pair j
    # takes tw[j mod len(tw)] (a table already N/2 long is not copied).
    # Lazy reduction: only products reduce, so |x| <= (s+1)*M after stage
    # s; Python ints are exact at any size.
    # Stages run two to a pass, after one lone stage when their count is
    # odd.  A pass's first stage pairs j and j + N/4 for j < N/4, written
    # to 2j, 2j + 1 and 2j + N/2, 2j + N/2 + 1, which its second stage
    # pairs and writes to 4j ... 4j + 3; so a pass reads a[j], a[j + N/2],
    # a[j + N/4], a[j + 3N/4] and makes every value the two stages make.
    # The first stage s <= m - 1 has period 2**(s-1) <= N/4, so pairs j
    # and j + N/4 share tw[j], and a pass reads three twiddle streams.
    h = len(a) >> 1
    q = h >> 1
    tables = [tw * (h // len(tw)) for tw in tables]
    if len(tables) & 1:
        lo = a[:h]
        v = [x * w % M for x, w in zip(a[h:], tables.pop(0))]
        a[0::2] = map(add, lo, v)
        a[1::2] = map(sub, lo, v)
    for t1, t2 in zip(tables[0::2], tables[1::2]):
        out = []
        put = out.extend
        for x0, x1, x2, x3, w1, w2, w3 in zip(a, a[h:h + q], a[q:h],
                                              a[h + q:], t1, t2[0::2],
                                              t2[1::2]):
            u, v = x1 * w1 % M, x3 * w1 % M
            y0, y1 = x0 + u, x0 - u
            y2, y3 = x2 + v, x2 - v
            u, v = y2 * w2 % M, y3 * w3 % M
            put((y0 + u, y0 - u, y1 + v, y1 - v))
        a = out
    return a


def _inverse(a: list[int], tables, M: int,
             n_inv: int | None = None) -> list[int]:
    # The mirror image, bit-reversed in, natural out: pair a[2j] with
    # a[2j + 1], sum to j and twiddled difference to j + N/2 (rotate right);
    # pair j takes tw[j mod len(tw)], and |x| <= 2**s * M after stage s.
    # Stages run two to a pass, then one lone stage when their count is
    # odd.  A pass reads a[4i ... 4i + 3], which its first stage writes to
    # 2i, 2i + 1 and 2i + N/2, 2i + N/2 + 1, and its second stage pairs
    # those, writing to i, i + N/4, i + N/2 and i + 3N/4: one row per i,
    # and the four quarters are the rows' columns.  The second stage
    # s + 1 >= 2 has period 2**(m-s-1) <= N/4, so pairs i and i + N/4
    # share tw[i], and a pass reads three twiddle streams.
    # Given n_inv, the last stage's sums are then multiplied by it, so
    # every output is reduced, in [0, M); the last stage's difference
    # twiddles carry n_inv.
    h = len(a) >> 1
    tables = [tw * (h // len(tw)) for tw in tables]
    for t1, t2 in zip(tables[0::2], tables[1::2]):
        rows = []
        put = rows.append
        for x0, x1, x2, x3, w1, w2, w3 in zip(a[0::4], a[1::4], a[2::4],
                                              a[3::4], t1[0::2], t1[1::2], t2):
            e0, e1 = x0 + x1, x2 + x3
            d0, d1 = (x0 - x1) * w1 % M, (x2 - x3) * w2 % M
            put((e0 + e1, d0 + d1, (e0 - e1) * w3 % M, (d0 - d1) * w3 % M))
        c0, c1, c2, c3 = zip(*rows)
        a = [*c0, *c1, *c2, *c3]
    if len(tables) & 1:
        ev, od = a[0::2], a[1::2]
        a[:h] = map(add, ev, od)
        a[h:] = [(x - y) * w % M for x, y, w in zip(ev, od, tables[-1])]
    if n_inv is not None:
        a[:h] = [x * n_inv % M for x in a[:h]]
    return a


_BLOCK = 16     # slots a packed block keeps when the scalar passes take over


class _Slots(Frozen):
    """The layout of N packed slots of 2*beta bits, beta being Shoup's
    shift: per packed forward stage s = 1, 2, ..., for halves of
    L = N >> s slots, the half's bit length, its mask, the mask of each
    slot's low beta bits, 2M in every slot and the inverse stages' offset
    C in every slot; to_int and from_int, the codec of N slots; and
    2**beta - M and 1 in each of N slots, the constants of the final
    reduction in :func:`_inverse_blocks`."""
    beta: int
    halves: tuple
    to_int: object
    from_int: object
    top: int
    ones: int


def _slot_layout(n: int, M: int, beta: int, stages: int, offset: int | None,
                 codec) -> _Slots:
    """The _Slots of N slots of beta/4 bytes with ``stages`` halves
    entries, whose offset C is ``offset``, or L*M for halves of L slots
    when it is None."""
    size = beta // 4
    halves = tuple((8 * size * L, (1 << 8 * size * L) - 1,
                    _spread((1 << beta) - 1, size, L),
                    _spread(2 * M, size, L), _spread(offset or L * M, size, L))
                   for L in (n >> s for s in range(1, stages + 1)))
    return _Slots(beta, halves, *codec, _spread((1 << beta) - M, size, n),
                  _spread(1, size, n))


def _byte_codec(count: int, size: int):
    """(to_int, from_int) for ``count`` little-endian slots of ``size``
    bytes: to_int packs a sequence of ints into one int, from_int gives
    back the sequence of its slots.  One struct call each way lays every
    int out as a word of 8 bytes in a slot of 8 or more, 4 in one of 4 to
    7 and 2 in a smaller one, the slot's other bytes zero, so the ints
    must be below 2**64, 2**32 and 2**16 (struct raises past them), and
    from_int reads the words alone."""
    word = "Q" if size >= 8 else "I" if size >= 4 else "H"
    pad = size - struct.calcsize(word)
    layout = struct.Struct(f"<{count}{word}" if not pad
                           else "<" + f"{word}{pad}x" * count)
    pack, unpack, total = layout.pack, layout.unpack, size * count
    return (lambda vals: int.from_bytes(pack(*vals), "little"),
            lambda x: unpack(x.to_bytes(total, "little")))


def _codec(count: int, q: int):
    """(to_int, from_int) for ``count`` slots of q little-endian 64-bit
    limbs: to_int packs a sequence of ints below 2**(64*q) into one int,
    from_int gives back the sequence of its slots."""
    if q == 1:
        return _byte_codec(count, 8)
    size = 8 * q * count
    unpack = struct.Struct(f"<{q * count}Q").unpack
    return (lambda vals: int.from_bytes(b"".join(
                [v.to_bytes(8 * q, "little") for v in vals]), "little"),
            lambda x: _join_limbs(unpack(x.to_bytes(size, "little")), q))


@lru_cache(maxsize=64)
def _packing(n: int, M: int):
    """Block geometry of the transform pair's packed stages for (N, M),
    with m = log2 N: k = max(0, m - 4), the number of packed stages of
    ``ntt_forward`` and ``ntt_inverse``, which hand _BLOCK = 16-slot
    blocks to the scalar passes; their _Slots, with k halves entries, slots
    of q 64-bit limbs, beta = 32*q, the offset C = L*M for halves of L
    slots and the codec (:func:`_codec`) of N slots; and the codec of
    _BLOCK slots.

    Bound: forward slots stay below (2s+1)*M after stage s and inverse
    slots at most 2**s * (M-1), so every Shoup input, X + C - Y and the
    last stage's sums included, is below N*M, and q is the fewest limbs
    with N*M <= 2**(32*q).  Then w' = floor(w * 2**beta / M) < 2**beta,
    and each slot product, x*w', x*w and floor(x*w' / 2**beta)*M, is below
    2**(2*beta), the slot width, so none carries into the next slot.  The
    three benchmark rings take q = 1, and 2**64 - 2**32 + 1 takes q = 3.
    The product sizes its own slots (:func:`_product_packing`).

    On a 2-vCPU Xeon (best of 5 runs of 2 to 50 products), handing
    ``ntt_forward``'s scalar passes 8 slots (k = m - 3) was 3-4 % slower
    at N = 128 ... 1024 and 2 % faster at N = 4096, and 32 slots
    (k = m - 5) 11-17 % slower.  Its packed stages gain about 10 % at
    N = 128 and cost about 12 % at N = 64, where scalar stages are cheap
    against a block's fixed cost.
    """
    k = max(0, (n // _BLOCK).bit_length() - 1)
    q = -(-(n * M - 1).bit_length() // 32)
    return (k, _slot_layout(n, M, 32 * q, k, None, _codec(n, q)),
            _codec(_BLOCK, q))


@lru_cache(maxsize=64)
def _product_packing(n: int, M: int):
    """Block geometry of :func:`negacyclic_mul_ntt` for (N, M), with
    m = log2 N: k_p = max(1, m - 5), the number of packed forward stages
    before its leaves of L = N >> k_p = min(N/2, 32) slots and of packed
    inverse stages after them; and its _Slots, with k_p halves entries,
    slots of beta/4 bytes, the offset C = 2**k_p * M and the codec
    (:func:`_byte_codec`) of N slots holding coefficients below M.

    Bounds, the product's own: forward slots stay below (2s+1)*M after
    stage s, so a leaf's slots are below (2*k_p + 1)*M, and every slot of
    a leaf product, a sum of at most L products of two of them, is below
    L*((2*k_p + 1)*M)**2.  The fold's last Shoup input, a sum of four
    Shoup results, is below 8M, and it leaves the leaves in [0, 2M).  Every
    slot is below 2**j * M <= C before inverse stage j = 1 ... k_p of the
    product, so no slot of X + C - Y borrows, and that Shoup input, like
    the last stage's sums that N**-1 scales, is below 2**j * M + C <=
    2**(k_p+1) * M.  So every Shoup input, the forward stages' below
    (2*k_p - 1)*M included, is below max(8M, 2**(k_p+1) * M).  beta is
    the smallest multiple of 4 (so that a slot of 2*beta bits is a whole
    number of bytes) with max(8M, 2**(k_p+1) * M) <= 2**beta and
    L*((2*k_p + 1)*M)**2 <= 2**(2*beta); each slot product, x*w', x*w and
    floor(x*w' / 2**beta)*M, is then below 2**(2*beta) too, so no slot
    carries.  beta is 20 at (12289, 1024), 24 at (12289, 2048), 28 at
    (1049089, 256) and (786433, 4096), and 72 for 2**64 - 2**32 + 1 at
    N = 64, where the transform pair's N*M bound (:func:`_packing`) gives
    32 at each but the last, and 96 there.

    No slot widens past its bound to a whole 64-bit word: the codec is
    one struct call each way at every width, a word and pad bytes per
    slot.  On a 2-vCPU Xeon with Python 3.11 (per-product medians of 9
    interleaved rounds), 7-byte slots took 12 % less time than 8-byte
    ones at (1049089, 64) and 17 % less at (1049089, 256); with struct's
    64-bit words laid into 7-byte slots by byte-lane slice copies instead,
    they took 4-5 % more at (1049089, 64).  The leaf sizes are timed in
    :func:`negacyclic_mul_ntt`'s docstring.
    """
    kp = max(1, (n >> 5).bit_length() - 1)
    L = n >> kp
    bits = max((max(8, 2 << kp) * M - 1).bit_length(),
               ((L * ((2 * kp + 1) * M) ** 2 - 1).bit_length() + 1) // 2)
    size = -(-bits // 4)
    return kp, _slot_layout(n, M, 4 * size, kp, M << kp,
                            _byte_codec(n, size))


def _join_limbs(limbs, q: int) -> list[int]:
    """The ints whose q little-endian 64-bit limbs follow one another."""
    s = limbs[0::q]
    for j in range(1, q):
        s = [lo + (hi << 64 * j) for lo, hi in zip(s, limbs[j::q])]
    return s


def _block_stages_fwd(blocks, tables, slots: _Slots, M: int) -> list[int]:
    # _forward's stages on packed blocks, one per table of Shoup pairs
    # (w, w') (at most one per halves entry of slots;
    # NttParams.shoup_tables), from the stage that len(blocks) = 2**s
    # blocks enter.  Block c after stage s is a[c::2**s] as _forward
    # leaves it, so stage s + 1 pairs the block's low half lo with its
    # high half hi under the one twiddle w, entry c of the stage's table,
    # and writes blocks 2c and 2c + 1.  Shoup's product
    # r = hi*w - floor(hi*w' / 2**beta)*M lies in [0, 2M) slot by slot for
    # slots below 2**beta, so the blocks lo + r and lo + 2M - r stay
    # non-negative, no slot borrows, and every slot is below (2s+3)*M
    # after stage s + 1.
    beta = slots.beta
    for tw, (bits, low, mask, twice, _) in zip(
            tables, slots.halves[len(blocks).bit_length() - 1:]):
        out = []
        put = out.extend
        for x, (w, wq) in zip(blocks, tw):
            lo, hi = x & low, x >> bits
            r = hi * w - ((hi * wq >> beta) & mask) * M
            put((lo + r, lo + twice - r))
        blocks = out
    return blocks


def _block_stages_inv(blocks, tables, slots: _Slots, M: int) -> list[int]:
    # _inverse's stages on packed blocks, one per table of Shoup pairs,
    # the mirror image: of the blocks left, X = 2c and Y = 2c + 1 make
    # block c, whose low half is X + Y and high half Shoup's product of
    # X + C - Y by w, entry c of the stage's table.  C, the halves entry's
    # offset, is a multiple of M at or above every slot of Y (L*M for the
    # transform pair, X having L = 2**(s-1) slots at stage s and every slot
    # at most 2**(s-1) * (M-1); 2**k_p * M for the product), so no slot
    # borrows; sums double per stage and the high halves lie in [0, 2M).
    beta, halves = slots.beta, slots.halves
    for tw in tables:
        bits, _, mask, _, C = halves[len(blocks).bit_length() - 2]
        out = []
        put = out.append
        for x, y, (w, wq) in zip(blocks[0::2], blocks[1::2], tw):
            d = x + C - y
            put(x + y + ((d * w - ((d * wq >> beta) & mask) * M) << bits))
        blocks = out
    return blocks


def _forward_packed(coeffs, tables, pairs, M: int) -> list[int]:
    """_forward's result up to multiples of M: its first k stages on one
    packed block of the coefficients, by pairs, the Shoup pairs of those k
    stages' tables, then its passes on the rest."""
    n = len(coeffs)
    k, slots, (_, from_block) = _packing(n, M)
    if not k:
        return _forward(list(coeffs), tables, M)
    blocks = _block_stages_fwd([slots.to_int(coeffs)], pairs, slots, M)
    # slot i of block c is a[c + 2**k * i]: zip takes the blocks' columns
    return _forward(list(chain.from_iterable(zip(*map(from_block, blocks)))),
                    tables[k:], M)


def _inverse_blocks(blocks, tables, slots: _Slots, M: int, scale):
    """The packed inverse stages on blocks, one per table of Shoup pairs,
    down to one block; the last stage's sums are then scaled by N**-1,
    with Shoup's product by scale, the pair (N**-1, floor(N**-1 * 2**beta
    / M)), too, which leaves every slot in [0, 2M), and every slot is
    reduced into [0, M) on the packed block: bit beta of
    slot + 2**beta - M is set exactly when slot >= M, and the 2*beta-bit
    slot holds that sum, below 2**beta + M, so no slot carries, and none
    borrows when M is taken from the slots at or above it."""
    beta, (n_inv, n_inv_q) = slots.beta, scale
    (x,) = _block_stages_inv(blocks, tables, slots, M)
    _, low, mask, _, _ = slots.halves[0]
    lo = x & low
    x += lo * n_inv - ((lo * n_inv_q >> beta) & mask) * M - lo
    return slots.from_int(x - ((x + slots.top) >> beta & slots.ones) * M)


def _inverse_packed(a, tables, pairs, M: int, n_inv: int) -> list[int]:
    """_inverse's result with n_inv: its passes on all but the last k
    stages, which run on packed blocks by pairs, the Shoup pairs of those
    k stages' tables (:func:`_inverse_blocks`, whose N**-1 pair is divided
    here, once per call)."""
    n = len(a)
    k, slots, (to_block, _) = _packing(n, M)
    if not k:
        return _inverse(a, tables, M, n_inv)
    a = _inverse(a, tables[:-k], M)
    # block c holds a[c::2**k]: the columns of the _BLOCK rows of 2**k
    return _inverse_blocks(
        list(map(to_block, zip(*zip(*[iter(a)] * (n // _BLOCK))))),
        pairs, slots, M, (n_inv, (n_inv << slots.beta) // M))


def _shoup_tables(params: NttParams):
    """The tables of the packed stages as Shoup pairs (w, floor(w * 2**beta
    / M)), per stage the entries its blocks read, the first 2**(s-1) of
    forward stage s and 2**(m-s) of inverse stage s: the first k_p
    forward and last k_p inverse stages of ``merged_tables``, for
    :func:`negacyclic_mul_ntt`, at its beta (:func:`_product_packing`);
    the first k forward and last k inverse stages of the set's own tables,
    the last inverse one times N**-1, for ``ntt_forward`` and
    ``ntt_inverse``, at theirs (:func:`_packing`); and that inverse table
    set itself, which ``ntt_inverse``'s scalar passes read.  No other
    stage runs packed, so at N = 256 there are 14 pairs for the product
    and 30 for the transform pair."""
    M, m, inv = params.M, params.num_stages, params.stage_twiddles_inv
    k, slots, _ = _packing(params.n, M)
    kp, product = _product_packing(params.n, M)
    own = (*inv[:-1], tuple(w * params.n_inv % M for w in inv[-1]))
    (mf, mi), fwd = params.merged_tables, params.stage_twiddles_fwd
    pairs = [tuple(tuple((w, (w << beta) // M) for w in tw[:len(t)])
                   for tw, t in zip(tables[lo:hi], like[lo:hi]))
             for tables, like, lo, hi, beta in (
                 (mf, fwd, 0, kp, product.beta),
                 (mi, inv, m - kp, m, product.beta),
                 (fwd, fwd, 0, k, slots.beta),
                 (own, inv, m - k, m, slots.beta))]
    return (*pairs, own)


def _leaf_constants(params: NttParams):
    """The constants of :func:`negacyclic_mul_ntt`'s leaf fold and final
    scale as Shoup pairs (w, floor(w * 2**beta / M)) at its beta
    (:func:`_product_packing`), with L = N >> k_p: the pairs of L and
    L * 2**beta and floor(2**beta / M), shared by every leaf; per leaf c
    the pairs of L*zeta_c and L*zeta_c * 2**beta, where
    zeta_c = fwd[k_p][c]**2 (all mod M); and the pair of N**-1, which
    scales the last inverse stage's sums (:func:`_inverse_blocks`)."""
    n, M = params.n, params.M
    kp, slots = _product_packing(n, M)
    beta = slots.beta

    def pairs(w):
        w, w2 = w % M, (w << beta) % M
        return w, (w << beta) // M, w2, (w2 << beta) // M

    fwd, _ = params.merged_tables
    return ((*pairs(n >> kp), (1 << beta) // M),
            tuple(pairs((n >> kp) * w * w) for w in fwd[kp][:1 << kp]),
            pairs(params.n_inv)[:2])


def _leaf_products(xs, ys, params: NttParams) -> list[int]:
    """Per leaf c, L * x_c*y_c mod (x**L - zeta_c, M) as one packed block
    of L = min(N/2, 32) slots in [0, 2M), for the 2**k_p forward blocks
    xs and ys that :func:`negacyclic_mul_ntt` makes; the last halves entry
    of the product's slots, whose halves have L slots, gives the slot
    masks, and the constants are the set's ``leaf_constants``."""
    M = params.M
    _, slots = _product_packing(params.n, M)
    beta = slots.beta
    bits, low, mask, _, _ = slots.halves[-1]
    (s0, s0q, s1, s1q, oneq), twists, _ = params.leaf_constants
    leaves = []
    put = leaves.append
    for x, y, (t0, t0q, t1, t1q) in zip(xs, ys, twists):
        z = x * y
        lo, hi = z & low, z >> bits
        u0, u1 = lo & mask, lo >> beta & mask
        v0, v1 = hi & mask, hi >> beta & mask
        # each product by a constant, less its quotient times M, is Shoup's:
        # every slot of r is the sum of four Shoup results, below 8M,
        # whatever the big-int sum carries on the way
        r = (u0 * s0 + u1 * s1 + v0 * t0 + v1 * t1
             - ((u0 * s0q >> beta & mask) + (u1 * s1q >> beta & mask)
                + (v0 * t0q >> beta & mask) + (v1 * t1q >> beta & mask)) * M)
        put(r - (r * oneq >> beta & mask) * M)
    return leaves


@lru_cache(maxsize=64)
def _bit_reversal(m: int) -> tuple[int, ...]:
    """bit_reverse_index(i, m) for i < 2**m: the permutation between the
    transforms' bit-reversed spectra and natural order (an involution)."""
    return tuple(bit_reverse_index(i, m) for i in range(1 << m))


def ntt_forward(a: Polynomial, params: NttParams) -> Polynomial:
    """Evaluate at the powers of omega: out_i = sum_j a_j omega**(i*j)."""
    _check_operand(a, params, domain="coefficient", name="a")
    M = params.M
    _, _, pairs, _, _ = params.shoup_tables
    vals = _forward_packed(a.coeffs, params.stage_twiddles_fwd, pairs, M)
    return Polynomial._unchecked(
        tuple([vals[j] % M for j in _bit_reversal(params.num_stages)]), M,
        "evaluation")


def ntt_inverse(a: Polynomial, params: NttParams) -> Polynomial:
    """Inverse transform including the N**-1 scaling."""
    _check_operand(a, params, domain="evaluation", name="a")
    M, cs = params.M, a.coeffs
    _, _, _, pairs, tables = params.shoup_tables
    vals = _inverse_packed([cs[j] for j in _bit_reversal(params.num_stages)],
                           tables, pairs, M, params.n_inv)
    return Polynomial._unchecked(tuple(vals), M, "coefficient")


def negacyclic_mul_ntt(a: Polynomial, b: Polynomial,
                       params: NttParams) -> Polynomial:
    """Transform product on the set's merged tables
    (:attr:`~nttmul.params.NttParams.merged_tables`): an incomplete
    transform, as in Kyber (Bos et al., EuroS&P 2018), whose leaves are
    multiplied as packed big ints (Kronecker substitution; Harvey,
    J. Symbolic Comput. 44, 2009), with the phi weights and N**-1 inside
    the butterflies (Roy et al., CHES 2014), so there is no weighting or
    unweighting pass.  The inverse leaves every coefficient in [0, M).
    Exactly equals naive_negacyclic_mul.

    With m = log2 N, each operand runs the first k_p = max(1, m - 5)
    forward stages on packed blocks: after stage s there are 2**s blocks,
    each one int of fixed-width slots, and a stage costs a few big-int
    operations per block, as a block takes one twiddle.  The modular
    product is Shoup's (Harvey, J. Symbolic Comput. 60, 2014): for a slot
    x < 2**beta and w' = floor(w * 2**beta / M), x*w - floor(x*w' /
    2**beta)*M lies in [0, 2M), indeed below M * (1 + x / 2**beta), and
    every slot of the block's product comes out in one shift and one
    mask.  The pairs (w, w') are divided once per table set
    (``NttParams.shoup_tables``), not once per block.  Slots are sized by
    the product's own bounds, not by the transform pair's N*M
    (:func:`_product_packing`): every Shoup input is below
    max(8M, 2**(k_p+1) * M) <= 2**beta and every leaf slot below
    L*((2*k_p + 1)*M)**2 <= 2**(2*beta), for beta the smallest multiple
    of 4, so that a slot of 2*beta bits is a whole number of bytes, beta/4.
    Block c is then the operand mod x**L - zeta_c, the leaf, with
    L = N >> k_p = min(N/2, 32) (32 from N = 64 on) and slot i the
    coefficient of x**i: stage k_p + 1 would split it by its twiddle
    w_c = fwd[k_p][c] into x**(L/2) - w_c and x**(L/2) + w_c, so
    zeta_c = w_c**2.  Per leaf, z = A_c * B_c is one big-int product; each
    of its 2L - 1 slots sums at most L slot products, below 2**(2*beta),
    so no slot carries and slot i of z is the coefficient of x**i of the
    product.

    The fold (:func:`_leaf_products`) takes z mod x**L - zeta_c,
    lo + zeta_c * hi for lo and hi the low and high L slots of z, times L,
    without leaving the packed form: each slot of lo and of hi is split
    into its beta-bit halves, every one below 2**beta, and four Shoup
    products by L, L * 2**beta, L*zeta_c and L*zeta_c * 2**beta (mod M,
    :func:`_leaf_constants`) sum to a leaf with slots below
    8M <= 2**beta, which one more Shoup product, by 1, puts in [0, 2M),
    within the inverse stages' offset C = 2**k_p * M.  The leaves then
    run the last k_p inverse stages on packed blocks, which multiply by
    2**k_p, and the last stage's sums and difference twiddles carry
    N**-1, so the fold's L makes the scale 1.  Every slot is then in
    [0, 2M), and one conditional subtraction of M on the packed block
    (:func:`_inverse_blocks`) leaves every coefficient in [0, M), with no
    reduction per coefficient.  N**-1's Shoup pair is kept with the leaf
    constants, so a product divides nothing.

    k_p >= 1 at N <= 16 too, so every product reads its forward stages
    1 ... k_p + 1 and inverse stages m - k_p + 1 ... m.  k_p is not the k
    of ``ntt_forward``'s packed stages, which hand _BLOCK = 16-slot blocks
    to its scalar passes.  Other leaf sizes on a 2-vCPU Xeon with Python
    3.11 (per-product medians over 8 interleaved processes, each the best
    of 5 timed loops, N = 64 ... 4096, cached pairs and the packed final
    reduction in every variant): 16 coefficients (k_p = m - 4) were
    6-17 % slower, 64 (k_p = m - 6) 3-9 % slower from N = 128 on, and
    128 (k_p = m - 7) 16-25 % slower from N = 256 on.
    """
    _check_operand(a, params, domain="coefficient", name="a")
    _check_operand(b, params, domain="coefficient", name="b")
    N, M = params.n, params.M
    fwd, inv, _, _, _ = params.shoup_tables
    _, slots = _product_packing(N, M)
    leaves = _leaf_products(
        _block_stages_fwd([slots.to_int(a.coeffs)], fwd, slots, M),
        _block_stages_fwd([slots.to_int(b.coeffs)], fwd, slots, M), params)
    # the codec unpacks a tuple
    out = _inverse_blocks(leaves, inv, slots, M, params.leaf_constants[2])
    return Polynomial._unchecked(out, M, "coefficient")
