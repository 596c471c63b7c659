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
into [0, 2M); and the last k_p packed inverse stages, after which one
conditional subtraction of M, made on all N packed slots at once, leaves
every coefficient in [0, M).  Its constants are derived on first use and
kept on their table set (``NttParams.leaf_constants`` and
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


def _codec(count: int, q: int):
    """(to_int, from_int) for ``count`` slots of q little-endian 64-bit
    limbs: to_int packs a sequence of ints below 2**(64*q) into one int,
    from_int gives back the sequence of its slots."""
    size = 8 * q * count
    unpack = struct.Struct(f"<{q * count}Q").unpack
    if q == 1:
        pack = struct.Struct(f"<{count}Q").pack
        return (lambda vals: int.from_bytes(pack(*vals), "little"),
                lambda x: unpack(x.to_bytes(size, "little")))
    return (lambda vals: int.from_bytes(b"".join(
                [v.to_bytes(8 * q, "little") for v in vals]), "little"),
            lambda x: _join_limbs(unpack(x.to_bytes(size, "little")), q))


@lru_cache(maxsize=64)
def _packing(n: int, M: int):
    """Block geometry of the packed stages for (N, M), with m = log2 N:
    k = max(0, m - 4), the number of packed stages of ``ntt_forward`` and
    ``ntt_inverse``, which hand _BLOCK = 16-slot blocks to the scalar
    passes; k_p = max(1, m - 5), the number of packed forward stages
    before :func:`negacyclic_mul_ntt`'s leaves of L = min(N/2, 32)
    slots; beta = 32*q, Shoup's shift, for a slot of q 64-bit limbs; the
    codecs (:func:`_codec`) of N slots and of _BLOCK; per packed forward
    stage s = 1 ... max(1, k), which covers k_p, for halves of
    L = N >> s slots, the half's bit length, its mask, the mask of each
    slot's low beta bits, 2M in every slot and L*M in every slot; and
    2**beta - M and 1 in each of N slots, the constants of the final
    reduction in :func:`_inverse_blocks`.

    Bound: forward slots stay below (2s+1)*M after stage s and inverse
    slots at most 2**s * (M-1), so every Shoup input, X + C - Y and the
    last stage's sums included, is below N*M.  A slot of a leaf product
    sums at most L = N >> k_p products of forward slots, below
    L * (2*k_p + 1)**2 * M**2 <= (N*M)**2 from N = 8 on (at N = 64,
    32 * 9 <= 4096), and the leaf fold's last Shoup input, the sum of four
    Shoup results, is below 8M.  q is the fewest limbs with
    max(N, 8)*M <= 2**(32*q): at N = 4 a leaf slot reaches 2*(3M - 1)**2
    (both operands (M-1, M-1, 0, 0), whose forward slots lo + 2M - r have
    r = 0), past 2**(2*beta) when 4M <= 2**beta < 3*sqrt(2)*M, as at
    M = 1073741689.  Then w' = floor(w * 2**beta / M) < 2**beta, and each
    slot product, x*w', x*w and floor(x*w' / 2**beta)*M, is below
    2**(2*beta), the slot width, so none carries into the next slot.  The
    three benchmark rings take q = 1, and 2**64 - 2**32 + 1 takes q = 3.

    On a 2-vCPU Xeon (best of 5 runs of 2 to 50 products), handing
    ``ntt_forward``'s scalar passes 8 slots (k = m - 3) was 3-4 % slower
    at N = 128 ... 1024 and 2 % faster at N = 4096, and 32 slots
    (k = m - 5) 11-17 % slower.  Its packed stages gain about 10 % at
    N = 128 and cost about 12 % at N = 64, where scalar stages are cheap
    against a block's fixed cost.  The leaf sizes of the product are
    timed in :func:`negacyclic_mul_ntt`'s docstring.
    """
    k = max(0, (n // _BLOCK).bit_length() - 1)
    q = -(-(max(n, 8) * M - 1).bit_length() // 32)
    beta, size = 32 * q, 8 * q
    halves = [(64 * q * L, (1 << 64 * q * L) - 1,
               _spread((1 << beta) - 1, size, L), _spread(2 * M, size, L),
               _spread(L * M, size, L))
              for L in (n >> s for s in range(1, max(1, k) + 1))]
    # k_p = max(1, m - 5): leaves of min(N/2, 32) slots
    return (k, max(1, (n >> 5).bit_length() - 1), beta, _codec(n, q),
            _codec(_BLOCK, q), halves,
            (_spread((1 << beta) - M, size, n), _spread(1, size, n)))


def _join_limbs(limbs, q: int) -> list[int]:
    """The ints whose q little-endian 64-bit limbs follow one another."""
    s = limbs[0::q]
    for j in range(1, q):
        s = [lo + (hi << 64 * j) for lo, hi in zip(s, limbs[j::q])]
    return s


def _block_stages_fwd(blocks, tables, n: int, M: int) -> list[int]:
    # _forward's stages on packed blocks, one per table of Shoup pairs
    # (w, w') (at most the k of _packing; NttParams.shoup_tables), from the
    # stage that len(blocks) = 2**s blocks enter.  Block c after stage s is
    # a[c::2**s] as _forward leaves it, so stage s + 1 pairs the block's
    # low half lo with its high half hi under the one twiddle w, entry c
    # of the stage's table, and writes blocks 2c and 2c + 1.  Shoup's
    # product r = hi*w - floor(hi*w' / 2**beta)*M lies in [0, 2M) slot by
    # slot for slots below 2**beta, so the blocks lo + r and lo + 2M - r
    # stay non-negative, no slot borrows, and every slot is below
    # (2s+3)*M after stage s + 1.
    _, _, beta, _, _, halves, _ = _packing(n, M)
    for tw, (bits, low, mask, twice, _) in zip(
            tables, halves[len(blocks).bit_length() - 1:]):
        out = []
        put = out.extend
        for x, (w, wq) in zip(blocks, tw):
            lo, hi = x & low, x >> bits
            r = hi * w - ((hi * wq >> beta) & mask) * M
            put((lo + r, lo + twice - r))
        blocks = out
    return blocks


def _block_stages_inv(blocks, tables, n: int, M: int) -> list[int]:
    # _inverse's stages on packed blocks, one per table of Shoup pairs,
    # the mirror image: of the blocks left, X = 2c and Y = 2c + 1 make
    # block c, whose low half is X + Y and high half Shoup's product of
    # X + C - Y by w, entry c of the stage's table.  C = L*M in each of
    # X's L = 2**(s-1) slots is a multiple of M at or above every slot,
    # which is at most 2**(s-1) * (M-1) before stage s, so no slot
    # borrows; sums double per stage and the high halves lie in [0, 2M).
    _, _, beta, _, _, halves, _ = _packing(n, M)
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
    k, _, _, (to_int, _), (_, from_block), _, _ = _packing(n, M)
    if not k:
        return _forward(list(coeffs), tables, M)
    blocks = _block_stages_fwd([to_int(coeffs)], pairs, n, M)
    # slot i of block c is a[c + 2**k * i]: zip takes the blocks' columns
    return _forward(list(chain.from_iterable(zip(*map(from_block, blocks)))),
                    tables[k:], M)


def _inverse_blocks(blocks, tables, n: int, M: int, n_inv: int):
    """The packed inverse stages on blocks, one per table of Shoup pairs,
    down to one block; the last stage's sums are then scaled by n_inv,
    with Shoup's product too, which leaves every slot in [0, 2M), and
    every slot is reduced into [0, M) on the packed block: bit beta of
    slot + 2**beta - M is set exactly when slot >= M, and the 2*beta-bit
    slot holds that sum, below 2**beta + M, so no slot carries, and none
    borrows when M is taken from the slots at or above it."""
    _, _, beta, (_, from_int), _, halves, (top, ones) = _packing(n, M)
    (x,) = _block_stages_inv(blocks, tables, n, M)
    _, low, mask, _, _ = halves[0]
    lo = x & low
    x += lo * n_inv - ((lo * ((n_inv << beta) // M) >> beta) & mask) * M - lo
    return from_int(x - ((x + top) >> beta & ones) * M)


def _inverse_packed(a, tables, pairs, M: int, n_inv: int) -> list[int]:
    """_inverse's result with n_inv: its passes on all but the last k
    stages, which run on packed blocks by pairs, the Shoup pairs of those
    k stages' tables (:func:`_inverse_blocks`)."""
    n = len(a)
    k, _, _, _, (to_block, _), _, _ = _packing(n, M)
    if not k:
        return _inverse(a, tables, M, n_inv)
    a = _inverse(a, tables[:-k], M)
    # block c holds a[c::2**k]: the columns of the _BLOCK rows of 2**k
    return _inverse_blocks(
        list(map(to_block, zip(*zip(*[iter(a)] * (n // _BLOCK))))),
        pairs, n, M, n_inv)


def _shoup_tables(params: NttParams):
    """The tables of the packed stages as Shoup pairs (w, floor(w * 2**beta
    / M)), per stage the entries its blocks read, the first 2**(s-1) of
    forward stage s and 2**(m-s) of inverse stage s: the first k_p
    forward and last k_p inverse stages of ``merged_tables``, for
    :func:`negacyclic_mul_ntt`; the first k forward and last k inverse
    stages of the set's own tables, the last inverse one times N**-1,
    for ``ntt_forward`` and ``ntt_inverse``; and that inverse table set
    itself, which ``ntt_inverse``'s scalar passes read.  No other stage
    runs packed, so at N = 256 there are 14 pairs for the product and 30
    for the transform pair."""
    M, m, inv = params.M, params.num_stages, params.stage_twiddles_inv
    k, kp, beta, _, _, _, _ = _packing(params.n, M)
    own = (*inv[:-1], tuple(w * params.n_inv % M for w in inv[-1]))
    (mf, mi), fwd = params.merged_tables, params.stage_twiddles_fwd
    pairs = [tuple(tuple((w, (w << beta) // M) for w in tw[:len(t)])
                   for tw, t in zip(tables[lo:hi], like[lo:hi]))
             for tables, like, lo, hi in (
                 (mf, fwd, 0, kp), (mi, inv, m - kp, m), (fwd, fwd, 0, k),
                 (own, inv, m - k, m))]
    return (*pairs, own)


def _leaf_constants(params: NttParams):
    """The leaf fold's constants for :func:`negacyclic_mul_ntt`, as Shoup
    pairs (w, floor(w * 2**beta / M)), with L = N >> k_p: the pairs of L
    and L * 2**beta and floor(2**beta / M), shared by every leaf; and per
    leaf c the pairs of L*zeta_c and L*zeta_c * 2**beta, where
    zeta_c = fwd[k_p][c]**2 (all mod M)."""
    n, M = params.n, params.M
    _, kp, beta, _, _, _, _ = _packing(n, M)

    def pairs(w):
        w, w2 = w % M, (w << beta) % M
        return w, (w << beta) // M, w2, (w2 << beta) // M

    fwd, _ = params.merged_tables
    return ((*pairs(n >> kp), (1 << beta) // M),
            tuple(pairs((n >> kp) * w * w) for w in fwd[kp][:1 << kp]))


def _leaf_products(xs, ys, params: NttParams) -> list[int]:
    """Per leaf c, L * x_c*y_c mod (x**L - zeta_c, M) as one packed block
    of L = min(N/2, 32) slots in [0, 2M), for the 2**k_p forward blocks
    xs and ys that :func:`negacyclic_mul_ntt` makes; the halves entry of
    stage k_p, whose halves have L slots, gives the slot masks, and the
    constants are the set's ``leaf_constants``."""
    M = params.M
    _, kp, beta, _, _, halves, _ = _packing(params.n, M)
    bits, low, mask, _, _ = halves[kp - 1]
    (s0, s0q, s1, s1q, oneq), twists = params.leaf_constants
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
    (``NttParams.shoup_tables``), not once per block.  Slots are q 64-bit
    limbs with beta = 32*q (see :func:`_packing` for the bounds).  Block c
    is then the operand mod x**L - zeta_c, the leaf, with
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
    within the offset C = L*M of the first inverse stage.  The leaves then
    run the last k_p inverse stages on packed blocks, which multiply by
    2**k_p, and the last stage's sums and difference twiddles carry
    N**-1, so the fold's L makes the scale 1.  Every slot is then in
    [0, 2M), and one conditional subtraction of M on the packed block
    (:func:`_inverse_blocks`) leaves every coefficient in [0, M), with no
    reduction per coefficient.

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
    _, _, _, (to_int, _), _, _, _ = _packing(N, M)
    leaves = _leaf_products(_block_stages_fwd([to_int(a.coeffs)], fwd, N, M),
                            _block_stages_fwd([to_int(b.coeffs)], fwd, N, M),
                            params)
    out = tuple(_inverse_blocks(leaves, inv, N, M, params.n_inv))
    return Polynomial._unchecked(out, M, "coefficient")
