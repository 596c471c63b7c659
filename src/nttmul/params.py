"""Ring validation and transform-table derivation.

A transform instance is pinned down by a prime modulus M and a power-of-two
length N >= 4 (the smallest the pipeline model builds) with 2N | M - 1.  M
must lie below 2**64, the range where the Miller-Rabin test decides
primality exactly.  From the smallest generator of the multiplicative group
this module derives, deterministically:

* ``phi``   - primitive 2N-th root of unity (negacyclic weighting factor),
* ``omega`` - primitive N-th root, ``omega = phi**2``,
* per-coefficient weight tables ``phi**i`` and ``N**-1 * phi**-i`` (the
  inverse-transform scaling is folded into the unweighting table so the
  final step is a single multiply per coefficient),
* per-stage twiddle tables in the exact order a streaming pipeline consumes
  them, forward and inverse; the table file also annotates each stage's
  twiddle storage (register bank or memory), computed from the lengths.

Tables round-trip through JSON with all integers as canonical decimal
strings.  Derivation is deterministic, so a table file is accepted only when
it equals the set derived for its own M and N: a tampered file, another
valid root, a non-canonical spelling or an extra key is rejected.
"""

from __future__ import annotations

import json
import math
import random
from functools import cached_property

from ._frozen import Frozen
from .modarith import ModulusContext

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n < 2**64."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int, rng: random.Random) -> int:
    if n % 2 == 0:
        return 2
    while True:
        x = rng.randrange(2, n - 1)
        y = x
        c = rng.randrange(1, n - 1)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def factorize(n: int) -> dict[int, int]:
    """Prime factorisation by trial division plus Pollard rho for the tail."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    factors: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    rng = random.Random(0xC0FFEE)
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = m
        while d == m:
            d = _pollard_rho(m, rng)
        stack.append(d)
        stack.append(m // d)
    return factors


def ring_problem(M: int, N: int) -> str | None:
    """None when (M, N) supports a length-N negacyclic NTT, else the reason."""
    if N < 4 or N & (N - 1):
        return f"N={N} is not a power of two >= 4"
    if M < 3:
        return f"M={M} is too small"
    if M >= 1 << 64:
        return f"M={M} is not below 2**64, where primality is decided exactly"
    if not is_prime(M):
        return f"M={M} is not prime"
    if (M - 1) % (2 * N):
        return f"M-1 = {M - 1} is not divisible by 2N = {2 * N}"
    return None


def bit_reverse_index(i: int, bits: int) -> int:
    """Reverse the low ``bits`` bits of i."""
    r = 0
    for _ in range(bits):
        r = (r << 1) | (i & 1)
        i >>= 1
    return r


def _smallest_generator(M: int) -> int:
    exps = [(M - 1) // p for p in factorize(M - 1)]
    g = 2
    while True:
        if all(pow(g, e, M) != 1 for e in exps):
            return g
        g += 1


def derive_roots(M: int, N: int) -> tuple[int, int]:
    """Deterministic (omega, phi) for the ring: phi = g**((M-1)/2N), omega = phi**2.

    g is the smallest generator of the multiplicative group, so repeated runs
    and independent implementations agree on the exact root values.
    """
    problem = ring_problem(M, N)
    if problem:
        raise ValueError(problem)
    g = _smallest_generator(M)
    phi = pow(g, (M - 1) // (2 * N), M)
    omega = phi * phi % M
    return omega, phi


class NttParams(Frozen):
    """Complete table set for one (M, N) transform instance, as derived by
    ``build_params``; a table file loads only when equal to the derived set.

    ``stage_twiddles_fwd[s-1]`` holds the distinct twiddles stage s consumes,
    in feed order, one per butterfly block; counts double per forward stage
    (1, 2, 4, ...) and halve per inverse stage.  ``merged_tables``, the
    multiplier's stage tables, ``leaf_constants``, its leaf fold's
    constants, and ``shoup_tables``, the Shoup pairs of the packed stages,
    are derived from these on first use and kept on the set, so
    ``build_params`` derives none of them and a set made by ``_replace``
    derives its own.
    """

    n: int
    ctx: ModulusContext
    omega: int
    phi: int
    omega_inv: int
    phi_inv: int
    n_inv: int
    weights_fwd: tuple[int, ...]
    weights_inv_scaled: tuple[int, ...]
    stage_twiddles_fwd: tuple[tuple[int, ...], ...]
    stage_twiddles_inv: tuple[tuple[int, ...], ...]

    @property
    def M(self) -> int:
        return self.ctx.M

    @property
    def num_stages(self) -> int:
        return self.n.bit_length() - 1

    @cached_property
    def merged_tables(self):
        """The negacyclic stage tables of :func:`nttmul.polymul.negacyclic_mul_ntt`.

        Forward stage s, entry t, is ``stage_twiddles_fwd[s-1][t] *
        phi**(N >> s)`` = phi**((N >> s) * (2*brv_{s-1}(t) + 1)), so stage 1
        splits x**N + 1 by phi**(N/2) and the transform evaluates a at the
        odd powers of phi.  Inverse stage s mirrors forward stage m - s + 1:
        ``stage_twiddles_inv[s-1][t] * phi_inv**(2**(s-1))``, and the last
        inverse stage's twiddle also carries N**-1, by which that stage
        scales its sums too.  Each table is tiled to N/2 entries, one per
        pair, as the stage loops read it.  Returns (forward tables, inverse
        tables).

        The product reads forward stages 1 ... k_p, with k_p = max(1,
        m - 5), so that its leaves have min(N/2, 32) coefficients, as
        Shoup pairs through ``shoup_tables``; forward stage k_p + 1
        through ``leaf_constants`` (whose squared twiddles are its leaves'
        zeta_c); and inverse stages m - k_p + 1 ... m, as pairs too.  The
        stages between are those the leaf products stand in for.
        """
        N, M, m = self.n, self.M, self.num_stages

        def scaled(tw, c):
            return tuple(w * c % M for w in tw) * (N // 2 // len(tw))

        fwd = tuple(scaled(tw, pow(self.phi, N >> s, M))
                    for s, tw in enumerate(self.stage_twiddles_fwd, 1))
        inv = tuple(scaled(tw, pow(self.phi_inv, 1 << (s - 1), M)
                           * (self.n_inv if s == m else 1))
                    for s, tw in enumerate(self.stage_twiddles_inv, 1))
        return fwd, inv

    @cached_property
    def leaf_constants(self):
        """The leaf fold's constants of
        :func:`nttmul.polymul.negacyclic_mul_ntt`, derived from
        ``merged_tables`` on first use and kept on the set
        (``polymul._leaf_constants``)."""
        from .polymul import _leaf_constants
        return _leaf_constants(self)

    @cached_property
    def shoup_tables(self):
        """The packed stages' tables as Shoup pairs (w, floor(w * 2**beta
        / M)), for the product's ``merged_tables`` and for the set's own
        stage tables, with the inverse tables of ``ntt_inverse`` (its last
        stage times N**-1), derived on first use and kept on the set, so
        that no call divides (``polymul._shoup_tables``)."""
        from .polymul import _shoup_tables
        return _shoup_tables(self)


def _stage_table(root: int, N: int, M: int, s: int) -> tuple[int, ...]:
    # Forward stage s pairs lanes at distance N/2**s; each block of size
    # N/2**(s-1) shares one twiddle root**(dist * bitrev(block)).  Inverse
    # stage s is forward stage m - s + 1 on omega**-1: both have distance
    # 2**(s-1), 2**(m-s) twiddles and the same bit-reversed exponents.
    dist = N >> s
    return tuple(pow(root, dist * bit_reverse_index(t, s - 1), M)
                 for t in range(1 << (s - 1)))


def _storage_kinds(tables: tuple[tuple[int, ...], ...]) -> list[str]:
    return ["regs" if len(t) <= 4 else "mem" for t in tables]


def build_params(M: int, N: int) -> NttParams:
    """Derive the full table set for (M, N); raises ValueError for a bad ring."""
    omega, phi = derive_roots(M, N)
    ctx = ModulusContext.create(M)
    omega_inv = pow(omega, -1, M)
    phi_inv = pow(phi, -1, M)
    n_inv = pow(N, -1, M)
    weights_fwd = []
    weights_inv_scaled = []
    w = 1
    wi = n_inv
    for _ in range(N):
        weights_fwd.append(w)
        weights_inv_scaled.append(wi)
        w = w * phi % M
        wi = wi * phi_inv % M
    m = N.bit_length() - 1
    fwd = tuple(_stage_table(omega, N, M, s) for s in range(1, m + 1))
    inv = tuple(_stage_table(omega_inv, N, M, s) for s in range(m, 0, -1))
    return NttParams(
        n=N, ctx=ctx, omega=omega, phi=phi, omega_inv=omega_inv,
        phi_inv=phi_inv, n_inv=n_inv,
        weights_fwd=tuple(weights_fwd),
        weights_inv_scaled=tuple(weights_inv_scaled),
        stage_twiddles_fwd=fwd, stage_twiddles_inv=inv)


def params_to_dict(params: NttParams) -> dict:
    """JSON-ready dict; every integer is a decimal string.  ``storage_kind_*``
    marks whether a stage's twiddles fit a register bank ("regs", up to 4
    values) or need a memory ("mem").
    """
    return {
        "M": str(params.M),
        "N": str(params.n),
        "omega": str(params.omega),
        "phi": str(params.phi),
        "omega_inv": str(params.omega_inv),
        "phi_inv": str(params.phi_inv),
        "n_inv": str(params.n_inv),
        "weights_fwd": [str(v) for v in params.weights_fwd],
        "weights_inv_scaled": [str(v) for v in params.weights_inv_scaled],
        "stage_twiddles_fwd": [[str(v) for v in t]
                               for t in params.stage_twiddles_fwd],
        "stage_twiddles_inv": [[str(v) for v in t]
                               for t in params.stage_twiddles_inv],
        "storage_kind_fwd": _storage_kinds(params.stage_twiddles_fwd),
        "storage_kind_inv": _storage_kinds(params.stage_twiddles_inv),
    }


def emit_tables(params: NttParams, path) -> None:
    """Write the table file.  Deterministic byte-for-byte for equal params."""
    with open(path, "w") as fh:
        json.dump(params_to_dict(params), fh, indent=2, sort_keys=True)
        fh.write("\n")


_MISSING = object()


def params_from_dict(obj: dict) -> NttParams:
    """Rebuild params from a table-file dict.

    The dict is accepted only when it equals ``params_to_dict`` of the tables
    ``build_params`` derives for its own M and N; otherwise ValueError names
    the first key that differs.  Both weight lists must hold N entries before
    anything is derived, so the file's own size bounds the work.
    """
    if not isinstance(obj, dict):
        raise ValueError("malformed table file: expected a JSON object")
    M, N = obj.get("M"), obj.get("N")
    if not all(isinstance(v, str) and v.isascii() and v.isdigit() for v in (M, N)):
        raise ValueError(f"malformed table file: M={M!r} and N={N!r} must be "
                         "decimal strings")
    M, N = int(M), int(N)
    problem = ring_problem(M, N)
    if problem:
        raise ValueError(problem)
    for key in ("weights_fwd", "weights_inv_scaled"):
        if not isinstance(obj.get(key), list) or len(obj[key]) != N:
            raise ValueError(f"malformed table file: {key} must hold N={N} entries")
    params = build_params(M, N)
    expected = params_to_dict(params)
    for key in (*expected, *obj):
        if obj.get(key, _MISSING) != expected.get(key, _MISSING):
            raise ValueError(f"table file differs from the tables derived for "
                             f"(M={M}, N={N}) at key {key!r}")
    return params


def load_tables(path) -> NttParams:
    with open(path) as fh:
        return params_from_dict(json.load(fh))
