"""Reference negacyclic polynomial multiplication.

Everything here is the plain, array-at-a-time version of the arithmetic: a
schoolbook product computed as one exact big-int multiplication, which
serves as the oracle, an iterative transform pair, and the five-step
weighted-transform multiplier (weight, forward, pointwise, inverse,
unweight).  The streaming pipeline model in :mod:`nttmul.pipesim` must
agree with these exactly.

Polynomials carry one tag besides their coefficients: ``domain`` says which
side of the transform the values live on (``coefficient`` or ``evaluation``).
Entries are always in natural order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .params import NttParams, bit_reverse_index

DOMAINS = ("coefficient", "evaluation")


@dataclass(frozen=True)
class Polynomial:
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
        M = self.modulus
        for c in self.coeffs:
            if not (0 <= c < M):
                raise ValueError(f"coefficient {c} outside [0, {M})")

    def __len__(self):
        return len(self.coeffs)


def _check_operand(p: Polynomial, params: NttParams, *, domain: str, name: str):
    if p.modulus != params.M:
        raise ValueError(f"{name}: modulus {p.modulus} != params modulus {params.M}")
    if len(p) != params.n:
        raise ValueError(f"{name}: length {len(p)} != N = {params.n}")
    if p.domain != domain:
        raise ValueError(f"{name}: expected {domain}-domain operand, got {p.domain}")


def naive_negacyclic_mul(a: Polynomial, b: Polynomial,
                         params: NttParams) -> Polynomial:
    """Schoolbook product reduced mod x**N + 1: the oracle for every other path.

    c_k = s_k - s_{k+N} (mod M), where s_k = sum_{i+j = k} a_i b_j is the full
    product, computed as one exact big-int product (Kronecker substitution):
    each operand becomes one int holding coefficient i in byte slot i of w
    bytes, the two ints are multiplied once, and slot k of the result is s_k.
    No slot carries into the next: s_k is a sum of at most N terms, each at
    most (M-1)**2, so 0 <= s_k <= N*(M-1)**2 < 2**(8*w).  The bound holds for
    every M and N, so there is no headroom branch.
    """
    _check_operand(a, params, domain="coefficient", name="a")
    _check_operand(b, params, domain="coefficient", name="b")
    N, M = params.n, params.M
    w = ((N * (M - 1) ** 2).bit_length() + 7) // 8
    x, y = (int.from_bytes(b"".join(c.to_bytes(w, "little") for c in p.coeffs),
                           "little") for p in (a, b))
    buf = (x * y).to_bytes(2 * N * w, "little")
    s = [int.from_bytes(buf[i:i + w], "little") for i in range(0, len(buf), w)]
    return Polynomial(tuple((s[k] - s[k + N]) % M for k in range(N)), M,
                      "coefficient")


def _transform(vals, root: int, N: int, M: int) -> list[int]:
    # Iterative radix-2: bit-reverse copy, then butterflies over doubling
    # spans with a running twiddle.  Natural order in and out.
    m = N.bit_length() - 1
    a = [vals[bit_reverse_index(i, m)] for i in range(N)]
    span = 2
    while span <= N:
        w_span = pow(root, N // span, M)
        half = span >> 1
        for start in range(0, N, span):
            w = 1
            for j in range(start, start + half):
                u = a[j]
                v = a[j + half] * w % M
                a[j] = (u + v) % M
                a[j + half] = (u - v) % M
                w = w * w_span % M
        span <<= 1
    return a


def ntt_forward(a: Polynomial, params: NttParams) -> Polynomial:
    """Evaluate at the powers of omega: out_i = sum_j a_j omega**(i*j)."""
    _check_operand(a, params, domain="coefficient", name="a")
    vals = _transform(a.coeffs, params.omega, params.n, params.M)
    return Polynomial(vals, params.M, "evaluation")


def ntt_inverse(a: Polynomial, params: NttParams) -> Polynomial:
    """Inverse transform including the N**-1 scaling."""
    _check_operand(a, params, domain="evaluation", name="a")
    N, M = params.n, params.M
    vals = _transform(a.coeffs, params.omega_inv, N, M)
    n_inv = params.n_inv
    return Polynomial(tuple(v * n_inv % M for v in vals), M, "coefficient")


def negacyclic_mul_ntt(a: Polynomial, b: Polynomial,
                       params: NttParams) -> Polynomial:
    """Five-step transform product: weight, two forwards, pointwise, inverse,
    unweight.  The unweighting table already carries N**-1, so the inverse
    transform runs unscaled here.  Exactly equals naive_negacyclic_mul.
    """
    _check_operand(a, params, domain="coefficient", name="a")
    _check_operand(b, params, domain="coefficient", name="b")
    N, M = params.n, params.M
    wf = params.weights_fwd
    a_hat = _transform([c * w % M for c, w in zip(a.coeffs, wf)],
                       params.omega, N, M)
    b_hat = _transform([c * w % M for c, w in zip(b.coeffs, wf)],
                       params.omega, N, M)
    prod = [x * y % M for x, y in zip(a_hat, b_hat)]
    c_hat = _transform(prod, params.omega_inv, N, M)
    out = tuple(c * w % M for c, w in zip(c_hat, params.weights_inv_scaled))
    return Polynomial(out, M, "coefficient")
