import functools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nttmul import build_params
from nttmul.params import is_prime
from nttmul.polymul import (
    Polynomial,
    _forward,
    _inverse,
    naive_negacyclic_mul,
    negacyclic_mul_ntt,
    ntt_forward,
    ntt_inverse,
)

FIXED_M = 1_049_089


def rand_poly(rng, params, **tags):
    return Polynomial(tuple(rng.randrange(params.M) for _ in range(params.n)),
                      params.M, **tags)


@st.composite
def _prime_rings(draw):
    """(M, N): a prime M = k*2N + 1 < 2**64, N in {4, 8, 16, 32}."""
    N = draw(st.sampled_from((4, 8, 16, 32)))
    k = draw(st.integers(3, ((1 << 64) - 2) // (2 * N)))
    # walk down to the nearest prime of the form k*2N + 1; 17 (N = 4, 8),
    # 97 (N = 16) and 193 (N = 32) end every walk
    while not is_prime(k * 2 * N + 1):
        k -= 1
    return k * 2 * N + 1, N


def schoolbook_reference(a, b, N, M):
    # second, independently structured schoolbook: expand to 2N terms, then
    # fold the upper half back in with a sign flip
    full = [0] * (2 * N)
    for i in range(N):
        for j in range(N):
            full[i + j] += a[i] * b[j]
    return tuple((full[k] - full[k + N]) % M for k in range(N))


class TestPolynomialType:
    def test_accepts_lists_and_freezes(self):
        p = Polynomial([1, 2, 3, 4], 17)
        assert p.coeffs == (1, 2, 3, 4)
        assert p.domain == "coefficient"

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            Polynomial((1, 2, 3), 17)
        with pytest.raises(ValueError):
            Polynomial((), 17)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Polynomial((0, 17, 0, 0), 17)
        with pytest.raises(ValueError):
            Polynomial((0, -1, 0, 0), 17)
        # the message names the first offender, not the smallest or largest
        with pytest.raises(ValueError, match=r"coefficient 20 outside \[0, 17\)"):
            Polynomial((0, 20, -1, 40), 17)

    @pytest.mark.parametrize("bad", [0.5, 3.0, True, False, "3"])
    def test_rejects_coefficients_that_are_not_ints(self, bad):
        with pytest.raises(ValueError, match=rf"coefficient {bad!r} is not an int"):
            Polynomial((0, bad, 1, 2), 17)

    @pytest.mark.parametrize("bad", [
        "7" * 100_000,
        17 + 10 ** 1000,
        functools.reduce(lambda inner, _: [inner], range(900), []),
    ], ids=["long-string", "wide-int", "deep-list"])
    def test_message_length_is_bounded(self, bad):
        # the message shows a shortened repr of the offender, not all of it
        with pytest.raises(ValueError, match="^coefficient ") as exc:
            Polynomial((0, bad, 1, 2), 17)
        assert len(str(exc.value)) < 80

    def test_names_an_int_too_long_to_print(self):
        # repr refuses an int past the digit limit; the message gives its width
        with pytest.raises(ValueError, match=r"^coefficient <int of 16610 "
                                             r"bits> outside \[0, 17\)$"):
            Polynomial((10 ** 5000, 0, 0, 0), 17)

    def test_rejects_unknown_tags(self):
        with pytest.raises(ValueError):
            Polynomial((1, 2), 17, domain="spectral")


class TestNaiveMul:
    def test_identity(self, p17_8):
        rng = random.Random(1)
        one = Polynomial((1,) + (0,) * 7, 17)
        b = rand_poly(rng, p17_8)
        assert naive_negacyclic_mul(one, b, p17_8).coeffs == b.coeffs

    def test_wraparound_sign(self, p17_8):
        # x**7 * x = x**8 = -1 in this ring
        xh = Polynomial((0,) * 7 + (1,), 17)
        x1 = Polynomial((0, 1) + (0,) * 6, 17)
        assert naive_negacyclic_mul(xh, x1, p17_8).coeffs == (16,) + (0,) * 7

    def test_against_independent_schoolbook(self, p17_8):
        rng = random.Random(0x5EED)
        for _ in range(300):
            a = rand_poly(rng, p17_8)
            b = rand_poly(rng, p17_8)
            want = schoolbook_reference(a.coeffs, b.coeffs, 8, 17)
            assert naive_negacyclic_mul(a, b, p17_8).coeffs == want

    def test_wide_modulus_path(self):
        # 3*2**30 + 1: N*(M-1)**2 passes 2**62, so full-product coefficients
        # would overflow an int64 accumulator
        M = 3221225473
        p = build_params(M, 8)
        rng = random.Random(2)
        for _ in range(20):
            a = rand_poly(rng, p)
            b = rand_poly(rng, p)
            want = schoolbook_reference(a.coeffs, b.coeffs, 8, M)
            assert naive_negacyclic_mul(a, b, p).coeffs == want

    @given(ring=_prime_rings(), data=st.data())
    def test_prime_rings_match_independent_schoolbook(self, ring, data):
        M, N = ring
        p = build_params(M, N)
        coeffs = st.lists(st.integers(0, M - 1), min_size=N, max_size=N)
        a = Polynomial(data.draw(coeffs), M)
        b = Polynomial(data.draw(coeffs), M)
        assert (naive_negacyclic_mul(a, b, p).coeffs
                == schoolbook_reference(a.coeffs, b.coeffs, N, M))

    @pytest.mark.parametrize("M, N", [(FIXED_M, 256), (3221225473, 8)])
    def test_all_max_operands_fill_the_slot_bound(self, M, N):
        # full-product coefficient N - 1 is N * (M-1)**2, the largest value a
        # packed slot must hold; as (M-1)**2 = 1 (mod M), c_k = 2k + 2 - N
        p = build_params(M, N)
        top = Polynomial((M - 1,) * N, M)
        want = schoolbook_reference(top.coeffs, top.coeffs, N, M)
        assert want == tuple((2 * k + 2 - N) % M for k in range(N))
        assert naive_negacyclic_mul(top, top, p).coeffs == want

    def test_commutative(self, fixed_params):
        p = fixed_params[16]
        rng = random.Random(3)
        for _ in range(200):
            a = rand_poly(rng, p)
            b = rand_poly(rng, p)
            assert (naive_negacyclic_mul(a, b, p).coeffs
                    == naive_negacyclic_mul(b, a, p).coeffs)

    def test_distributes_over_addition(self, p17_8):
        rng = random.Random(4)
        M = 17
        for _ in range(200):
            a = rand_poly(rng, p17_8)
            b = rand_poly(rng, p17_8)
            c = rand_poly(rng, p17_8)
            bc = Polynomial(tuple((x + y) % M for x, y in
                                  zip(b.coeffs, c.coeffs)), M)
            lhs = naive_negacyclic_mul(a, bc, p17_8).coeffs
            ab = naive_negacyclic_mul(a, b, p17_8).coeffs
            ac = naive_negacyclic_mul(a, c, p17_8).coeffs
            assert lhs == tuple((x + y) % M for x, y in zip(ab, ac))

    def test_rejects_wrong_length(self, p17_8):
        a = Polynomial((1, 2, 3, 4), 17)
        with pytest.raises(ValueError):
            naive_negacyclic_mul(a, a, p17_8)

    def test_rejects_evaluation_domain(self, p17_8):
        rng = random.Random(5)
        a = rand_poly(rng, p17_8)
        spec = Polynomial(a.coeffs, 17, "evaluation")
        with pytest.raises(ValueError):
            naive_negacyclic_mul(spec, a, p17_8)


class TestForwardTransform:
    def test_impulse_gives_constant_spectrum(self, p17_8):
        a = Polynomial((5,) + (0,) * 7, 17)
        out = ntt_forward(a, p17_8)
        assert out.coeffs == (5,) * 8
        assert out.domain == "evaluation"

    def test_all_ones_collapses(self, p17_8):
        a = Polynomial((1,) * 8, 17)
        assert ntt_forward(a, p17_8).coeffs == (8,) + (0,) * 7

    def test_against_matrix_oracle(self, p17_8, fixed_params):
        for p, seed in ((p17_8, 6), (fixed_params[16], 7)):
            N, M, w = p.n, p.M, p.omega
            rng = random.Random(seed)
            for _ in range(100):
                a = rand_poly(rng, p)
                want = tuple(
                    sum(a.coeffs[j] * pow(w, i * j, M) for j in range(N)) % M
                    for i in range(N))
                assert ntt_forward(a, p).coeffs == want

    def test_linearity(self, fixed_params):
        p = fixed_params[16]
        M = p.M
        rng = random.Random(8)
        for _ in range(100):
            a = rand_poly(rng, p)
            b = rand_poly(rng, p)
            alpha = rng.randrange(M)
            beta = rng.randrange(M)
            mix = Polynomial(tuple((alpha * x + beta * y) % M for x, y in
                                   zip(a.coeffs, b.coeffs)), M)
            fa = ntt_forward(a, p).coeffs
            fb = ntt_forward(b, p).coeffs
            want = tuple((alpha * x + beta * y) % M for x, y in zip(fa, fb))
            assert ntt_forward(mix, p).coeffs == want


class TestInverseTransform:
    def test_round_trip_impulse(self, p17_8):
        a = Polynomial((0, 3) + (0,) * 6, 17)
        assert ntt_inverse(ntt_forward(a, p17_8), p17_8).coeffs == a.coeffs

    def test_collapsed_spectrum_inverts_to_ones(self, p17_8):
        spec = Polynomial((8,) + (0,) * 7, 17, "evaluation")
        assert ntt_inverse(spec, p17_8).coeffs == (1,) * 8

    def test_round_trip_random(self, p17_4, p17_8, fixed_params):
        for p, seed in ((p17_4, 9), (p17_8, 10), (fixed_params[16], 11)):
            rng = random.Random(seed)
            for _ in range(300):
                a = rand_poly(rng, p)
                back = ntt_inverse(ntt_forward(a, p), p)
                assert back.coeffs == a.coeffs
                assert back.domain == "coefficient"

    def test_rejects_coefficient_domain(self, p17_8):
        a = Polynomial((1,) * 8, 17)
        with pytest.raises(ValueError):
            ntt_inverse(a, p17_8)


class TestTransformCertificate:
    """ntt_forward and ntt_inverse are Z_M-linear maps (integer sums and
    products, each reduced mod M), so agreeing with the DFT matrix on the N
    basis vectors proves them equal to it on all M**N inputs."""

    @pytest.mark.parametrize("M", [FIXED_M, 12289])
    def test_basis_vectors_give_the_dft_columns(self, M):
        for N in (4, 8, 16, 32, 64, 128, 256):
            p = build_params(M, N)
            fwd = [pow(p.omega, k, M) for k in range(N)]
            inv = [p.n_inv * pow(p.omega_inv, k, M) % M for k in range(N)]
            for j in range(N):
                e = (0,) * j + (1,) + (0,) * (N - j - 1)
                col = tuple(fwd[i * j % N] for i in range(N))
                assert ntt_forward(Polynomial(e, M), p).coeffs == col
                col = tuple(inv[i * j % N] for i in range(N))
                assert ntt_inverse(Polynomial(e, M, "evaluation"),
                                   p).coeffs == col


@st.composite
def _wide_ring_operands(draw):
    """(M, N, a, b) with M up to 2**64 - 2**32 + 1, so the unreduced stage
    values, up to (log2 N + 1)*M forward and N*M inverse, pass 2**64."""
    M, N = draw(st.one_of(_prime_rings(), st.sampled_from(
        [((1 << 64) - (1 << 32) + 1, n) for n in (4, 16, 64, 256)])))
    top = M - 1
    operand = st.one_of(
        st.just((top,) * N),
        st.just(tuple(top * (i & 1) for i in range(N))),
        st.integers(0, N - 1).map(
            lambda j: (0,) * j + (top,) + (0,) * (N - j - 1)),
        st.lists(st.integers(0, top), min_size=N, max_size=N))
    return M, N, Polynomial(draw(operand), M), Polynomial(draw(operand), M)


class TestFiveStepMul:
    @given(case=_wide_ring_operands())
    def test_lazy_reduction_headroom(self, case):
        # all M-1, alternating 0 / M-1, a single M-1 and random operands
        M, N, a, b = case
        p = build_params(M, N)
        assert (negacyclic_mul_ntt(a, b, p).coeffs
                == naive_negacyclic_mul(a, b, p).coeffs)

    @pytest.mark.parametrize("M, N", [(FIXED_M, 256), (12289, 1024)])
    def test_lazy_adders_keep_the_stated_bounds(self, M, N):
        # the transforms' adders do not reduce: walked one table at a time,
        # |x| < (s+1)*M after forward stage s and |x| < 2**s * M after
        # inverse stage s, with random and all-(M-1) operands
        p = build_params(M, N)
        rng = random.Random(61)
        top = Polynomial((M - 1,) * N, M)
        for a, b in ((rand_poly(rng, p), rand_poly(rng, p)), (top, top)):
            spectra = []
            for c in (a, b):
                x = [v * w % M for v, w in zip(c.coeffs, p.weights_fwd)]
                for s, tw in enumerate(p.stage_twiddles_fwd, 1):
                    x = _forward(x, [tw], M)
                    assert max(map(abs, x)) < (s + 1) * M, s
                spectra.append(x)
            x = [u * v % M for u, v in zip(*spectra)]
            for s, tw in enumerate(p.stage_twiddles_inv, 1):
                x = _inverse(x, [tw], M)
                assert max(map(abs, x)) < 2**s * M, s
            assert ([v * w % M for v, w in zip(x, p.weights_inv_scaled)]
                    == list(negacyclic_mul_ntt(a, b, p).coeffs))

    def test_identity(self, p17_8):
        rng = random.Random(17)
        one = Polynomial((1,) + (0,) * 7, 17)
        b = rand_poly(rng, p17_8)
        assert negacyclic_mul_ntt(one, b, p17_8).coeffs == b.coeffs

    def test_wraparound_sign(self, p17_8):
        xh = Polynomial((0,) * 7 + (1,), 17)
        x1 = Polynomial((0, 1) + (0,) * 6, 17)
        assert negacyclic_mul_ntt(xh, x1, p17_8).coeffs == (16,) + (0,) * 7

    def test_matches_oracle_small_grid(self, p17_4):
        # every combination of {0, 1, M-1} in all four positions, both sides
        vals = (0, 1, 16)
        polys = [Polynomial((w, x, y, z), 17)
                 for w in vals for x in vals for y in vals for z in vals]
        for a in polys[:20]:
            for b in polys:
                assert (negacyclic_mul_ntt(a, b, p17_4).coeffs
                        == naive_negacyclic_mul(a, b, p17_4).coeffs)

    def test_matches_oracle_random(self, p17_8, fixed_params):
        for p, seed in ((p17_8, 18), (fixed_params[32], 19),
                        (fixed_params[256], 20)):
            rng = random.Random(seed)
            for _ in range(100):
                a = rand_poly(rng, p)
                b = rand_poly(rng, p)
                assert (negacyclic_mul_ntt(a, b, p).coeffs
                        == naive_negacyclic_mul(a, b, p).coeffs)

    def test_result_tags(self, p17_8):
        rng = random.Random(21)
        a = rand_poly(rng, p17_8)
        b = rand_poly(rng, p17_8)
        c = negacyclic_mul_ntt(a, b, p17_8)
        assert c.domain == "coefficient"
