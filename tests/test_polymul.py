import functools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nttmul import BarrettConstantError, build_params
from nttmul import params as params_module
from nttmul.params import (bit_reverse_index, derive_roots, is_prime,
                           ring_problem)
from nttmul.pipesim import (PipelineAssertionError, PipelineConfig, _table_proof,
                            run_stream)
from nttmul.polymul import (
    Polynomial,
    _block_stages_fwd,
    _block_stages_inv,
    _forward,
    _forward_packed,
    _inverse,
    _inverse_blocks,
    _inverse_packed,
    _leaf_products,
    _packing,
    _slots,
    naive_negacyclic_mul,
    negacyclic_mul_ntt,
    ntt_forward,
    ntt_inverse,
)

FIXED_M = 1_049_089
GOLDILOCKS = (1 << 64) - (1 << 32) + 1
# (M, N, w, q): rings whose schoolbook slot of w bytes spreads into q 64-bit
# limbs, under one limb, exactly one, two (twice) and three; the last M is
# the largest prime below 2**64 with 64 | M - 1
LIMB_RINGS = [(FIXED_M, 256, 7, 1), (1_073_741_441, 8, 8, 1),
              (1_518_500_033, 8, 9, 2), (3_221_225_473, 8, 9, 2),
              (18_446_744_073_709_550_593, 32, 17, 3)]
# (M, N): the Fermat primes 257 and 65537, where M - 1 is a power of two
FERMAT_RINGS = ([(257, 1 << e) for e in range(2, 8)]
                + [(65_537, 256), (65_537, 4096)])


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

    def test_accepts_length_one(self):
        # 1 = 2**0 is a power of two
        assert Polynomial((0,), 17).coeffs == (0,)

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

    @pytest.mark.parametrize("M, N", [(17, 8), (FIXED_M, 256), (12289, 1024),
                                      (18_446_744_073_709_550_593, 32)])
    def test_kernel_outputs_equal_checked_polynomials(self, M, N):
        # the four kernels build their results without the checks; each
        # equals the polynomial the checking constructor makes of its
        # fields, which would raise on any entry outside [0, M)
        p = build_params(M, N)
        rng = random.Random(N)
        a, b = rand_poly(rng, p), rand_poly(rng, p)
        spectrum = ntt_forward(a, p)
        for out in (naive_negacyclic_mul(a, b, p), negacyclic_mul_ntt(a, b, p),
                    spectrum, ntt_inverse(spectrum, p)):
            assert type(out.coeffs) is tuple and len(out) == N
            assert out == Polynomial(out.coeffs, out.modulus, out.domain)

    def test_rejects_unknown_tags(self):
        with pytest.raises(ValueError):
            Polynomial((1, 2), 17, domain="spectral")


class TestFrozenValues:
    # the value classes (Polynomial, ModulusContext, NttParams,
    # PipelineConfig, CycleReport) share nttmul._frozen.Frozen

    def test_compare_hash_and_print_by_fields(self):
        p = Polynomial([1, 2], 17)
        q = Polynomial._unchecked((1, 2), 17, "coefficient")
        assert p == q and hash(p) == hash(q)
        assert p != Polynomial((1, 2), 17, "evaluation")
        assert p != ((1, 2), 17, "coefficient")
        assert repr(p) == ("Polynomial(coeffs=(1, 2), modulus=17, "
                           "domain='coefficient')")

    def test_refuses_assignment_and_deletion(self):
        p = Polynomial((1, 2), 17)
        for change in (lambda: setattr(p, "modulus", 19),
                       lambda: setattr(p, "extra", 1),
                       lambda: delattr(p, "coeffs")):
            with pytest.raises(AttributeError):
                change()
        assert p == Polynomial((1, 2), 17)

    def test_arguments_by_place_name_or_default(self):
        assert (Polynomial((1, 2), 17) == Polynomial(coeffs=(1, 2), modulus=17)
                == Polynomial((1, 2), modulus=17, domain="coefficient"))
        for args, kwargs in [(((1, 2),), {}),                  # missing
                             (((1, 2), 17, "coefficient", 0), {}),  # too many
                             (((1, 2), 17), {"modulus": 17}),  # twice
                             (((1, 2), 17), {"size": 2})]:     # no such field
            with pytest.raises(TypeError):
                Polynomial(*args, **kwargs)

    def test_replace_checks_again(self, p17_4):
        p = Polynomial((1, 2), 17)
        assert p._replace(domain="evaluation").domain == "evaluation"
        with pytest.raises(ValueError, match="coefficient 17 outside"):
            p._replace(coeffs=(0, 17))
        with pytest.raises(BarrettConstantError):
            p17_4.ctx._replace(barrett_u=1)
        # the tables cached on a set are not fields; build_params derives
        # none of them, and a copy derives its own
        caches = {"merged_tables", "leaf_constants", "shoup_tables"}
        assert not caches & set(vars(build_params(17, 4)))
        p17_4.merged_tables, p17_4.leaf_constants, p17_4.shoup_tables
        copy = p17_4._replace()
        assert copy == p17_4 and hash(copy) == hash(p17_4)
        assert not caches & set(vars(copy))


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

    @pytest.mark.parametrize("N", [4, 8])
    def test_monomials_wrap_on_both_halves(self, p17_4, p17_8, N):
        # (M-1) x**i times 3 x**j is -3 x**(i+j), wrapped to 3 x**(i+j-N)
        # past N; the kernel splits the product by parity, so i + j runs
        # over both halves, odd wraps included (x**(N-1) * x**2 = -x), and
        # at N = 4 each half is two slots
        p = {4: p17_4, 8: p17_8}[N]
        for i in range(N):
            for j in range(N):
                a = Polynomial(tuple(16 * (k == i) for k in range(N)), 17)
                b = Polynomial(tuple(3 * (k == j) for k in range(N)), 17)
                k = (i + j) % N
                want = tuple((-3 if i + j < N else 3) % 17 * (m == k)
                             for m in range(N))
                assert want == schoolbook_reference(a.coeffs, b.coeffs, N, 17)
                assert naive_negacyclic_mul(a, b, p).coeffs == want, (i, j)

    def test_smallest_ring_against_independent_schoolbook(self, p17_4):
        # N = 4: each of the kernel's halves is N/2 = 2 slots
        rng = random.Random(6)
        top = Polynomial((16,) * 4, 17)
        pairs = [(top, top)] + [(rand_poly(rng, p17_4), rand_poly(rng, p17_4))
                                for _ in range(300)]
        for a, b in pairs:
            assert (naive_negacyclic_mul(a, b, p17_4).coeffs
                    == schoolbook_reference(a.coeffs, b.coeffs, 4, 17))

    @pytest.mark.parametrize("M, N", FERMAT_RINGS)
    @pytest.mark.parametrize("kind", ["top-times-one", "all-top"])
    def test_fermat_rings_against_independent_schoolbook(self, M, N, kind):
        # M - 1 a power of two: a coefficient M - 1 fills one byte more
        # than M - 2 does, so a slot that drops its top byte gives wrong
        # products.  The schoolbook, the transform and the pipeline model
        # each equal the independent schoolbook
        one = [1] + [0] * (N - 1)
        a, b = (([M - 1] + [0] * (N - 1), one) if kind == "top-times-one"
                else ([M - 1] * N,) * 2)
        want = schoolbook_reference(a, b, N, M)
        p = build_params(M, N)
        a, b = Polynomial(a, M), Polynomial(b, M)
        (piped,), _ = run_stream([(a, b)], PipelineConfig(n=N, params=p))
        assert naive_negacyclic_mul(a, b, p).coeffs == want
        assert negacyclic_mul_ntt(a, b, p).coeffs == want
        assert piped.coeffs == want

    @given(ring=_prime_rings())
    def test_all_max_operands_on_prime_rings(self, ring):
        # every full-product coefficient at its largest, N * (M-1)**2 at
        # N - 1, on any prime ring below 2**64, 1 to 3 limbs a slot
        M, N = ring
        top = Polynomial((M - 1,) * N, M)
        assert (naive_negacyclic_mul(top, top, build_params(M, N)).coeffs
                == schoolbook_reference(top.coeffs, top.coeffs, N, M))

    @pytest.mark.parametrize("M, N, w, q", LIMB_RINGS)
    def test_random_operands_at_limb_boundaries(self, M, N, w, q):
        assert _slots(N, M)[:2] == (w, q)
        p = build_params(M, N)
        rng = random.Random(M)
        for _ in range(4):
            a = rand_poly(rng, p)
            b = rand_poly(rng, p)
            want = schoolbook_reference(a.coeffs, b.coeffs, N, M)
            assert naive_negacyclic_mul(a, b, p).coeffs == want

    @pytest.mark.parametrize("M, N", [(FIXED_M, 256), (3221225473, 8),
                                      (1_073_741_441, 8),
                                      (18_446_744_073_709_550_593, 32)])
    def test_all_max_operands_fill_the_slot_bound(self, M, N):
        # full-product coefficient N - 1 is N * (M-1)**2, so wrapped slot
        # N - 1 holds N * (M-1)**2 + B, within M of the 2B a slot must hold;
        # as (M-1)**2 = 1 (mod M), c_k = 2k + 2 - N
        p = build_params(M, N)
        top = Polynomial((M - 1,) * N, M)
        want = schoolbook_reference(top.coeffs, top.coeffs, N, M)
        assert want == tuple((2 * k + 2 - N) % M for k in range(N))
        assert naive_negacyclic_mul(top, top, p).coeffs == want

    @pytest.mark.parametrize("M, N, mode", [(FIXED_M, 256, "schedule"),
                                            (12289, 1024, "structural")])
    def test_random_products_at_benchmark_sizes(self, M, N, mode):
        # run_stream returns this kernel's products, so at these sizes they
        # are checked against the independent schoolbook here
        p = build_params(M, N)
        rng = random.Random(N)
        pairs = [(rand_poly(rng, p), rand_poly(rng, p)) for _ in range(3)]
        want = [schoolbook_reference(a.coeffs, b.coeffs, N, M) for a, b in pairs]
        assert [naive_negacyclic_mul(a, b, p).coeffs for a, b in pairs] == want
        prods, _ = run_stream(pairs, PipelineConfig(n=N, params=p, mode=mode))
        assert [c.coeffs for c in prods] == want

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
        # the transforms' adders do not reduce: walked one merged table at
        # a time, |x| < (s+1)*M after forward stage s and |x| < 2**s * M
        # after inverse stage s < m, and the last stage, which scales its
        # sums by N**-1, leaves every entry in [0, M); random and
        # all-(M-1) operands
        p = build_params(M, N)
        fwd, inv = p.merged_tables
        rng = random.Random(61)
        top = Polynomial((M - 1,) * N, M)
        for a, b in ((rand_poly(rng, p), rand_poly(rng, p)), (top, top)):
            spectra = []
            for c in (a, b):
                x = list(c.coeffs)
                for s, tw in enumerate(fwd, 1):
                    x = _forward(x, [tw], M)
                    assert max(map(abs, x)) < (s + 1) * M, s
                spectra.append(x)
            x = [u * v % M for u, v in zip(*spectra)]
            for s, tw in enumerate(inv[:-1], 1):
                x = _inverse(x, [tw], M)
                assert max(map(abs, x)) < 2**s * M, s
            x = _inverse(x, inv[-1:], M, p.n_inv)
            assert 0 <= min(x) and max(x) < M
            assert x == list(negacyclic_mul_ntt(a, b, p).coeffs)

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


CERTIFIED_RINGS = [(M, N) for M in (17, FIXED_M, 12289, 786433)
                   for N in (4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
                   if (M - 1) % (2 * N) == 0]


def tampered(params, key, at, value):
    # params with entry `at` of table `key` (a (stage, entry) pair for the
    # stage tables, None for a scalar) set to value
    if at is None:
        return params._replace(**{key: value})
    table = getattr(params, key)
    if isinstance(at, tuple):
        s, i = at
        stage = table[s][:i] + (value,) + table[s][i + 1:]
        return params._replace(**{key: table[:s] + (stage,) + table[s + 1:]})
    return params._replace(**{key: table[:at] + (value,) + table[at + 1:]})


class TestMergedTables:
    """negacyclic_mul_ntt's stage tables, ``NttParams.merged_tables``: the
    phi weights and N**-1 folded in, derived on first use and kept on the
    table set."""

    @pytest.mark.parametrize("M, N", CERTIFIED_RINGS)
    def test_tables_equal_the_closed_form(self, M, N):
        # forward stage s, pair j: phi**((N >> s) * (2*brv_{s-1}(t) + 1));
        # inverse stage s: phi_inv**(2**(s-1) * (2*brv_{m-s}(t) + 1)),
        # times N**-1 at s = m; t is j mod the stage's count of twiddles
        p = build_params(M, N)
        m, phi, phi_inv = p.num_stages, p.phi, p.phi_inv
        fwd, inv = p.merged_tables
        assert len(fwd) == len(inv) == m
        for s in range(1, m + 1):
            t = [j % (1 << (s - 1)) for j in range(N // 2)]
            assert fwd[s - 1] == tuple(
                pow(phi, (N >> s) * (2 * bit_reverse_index(i, s - 1) + 1), M)
                for i in t), s
            t = [j % (1 << (m - s)) for j in range(N // 2)]
            scale = p.n_inv if s == m else 1
            assert inv[s - 1] == tuple(
                pow(phi_inv, (1 << (s - 1)) * (2 * bit_reverse_index(i, m - s)
                                               + 1), M) * scale % M
                for i in t), s

    @pytest.mark.parametrize("key", ["stage_twiddles_fwd",
                                     "stage_twiddles_inv"])
    @pytest.mark.parametrize("s", [0, 2, 3, 5, 7])
    def test_tampered_set_is_not_served_the_derived_tables(self, fixed_params,
                                                           key, s):
        # the derived set's tables are cached first; a set equal to it but
        # for one stage entry, at the same (M, N), derives its own merged
        # tables, Shoup pairs and leaf constants.  At N = 256 (m = 8,
        # k_p = 3) the product reads forward stages 1 ... 4, stage 4
        # (s = 3) through the leaf constants alone, and inverse stages
        # 6 ... 8, so the tampered entry changes the product exactly there
        p = fixed_params[256]
        rng = random.Random(s)
        a, b = rand_poly(rng, p), rand_poly(rng, p)
        want = negacyclic_mul_ntt(a, b, p)
        i = rng.randrange(len(getattr(p, key)[s]))
        bad = tampered(p, key, (s, i), (getattr(p, key)[s][i] + 1) % p.M)
        assert bad.merged_tables != p.merged_tables
        assert bad.leaf_constants is not p.leaf_constants
        assert bad.shoup_tables is not p.shoup_tables
        forward = key == "stage_twiddles_fwd"
        assert (bad.leaf_constants != p.leaf_constants) == (forward and s == 3)
        reads = s <= 3 if forward else s >= 5
        # the product's pairs change with the packed stages it reads
        assert (bad.shoup_tables[:2] != p.shoup_tables[:2]) == (
            reads and s != 3)
        assert (negacyclic_mul_ntt(a, b, bad) != want) == reads
        assert negacyclic_mul_ntt(a, b, p) == want

    @pytest.mark.parametrize("M, N", CERTIFIED_RINGS)
    def test_all_max_operands_equal_the_oracle(self, M, N):
        # all-(M-1) operands: every full-product coefficient at its largest
        p = build_params(M, N)
        top = Polynomial((M - 1,) * N, M)
        assert negacyclic_mul_ntt(top, top, p) == naive_negacyclic_mul(top,
                                                                       top, p)

    @pytest.mark.parametrize("M, N", [(17, 4), (97, 16), (FIXED_M, 256),
                                      (12289, 1024), (GOLDILOCKS, 64)])
    def test_shoup_tables_pair_the_entries_each_stage_reads(self, M, N):
        # per packed stage, (w, floor(w * 2**beta / M)) for the entries its
        # blocks read, 2**(s-1) of forward stage s and 2**(m-s) of inverse
        # stage s: the product's first k_p forward and last k_p inverse
        # merged stages, and the first k forward and last k inverse stages
        # of the set's own tables, whose last inverse stage ntt_inverse
        # takes times N**-1, cached with them
        p = build_params(M, N)
        m = p.num_stages
        k, kp, beta, _, _, _, _ = _packing(N, M)
        own = p.stage_twiddles_inv[:-1] + (tuple(
            w * p.n_inv % M for w in p.stage_twiddles_inv[-1]),)
        mf, mi = p.merged_tables
        want = [[mf[s - 1][:1 << s - 1] for s in range(1, kp + 1)],
                [mi[s - 1][:1 << m - s] for s in range(m - kp + 1, m + 1)],
                p.stage_twiddles_fwd[:k], own[m - k:]]
        got = p.shoup_tables
        assert got[4] == own and len(got) == 5
        for tables, pairs in zip(want, got):
            assert [[w for w, _ in t] for t in pairs] == [list(t)
                                                          for t in tables]
            assert all(wq == (w << beta) // M < 1 << beta
                       for t in pairs for w, wq in t)
        assert p.shoup_tables is got


def _stage_operands(M, N):
    """All M-1, alternating 0 / M-1, a single M-1 and random operands of
    length N; a random one is drawn from a seed, as N reaches 4096."""
    top = M - 1
    return st.one_of(
        st.just([top] * N),
        st.just([top * (i & 1) for i in range(N)]),
        st.integers(0, N - 1).map(
            lambda j: [0] * j + [top] + [0] * (N - j - 1)),
        st.randoms(use_true_random=False).map(
            lambda r: [r.randrange(M) for _ in range(N)]))


class TestStagePasses:
    """The transforms run their stages two to a pass: a pass makes the
    values its two stages make one at a time, unreduced sums included, so
    the stated lazy bounds hold for the passes too."""

    @pytest.mark.parametrize("M, N", CERTIFIED_RINGS)
    @settings(max_examples=10)
    @given(data=st.data())
    def test_pass_equals_its_two_stages(self, M, N, data):
        # every pair of adjacent stages k + 1, k + 2 (odd and even m), on
        # the drawn operand and on the values the first k stages leave
        p = build_params(M, N)
        fwd, inv = p.merged_tables
        m, x = p.num_stages, data.draw(_stage_operands(M, N))
        for t, run in ((fwd, _forward), (inv, _inverse)):
            y = list(x)
            for k in range(m - 1):
                for z in (x, y):
                    assert run(list(z), t[k:k + 2], M) == run(
                        run(list(z), t[k:k + 1], M), t[k + 1:k + 2], M), k
                y = run(y, t[k:k + 1], M)
        for z in (x, _inverse(list(x), inv[:-2], M)):
            assert _inverse(list(z), inv[-2:], M, p.n_inv) == _inverse(
                _inverse(list(z), inv[-2:-1], M), inv[-1:], M, p.n_inv)


class TestNetworkCertificate:
    """pipesim's certificate: the network its stages route is a tree of
    CRT splits (``_network_proof``) and a table set holds the powers it
    needs (``_table_proof``), so the pipeline computes a*b mod x**N + 1."""

    @pytest.mark.parametrize("M, N", CERTIFIED_RINGS)
    def test_accepts_derived_tables(self, M, N):
        _table_proof(build_params(M, N))

    @given(ring=_prime_rings(), data=st.data())
    def test_rejects_any_single_tampered_entry(self, ring, data):
        M, N = ring
        p = build_params(*ring)
        _table_proof(p)
        key = data.draw(st.sampled_from(
            ["weights_fwd", "weights_inv_scaled", "stage_twiddles_fwd",
             "stage_twiddles_inv", "phi", "omega", "phi_inv", "omega_inv",
             "n_inv"]))
        if isinstance(getattr(p, key), int):
            at, old = None, getattr(p, key)
        elif key.startswith("stage"):
            s = data.draw(st.integers(0, p.num_stages - 1))
            i = data.draw(st.integers(0, len(getattr(p, key)[s]) - 1))
            at, old = (s, i), getattr(p, key)[s][i]
        else:
            at = data.draw(st.integers(0, N - 1))
            old = getattr(p, key)[at]
        value = data.draw(st.integers(0, M - 1).filter(lambda v: v != old))
        with pytest.raises(PipelineAssertionError, match=key):
            _table_proof(tampered(p, key, at, value))

    @pytest.mark.parametrize("mutant", ["twiddle-swap", "index-rotation",
                                        "direction-swap"])
    def test_rejects_table_mutants(self, fixed_params, mutant):
        # at N = 256, for every stage table with two or more entries: its
        # first two entries swapped; its entries rotated by one, which is a
        # pair reading twiddle j + 1 mod len; or the same-length table of
        # the other direction in its place
        p = fixed_params[256]
        rejected = 0
        for key, other in (("stage_twiddles_fwd", "stage_twiddles_inv"),
                           ("stage_twiddles_inv", "stage_twiddles_fwd")):
            tables = getattr(p, key)
            for s, tw in enumerate(tables):
                if len(tw) < 2:
                    continue
                new = {"twiddle-swap": (tw[1], tw[0]) + tw[2:],
                       "index-rotation": tw[1:] + tw[:1],
                       "direction-swap": getattr(p, other)[-1 - s]}[mutant]
                assert new != tw
                mutated = tables[:s] + (new,) + tables[s + 1:]
                with pytest.raises(PipelineAssertionError, match=key):
                    _table_proof(
                        p._replace(**{key: mutated}))
                rejected += 1
        assert rejected == 14

    @pytest.mark.parametrize("roots, law", [
        (lambda omega, phi: (omega * omega, omega), "phi**N = -1"),
        (lambda omega, phi: (omega * omega, phi), "omega = phi**2")])
    def test_rejects_consistent_tables_of_wrong_roots(self, monkeypatch,
                                                     roots, law):
        # tables derived as build_params derives them, but from phi = omega
        # (phi**N = 1) or from omega**2 (order N/2): every table matches its
        # root, the products are wrong, and only the law catches it
        M, N = FIXED_M, 16
        right = derive_roots(M, N)
        monkeypatch.setattr(params_module, "derive_roots", lambda M, N: tuple(
            x % M for x in roots(*right)))
        p = build_params(M, N)
        rng = random.Random(71)
        a, b = rand_poly(rng, p), rand_poly(rng, p)
        assert (negacyclic_mul_ntt(a, b, p).coeffs
                != naive_negacyclic_mul(a, b, p).coeffs)
        with pytest.raises(PipelineAssertionError,
                           match=rf"^tables: {re.escape(law)} fails$"):
            _table_proof(p)


# (M, N, k, q): rings of the packed stages, with k packed stages and slots
# of q 64-bit limbs: the three benchmark rings (N*M just below 2**32 at
# N = 4096), N*M just above 2**32 and at 2**35.5, and the two primes near
# 2**64 that the wide tests use
PACKED_RINGS = [(FIXED_M, 256, 4, 1), (12289, 1024, 6, 1),
                (786433, 4096, 8, 1), (16_777_729, 256, 4, 2),
                (1_518_500_033, 32, 1, 2),
                (GOLDILOCKS, 64, 2, 3), (GOLDILOCKS, 256, 4, 3),
                (18_446_744_073_709_550_593, 32, 1, 3)]


def _encode(vals, q):
    """A packed block: vals in slots of q 64-bit limbs, low slot first."""
    return sum(v << 64 * q * i for i, v in enumerate(vals))


def _decode(x, count, q):
    """The count slots of the packed block x; no bit lies above them."""
    size = 64 * q
    assert 0 <= x < 1 << size * count
    return [x >> size * i & (1 << size) - 1 for i in range(count)]


def _pairs(tables, beta, M):
    """Every entry w of each table with its Shoup companion
    floor(w * 2**beta / M); the packed stages read a prefix of each."""
    return [tuple((w, (w << beta) // M) for w in t) for t in tables]


def _shoup(x, w, beta, M):
    """Shoup's product slot by slot, with the bounds its slot must keep:
    x below 2**beta, every product below the slot width 2**(2*beta), and
    the result in [0, 2M), congruent to x*w."""
    wq = (w << beta) // M
    quot = x * wq >> beta
    assert 0 <= x < 1 << beta
    assert max(x * wq, x * w, quot * M) < 1 << 2 * beta
    r = x * w - quot * M
    assert 0 <= r < 2 * M and r % M == x * w % M
    return r


class TestPackedStages:
    """The first k forward and last k inverse stages of the transform run
    on packed blocks (``_block_stages_fwd``, ``_block_stages_inv``): each
    block's slots equal a per-slot scalar model of the step, the stated
    bounds hold, and the blocks hand over to the scalar passes in their
    constant-geometry order."""

    @pytest.mark.parametrize("M, N, k, q", PACKED_RINGS)
    def test_geometry(self, M, N, k, q):
        got_k, _, beta, _, _, halves, _ = _packing(N, M)
        assert (got_k, beta) == (k, 32 * q) and len(halves) == k
        # q is the fewest limbs whose beta bounds the Shoup inputs
        assert N * M <= 1 << beta and (q == 1 or N * M > 1 << beta - 32)

    @pytest.mark.parametrize("N", [4, 8, 16, 32, 64, 2048])
    def test_k_leaves_four_scalar_stages(self, N):
        m = N.bit_length() - 1
        assert _packing(N, 12289)[0] == max(0, m - 4)

    @pytest.mark.parametrize("M, N, k, q", PACKED_RINGS)
    def test_forward_slots_equal_the_scalar_model(self, M, N, k, q):
        p = build_params(M, N)
        fwd, _ = p.merged_tables
        beta = 32 * q
        pairs = _pairs(fwd, beta, M)
        rng = random.Random(N)
        for coeffs in ([M - 1] * N, [rng.randrange(M) for _ in range(N)]):
            model, blocks = [coeffs], [_encode(coeffs, q)]
            for s in range(1, k + 1):
                L = N >> s
                step = []
                for c, v in enumerate(model):
                    r = [_shoup(x, fwd[s - 1][c], beta, M) for x in v[L:]]
                    step += ([lo + y for lo, y in zip(v, r)],
                             [lo + 2 * M - y for lo, y in zip(v, r)])
                model = step
                blocks = _block_stages_fwd(blocks, pairs[s - 1:s], N, M)
                assert [_decode(x, L, q) for x in blocks] == model, s
                assert max(map(max, model)) < (2 * s + 1) * M, s
            # block c is a[c::2**k] of the scalar stages' output, mod M
            a = _forward(list(coeffs), fwd[:k], M)
            for c, v in enumerate(model):
                assert [x % M for x in v] == [x % M for x in a[c::1 << k]]
            assert ([x % M for x in _forward_packed(coeffs, fwd, pairs[:k],
                                                    M)]
                    == [x % M for x in _forward(list(coeffs), fwd, M)])

    @pytest.mark.parametrize("M, N, k, q", PACKED_RINGS)
    def test_inverse_slots_equal_the_scalar_model(self, M, N, k, q):
        p = build_params(M, N)
        _, inv = p.merged_tables
        m, beta = p.num_stages, 32 * q
        pairs = _pairs(inv, beta, M)
        rng = random.Random(N)
        for spectrum in ([M - 1] * N, [rng.randrange(M) for _ in range(N)]):
            a = _inverse(list(spectrum), inv[:m - k], M)
            assert max(a) <= 2**(m - k) * (M - 1)
            model = [a[c::1 << k] for c in range(1 << k)]
            blocks = [_encode(v, q) for v in model]
            for s in range(m - k + 1, m + 1):
                L = 1 << s - 1
                step = []
                for c, (x, y) in enumerate(zip(model[0::2], model[1::2])):
                    C = L * M       # a multiple of M at or above every slot
                    assert max(y) <= C
                    step.append([u + v for u, v in zip(x, y)]
                                + [_shoup(u + C - v, inv[s - 1][c], beta, M)
                                   for u, v in zip(x, y)])
                model = step
                blocks = _block_stages_inv(blocks, pairs[s - 1:s], N, M)
                assert [_decode(x, 2 * L, q) for x in blocks] == model, s
                assert max(map(max, model)) <= 2**s * M, s
            # the last stage's sums scaled by N**-1, then reduced
            (v,) = model
            want = [_shoup(x, p.n_inv, beta, M) % M for x in v[:N // 2]]
            want += [x % M for x in v[N // 2:]]
            assert list(_inverse_packed(list(spectrum), inv, pairs[-k:], M,
                                        p.n_inv)) == want
            assert want == _inverse(list(spectrum), inv, M, p.n_inv)

    @pytest.mark.parametrize("M, q", [(FIXED_M, 1), (GOLDILOCKS, 3)])
    def test_final_reduction_per_slot(self, M, q):
        # the tail of _inverse_blocks on slots in [0, 2M): per slot, bit
        # beta of t = v + 2**beta - M is set exactly when v >= M, t fits
        # the 2*beta-bit slot, and v less that bit times M is v % M.  On a
        # block of N = 16 slots with no inverse stage and n_inv = 1, the
        # high half runs the reduction alone and the low half after
        # Shoup's product by 1, which leaves v mod M in [0, 2M)
        N, beta = 16, 32 * q
        assert _packing(N, M)[2] == beta
        vals = [0, 1, M - 1, M, M + 1, 2 * M - 1, M - 1, M]
        for v in vals:
            t = v + (1 << beta) - M
            assert t < 1 << 2 * beta
            assert (t >> beta & 1) == (v >= M)
            assert v - (t >> beta & 1) * M == v % M
        for slots in (vals + vals, vals[::-1] + vals):
            got = _inverse_blocks([_encode(slots, q)], (), N, M, 1)
            assert list(got) == [v % M for v in slots]

    @pytest.mark.parametrize("M, N", [(17, 4), (17, 8), (97, 16),
                                      (GOLDILOCKS, 64), (GOLDILOCKS, 128),
                                      (GOLDILOCKS, 256),
                                      (18_446_744_073_709_550_593, 32)])
    def test_products_equal_the_schoolbook(self, M, N):
        # k = 0 at N <= 16; slots of three limbs near 2**64
        p = build_params(M, N)
        rng = random.Random(M % 1000 + N)
        top = Polynomial((M - 1,) * N, M)
        for a, b in ((top, top), (rand_poly(rng, p), rand_poly(rng, p))):
            want = schoolbook_reference(a.coeffs, b.coeffs, N, M)
            assert negacyclic_mul_ntt(a, b, p).coeffs == want
            assert naive_negacyclic_mul(a, b, p).coeffs == want
            back = ntt_inverse(ntt_forward(a, p), p)
            assert back.coeffs == a.coeffs


# (M, N): rings of the leaf product besides PACKED_RINGS, k_p = 1 from
# N = 4 to 64 (at N = 64, leaves of 32 coefficients; PACKED_RINGS holds
# (GOLDILOCKS, 64)).  At N = 4, 4M is just below 2**32 for M = 1073741689,
# and 7M <= 2**32 < 8M for M = 536871001
LEAF_RINGS = ([(17, 4), (17, 8), (97, 16), (FIXED_M, 4), (FIXED_M, 16),
               (FIXED_M, 64), (1_073_741_689, 4), (536_871_001, 4),
               (GOLDILOCKS, 4), (GOLDILOCKS, 16)]
              + [(M, N) for M, N, _, _ in PACKED_RINGS])


def _leaf_geometry(M, N):
    """(k_p, beta): the packed forward stages before the leaves, of
    L = N >> k_p slots, and Shoup's shift."""
    _, kp, beta, _, _, _, _ = _packing(N, M)
    return kp, beta


def _leaf_operands(M, N, seed):
    """All M-1; M-1 in the low half and 0 in the high, whose stage 1
    writes lo + 2M - r with r = 0, slots of 3M - 1; two random."""
    rng = random.Random(seed)
    return ([M - 1] * N, [M - 1] * (N // 2) + [0] * (N // 2),
            [rng.randrange(M) for _ in range(N)],
            [rng.randrange(M) for _ in range(N)])


def _shoup_tight(x, w, beta, M):
    """_shoup, whose result is also below M * (1 + x / 2**beta)."""
    r = _shoup(x, w, beta, M)
    assert r << beta < M * ((1 << beta) + x)
    return r


class TestLeafProducts:
    """negacyclic_mul_ntt's incomplete transform: k_p = max(1, m - 5)
    packed forward stages leave block c the operand mod x**L - zeta_c,
    zeta_c = fwd[k_p][c]**2; each leaf is one big-int product, folded by
    four Shoup products and one by 1 (``_leaf_products``), and the leaves
    run the last k_p packed inverse stages."""

    @pytest.mark.parametrize("N", [4, 8, 16, 32, 64, 128, 1024, 2048])
    def test_k_p_leaves_thirty_two_coefficients(self, N):
        # k_p is not the k of ntt_forward's packed stages, max(0, m - 4),
        # but every stage k_p reads has its halves entry, k_p <= max(1, k)
        m = N.bit_length() - 1
        kp, _ = _leaf_geometry(12289, N)
        assert kp == max(1, m - 5)
        assert N >> kp == min(N // 2, 32)
        assert kp <= len(_packing(N, 12289)[5])

    @pytest.mark.parametrize("M, N", LEAF_RINGS)
    def test_slot_width(self, M, N):
        # q is the fewest limbs with max(N, 8)*M <= 2**beta: N*M bounds the
        # stages' Shoup inputs, and 8M the fold's last one, the sum of four
        # Shoup results
        _, beta = _leaf_geometry(M, N)
        bound = max(N, 8) * M
        assert bound <= 1 << beta and (beta == 32 or bound > 1 << beta - 32)

    def test_four_coefficient_ring_below_2_32_takes_two_limbs(self):
        # at M = 1073741689, N*M = 4M is just below 2**32, but the operand
        # (M-1, M-1, 0, 0) leaves forward block 1 = (3M - 1, 3M - 1), whose
        # square has the middle slot 2*(3M - 1)**2 > 2**64: one-limb slots
        # would carry there whatever Shoup's bound.  The slots take two
        # limbs, as 8M > 2**32, and every bound then holds
        M, N = 1_073_741_689, 4
        p = build_params(M, N)
        assert 4 * M < 1 << 32 < 8 * M and 2 * (3 * M - 1) ** 2 > 1 << 64
        kp, beta = _leaf_geometry(M, N)
        assert (kp, beta) == (1, 64)
        pairs, _, _, _, _ = p.shoup_tables
        _, x = _block_stages_fwd([_encode([M - 1, M - 1, 0, 0], 2)],
                                 pairs[:1], N, M)
        assert _decode(x, 2, 2) == [3 * M - 1] * 2
        assert _decode(x * x, 4, 2)[1] == 2 * (3 * M - 1) ** 2

    @pytest.mark.parametrize("M, N", LEAF_RINGS)
    def test_forward_blocks_are_residues_mod_x_L_minus_zeta(self, M, N):
        # the forward is linear: on each monomial x**j block c holds
        # x**j mod x**L - zeta_c = zeta_c**(j // L) * x**(j % L), mod M;
        # every j up to N = 256, a sample of them beyond
        p = build_params(M, N)
        fwd, _ = p.merged_tables
        pairs, _, _, _, _ = p.shoup_tables
        kp, beta = _leaf_geometry(M, N)
        q, L = beta // 32, N >> kp
        zetas = [w * w % M for w in fwd[kp][:1 << kp]]
        js = range(N) if N <= 256 else (0, 1, L - 1, L, L + 1, N // 2, N - 1)
        for j in js:
            blocks = _block_stages_fwd([1 << 64 * q * j], pairs[:kp], N, M)
            assert len(blocks) == len(zetas) == 1 << kp
            for x, zeta in zip(blocks, zetas):
                want = [0] * L
                want[j % L] = pow(zeta, j // L, M)
                assert [v % M for v in _decode(x, L, q)] == want, j

    @pytest.mark.parametrize("M, N", LEAF_RINGS)
    def test_leaf_slots_equal_the_scalar_model(self, M, N):
        # slot for slot: the packed leaf product carries no slot (every
        # slot of z below 2**(2*beta)), the fold's Shoup inputs are below
        # 2**beta, its four results sum below 8M, and every leaf slot lies
        # in [0, 2M), at most the first inverse stage's offset C = L*M
        p = build_params(M, N)
        fwd, _ = p.merged_tables
        pairs, _, _, _, _ = p.shoup_tables
        kp, beta = _leaf_geometry(M, N)
        q, L = beta // 32, N >> kp
        digit = (1 << beta) - 1
        ops = _leaf_operands(M, N, N)
        for x, y in [(ops[0], ops[0]), (ops[1], ops[1]), (ops[1], ops[2]),
                     (ops[2], ops[3])]:
            xs = _block_stages_fwd([_encode(x, q)], pairs[:kp], N, M)
            ys = _block_stages_fwd([_encode(y, q)], pairs[:kp], N, M)
            leaves = _leaf_products(xs, ys, p)
            assert len(leaves) == 1 << kp
            for c, (bx, by, leaf) in enumerate(zip(xs, ys, leaves)):
                zeta = fwd[kp][c] ** 2 % M
                u, v = _decode(bx, L, q), _decode(by, L, q)
                z = [sum(u[i] * v[j - i]
                         for i in range(max(0, j - L + 1), min(j, L - 1) + 1))
                     for j in range(2 * L)]
                assert max(z) < 1 << 2 * beta
                assert _decode(bx * by, 2 * L, q) == z
                consts = (L, L << beta, L * zeta, L * zeta << beta)
                model = []
                for lo, hi in zip(z[:L], z[L:]):
                    parts = (lo & digit, lo >> beta, hi & digit, hi >> beta)
                    r = sum(_shoup_tight(h, w % M, beta, M)
                            for h, w in zip(parts, consts))
                    assert r < 8 * M
                    model.append(_shoup_tight(r, 1, beta, M))
                assert _decode(leaf, L, q) == model
                assert max(model) < 2 * M <= L * M
                # L times the leaf product mod x**L - zeta_c
                assert [r % M for r in model] == [
                    L * (lo + zeta * hi) % M for lo, hi in zip(z[:L], z[L:])]

    @pytest.mark.parametrize("M, N", [(FIXED_M, 32), (FIXED_M, 64),
                                      (GOLDILOCKS, 64)])
    def test_basis_pairs_certify_the_product(self, M, N):
        # negacyclic_mul_ntt is Z/M-bilinear: every step is an integer sum
        # or a product by a constant, taken mod M, so agreeing with
        # x**i * x**j = +-x**((i+j) mod N) on all N**2 basis pairs proves
        # it on every pair of operands on this table set (32-coefficient
        # leaves at N = 64, k_p = 1; one-limb and three-limb slots).  It
        # proves the algebra only where no slot carries: basis inputs stay
        # far from the slot bounds, which the all-(M-1) operands reach
        # (test_all_max_operands_equal_the_oracle and the leaf tests)
        p = build_params(M, N)
        basis = [Polynomial((0,) * i + (1,) + (0,) * (N - i - 1), M)
                 for i in range(N)]
        for i, x in enumerate(basis):
            for j, y in enumerate(basis):
                want = [0] * N
                want[(i + j) % N] = 1 if i + j < N else M - 1
                assert negacyclic_mul_ntt(x, y, p).coeffs == tuple(want), (i,
                                                                           j)

    @pytest.mark.parametrize("M, N", [
        (17, 4), (17, 8), (97, 16), (FIXED_M, 4), (FIXED_M, 8),
        (FIXED_M, 16), (FIXED_M, 32), (FIXED_M, 64), (FIXED_M, 256),
        (GOLDILOCKS, 4), (GOLDILOCKS, 16), (GOLDILOCKS, 64),
        (GOLDILOCKS, 256), (18_446_744_073_709_550_593, 32),
        (1_073_741_689, 4), (536_871_001, 4)])
    def test_products_equal_the_schoolbook(self, M, N):
        # k_p = 1 at N <= 16; three-limb slots near 2**64; at
        # M = 1073741689, N = 4, the leaf slot 2*(3M - 1)**2 of the
        # half-(M-1) operand
        p = build_params(M, N)
        top, half, r1, r2 = _leaf_operands(M, N, M % 1000 + N)
        for x, y in [(top, top), (half, half), (half, top), (r1, r2)]:
            a, b = Polynomial(x, M), Polynomial(y, M)
            assert (negacyclic_mul_ntt(a, b, p).coeffs
                    == schoolbook_reference(x, y, N, M))


def test_smaller_slot_bound_overflows_on_no_ring():
    # _slots' B from (M-2)**2, B'' = M*ceil(N*(M-2)**2 / M): its top slot
    # N*(M-1)**2 + B'' overflows w'' = bytes(2B'') only where
    # 2B'' < 256**w'' <= N*(M-1)**2 + B''.  With s = sqrt(256**w'' / 2N),
    # the left inequality needs M - 2 < s, and M <= s rules the right one
    # out, as N*(M-1)**2 + B'' < N*((M-1)**2 + (M-2)**2) + M < 2N*M**2 then;
    # so M - 1 or M - 2 is floor(s), and checking those two for every
    # N = 2**m <= 2**62 (2N | M - 1 < 2**64) and every w'' up to 24 bytes
    # (N*(M-1)**2 + B'' < 2**192) covers every valid ring
    for m in range(2, 63):
        N = 1 << m
        for w in range(1, 25):
            root = math.isqrt((1 << 8 * w) // (2 * N))
            for M in (root + 1, root + 2):
                if (M - 1) % (2 * N) or ring_problem(M, N):
                    continue
                B = -(-N * (M - 2) ** 2 // M) * M
                assert B >= (N - 1) * (M - 1) ** 2
                width = ((2 * B).bit_length() + 7) // 8
                assert N * (M - 1) ** 2 + B < 1 << 8 * width, (M, N)
