import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nttmul import modarith
from nttmul.modarith import (
    FIXED_K,
    FIXED_M,
    FIXED_U_MIN,
    FIXED_U_SHORTCUT,
    KARATSUBA_BITS,
    BarrettConstantError,
    ModulusContext,
    barrett_first_failure,
    barrett_reduce_fixed,
    barrett_reduce_generic,
    find_barrett_constants,
    karatsuba_mul,
    validate_barrett_constants,
)

CTX = ModulusContext.create(FIXED_M)


class TestKaratsuba:
    def test_zero_absorbs(self):
        assert karatsuba_mul(0, 12345) == 0
        assert karatsuba_mul(12345, 0) == 0

    def test_half_width_powers(self):
        # 2**11 * 2**11 exercises the pure high-half term
        h = 1 << (KARATSUBA_BITS // 2)
        assert karatsuba_mul(h, h) == 1 << KARATSUBA_BITS

    def test_magnitudes_of_the_fixed_modulus(self):
        assert karatsuba_mul(1048576, 1049088) == 1_100_048_498_688

    def test_boundary_grid(self):
        half = KARATSUBA_BITS // 2
        edges = (0, 1, (1 << half) - 1, 1 << half, (1 << KARATSUBA_BITS) - 1)
        for a in edges:
            for b in edges:
                assert karatsuba_mul(a, b) == a * b

    def test_random_sweep(self):
        rng = random.Random(0x4AB)
        for _ in range(50_000):
            a = rng.getrandbits(21)
            b = rng.getrandbits(21)
            assert karatsuba_mul(a, b) == a * b

    @given(st.data())
    def test_exact_for_every_even_width(self, data):
        l = 2 * data.draw(st.integers(1, 32))
        a, b = (data.draw(st.integers(0, (1 << l) - 1)) for _ in range(2))
        assert karatsuba_mul(a, b, l) == a * b

    def test_other_widths(self):
        rng = random.Random(7)
        for l in (2, 6, 10, 64):
            for _ in range(200):
                a = rng.randrange(1 << l)
                b = rng.randrange(1 << l)
                assert karatsuba_mul(a, b, l) == a * b

    def test_rejects_odd_width(self):
        with pytest.raises(ValueError):
            karatsuba_mul(1, 1, 21)

    def test_rejects_oversized_operand(self):
        with pytest.raises(ValueError):
            karatsuba_mul(1 << KARATSUBA_BITS, 1)
        with pytest.raises(ValueError):
            karatsuba_mul(1, -1)


class TestBarrettGeneric:
    def test_zero(self):
        assert barrett_reduce_generic(0, CTX) == 0

    def test_square_of_max_residue(self):
        # (M-1)**2 = M*(M-2) + 1, so it reduces to 1
        assert barrett_reduce_generic((FIXED_M - 1) ** 2, CTX) == 1

    def test_random_sweep(self):
        top = (FIXED_M - 1) ** 2
        rng = random.Random(0xBA1)
        for _ in range(50_000):
            v = rng.randrange(top + 1)
            assert barrett_reduce_generic(v, CTX) == v % FIXED_M

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            barrett_reduce_generic(-1, CTX)
        with pytest.raises(ValueError):
            barrett_reduce_generic((FIXED_M - 1) ** 2 + 1, CTX)

    def test_overshooting_multiplier_locked_without_gate(self):
        # beta = 2 at I = 2M - 1, one above the quotient
        with pytest.raises(BarrettConstantError, match="I=2098177$"):
            ModulusContext(M=FIXED_M, barrett_k=FIXED_K,
                           barrett_u=FIXED_U_SHORTCUT)

    def test_undershooting_constants_raise_at_construction(self):
        # beta = 1 at I = 3M, two below the quotient
        with pytest.raises(BarrettConstantError, match="I=3147267$"):
            ModulusContext(M=FIXED_M, barrett_k=21, barrett_u=1)

    @given(st.data())
    def test_exact_over_the_domain_of_any_modulus(self, data):
        # moduli up to 64 bits: products far past int64
        M = data.draw(st.integers(2, (1 << 64) - 1))
        values = data.draw(st.lists(st.integers(0, (M - 1) ** 2),
                                    min_size=1, max_size=20))
        ctx = ModulusContext.create(M)
        for v in values:
            assert barrett_reduce_generic(v, ctx) == v % M

    def test_small_modulus_full_domain(self):
        k, u = find_barrett_constants(17)
        ctx = ModulusContext(M=17, barrett_k=k, barrett_u=u)
        for v in range(16 * 16 + 1):
            assert barrett_reduce_generic(v, ctx) == v % 17


class TestBarrettFixed:
    def test_zero(self):
        assert barrett_reduce_fixed(0) == 0

    def test_exact_multiple(self):
        assert barrett_reduce_fixed(FIXED_M) == 0

    def test_boundary_inputs(self):
        for v in (0, 1, FIXED_M - 1, FIXED_M, FIXED_M + 1,
                  2 * FIXED_M - 1, (FIXED_M - 1) ** 2):
            assert barrett_reduce_fixed(v) == v % FIXED_M

    def test_agrees_with_generic_and_remainder(self):
        top = (FIXED_M - 1) ** 2
        rng = random.Random(0xF18ED)
        for _ in range(50_000):
            v = rng.randrange(top + 1)
            r = barrett_reduce_fixed(v)
            assert r == v % FIXED_M
            assert r == barrett_reduce_generic(v, CTX)

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            barrett_reduce_fixed((FIXED_M - 1) ** 2 + 1)

    @given(st.integers(0, (FIXED_M - 1) ** 2))
    def test_exact_over_the_whole_domain(self, v):
        assert barrett_reduce_fixed(v) == v % FIXED_M


class TestFindConstants:
    def test_fixed_modulus(self):
        assert find_barrett_constants(FIXED_M) == (40, 1_048_063)

    def test_modulus_three(self):
        # exact rational check: k=2 gives u=1, e = 1/3 - 1/4 = 1/12, and the
        # worst input (M-1)**2 = 4 keeps beta exact; smallest k wins
        k, u = find_barrett_constants(3)
        assert (k, u) == (2, 1)
        e = Fraction(1, 3) - Fraction(u, 1 << k)
        assert 0 <= e and (3 - 1) ** 2 * e < 1

    def test_power_of_two_modulus_divides_exactly(self):
        k, u = find_barrett_constants(1 << 20)
        assert u == 1 << (k - 20)
        assert Fraction(1, 1 << 20) == Fraction(u, 1 << k)

    def test_found_constants_always_pass_the_gate(self):
        rng = random.Random(0x60E5)
        moduli = [3, 5, 17, 257, 65537, FIXED_M]
        moduli += [rng.randrange(2, 1 << 20) for _ in range(25)]
        for M in moduli:
            k, u = find_barrett_constants(M)
            assert validate_barrett_constants(M, k, u) is None, (M, k, u)

    @given(st.integers(1, (1 << 63) - 1).map(lambda h: 2 * h + 1))
    def test_odd_moduli_keep_the_error_bound_pair(self, M):
        # the search find_barrett_constants used before the certificate:
        # smallest k whose u keeps (M-1)**2 * (2**k - u*M) < M * 2**k
        k = M.bit_length()
        while (M - 1) ** 2 * ((1 << k) % M) >= M << k:
            k += 1
        assert find_barrett_constants(M) == (k, (1 << k) // M)

    def test_even_modulus_six_takes_a_smaller_k(self):
        # at k = 3, 2**k == (M-2) * (2**k mod M): the error bound rejects
        # u = 1, yet it reduces the whole domain [0, 25] exactly
        assert find_barrett_constants(6) == (3, 1)
        assert (6 - 1) ** 2 * (8 % 6) >= 6 * 8
        ctx = ModulusContext(6, 3, 1)
        assert all(barrett_reduce_generic(v, ctx) == v % 6 for v in range(26))


class TestValidateConstants:
    @pytest.mark.parametrize("M, k, u, first", [
        (FIXED_M, 40, FIXED_U_MIN, None),
        # u*M = 2**40 + 785920 > 2**40, so beta can overestimate
        (FIXED_M, 40, FIXED_U_SHORTCUT, 2 * FIXED_M - 1),
        (2, 2, 2, None),
        # moduli too wide for int64 products
        ((1 << 31) + 11, *find_barrett_constants((1 << 31) + 11), None),
        # the first failure is in block 8195
        (2_147_483_659, 75, 17_592_185_954_305, 17_600_776_069_163),
    ], ids=["minimal-pair", "shortcut-pair", "tiny-exact-division",
            "wide-derived", "wide-late-block-failure"])
    def test_raises_at_the_first_failure_or_returns_none(self, M, k, u,
                                                         first):
        if first is None:
            assert validate_barrett_constants(M, k, u) is None
        else:
            message = f"(k={k}, u={u}) fails for M={M} at I={first}"
            with pytest.raises(BarrettConstantError,
                               match=f"^{re.escape(message)}$"):
                validate_barrett_constants(M, k, u)

    def test_shortcut_failure_reproduces_by_hand(self):
        value = 2 * FIXED_M - 1
        beta = (value * FIXED_U_SHORTCUT) >> 40
        assert beta == 2                   # true quotient is 1
        assert value - beta * FIXED_M < 0  # wrapped negative, not a residue


class TestModulusContext:
    def test_create_fixed(self):
        assert CTX.barrett_k == FIXED_K
        assert CTX.barrett_u == FIXED_U_MIN

    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            ModulusContext(M=1, barrett_k=2, barrett_u=1)
        with pytest.raises(ValueError):
            ModulusContext(M=17, barrett_k=3, barrett_u=0)


def _brute_first_failure(M, k, u):
    # the reduction procedure itself, run on every input of the domain;
    # int64 holds values * u while (M - 1)**2 * 2**(k + 1) < 2**63
    values = np.arange((M - 1) ** 2 + 1, dtype=np.int64)
    r = values - ((values * u) >> k) * M
    r = np.where(r >= M, r - M, r)
    bad = np.flatnonzero(r != values % M)
    return int(bad[0]) if bad.size else None


@st.composite
def _barrett_triples(draw, max_m, min_m=2):
    # u near floor(2**k / M) hits both failure modes; any u covers the rest
    M = draw(st.integers(min_m, max_m))
    k = draw(st.integers(1, 40))
    near = max(1, (1 << k) // M + draw(st.integers(-3, 3)))
    u = draw(st.one_of(st.just(near), st.integers(1, 1 << (k + 1))))
    return M, k, u


class TestFirstFailureCertificate:
    @given(_barrett_triples(max_m=299))
    def test_matches_exhaustive_brute_force(self, mku):
        assert barrett_first_failure(*mku) == _brute_first_failure(*mku)

    @settings(max_examples=50)
    @given(_barrett_triples(min_m=300, max_m=2_000))
    def test_matches_exhaustive_brute_force_wider_moduli(self, mku):
        assert barrett_first_failure(*mku) == _brute_first_failure(*mku)

    @given(st.one_of(st.integers(1, 1 << 41),
                     st.integers(FIXED_U_MIN - 3, FIXED_U_MIN + 3)))
    def test_fixed_modulus_certifies_only_the_minimal_u(self, u):
        # the fixed reducer's multiplier is the only sound one at k = 40
        assert ((barrett_first_failure(FIXED_M, FIXED_K, u) is None)
                == (u == FIXED_U_MIN))

    @pytest.mark.parametrize("M, k, u, expected", [
        (257, 13, 33, 249),
        (FIXED_M, FIXED_K, FIXED_U_SHORTCUT, 2_098_177),
        (FIXED_M, FIXED_K, FIXED_U_MIN, None),
        # wide modulus, first failure in block 8195
        (2_147_483_659, 75, 17_592_185_954_305, 17_600_776_069_163),
    ])
    def test_pinned_values(self, M, k, u, expected):
        assert barrett_first_failure(M, k, u) == expected

    def test_create_rejects_failing_constants(self, monkeypatch):
        monkeypatch.setattr(modarith, "find_barrett_constants",
                            lambda M: (FIXED_K, FIXED_U_SHORTCUT))
        with pytest.raises(BarrettConstantError, match="I=2098177"):
            ModulusContext.create(FIXED_M)

    def test_construction_certifies_through_validate(self, monkeypatch):
        # looked up by name on every construction, so a wrapper sees it
        calls = []
        monkeypatch.setattr(modarith, "validate_barrett_constants",
                            lambda *mku: calls.append(mku))
        assert ModulusContext.create(FIXED_M) == CTX
        assert calls == [(FIXED_M, FIXED_K, FIXED_U_MIN)]

    @given(_barrett_triples(max_m=299))
    def test_context_has_an_exact_reducer_or_raises(self, mku):
        M, k, u = mku
        try:
            ctx = ModulusContext(M, k, u)
        except BarrettConstantError as exc:
            assert str(exc).endswith(f"at I={_brute_first_failure(M, k, u)}")
        else:
            assert all(barrett_reduce_generic(v, ctx) == v % M
                       for v in range((M - 1) ** 2 + 1))
