import json
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

import nttmul.params
from nttmul.params import (
    NttParams,
    bit_reverse_index,
    build_params,
    derive_roots,
    emit_tables,
    factorize,
    is_prime,
    load_tables,
    params_from_dict,
    params_to_dict,
    ring_problem,
)
from nttmul.polymul import Polynomial, negacyclic_mul_ntt

FIXED_M = 1_049_089

# zero of the Arabic-Indic, extended Arabic-Indic, Devanagari and fullwidth
# digit runs: int() reads all of them, a table file holds none of them
_NON_ASCII_ZEROS = (0x0660, 0x06F0, 0x0966, 0xFF10)


def _leaves(obj, path=()):
    """Paths to every scalar in a table-file dict, list entries included."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return [path]
    return [leaf for key, v in items for leaf in _leaves(v, path + (key,))]


@st.composite
def _small_rings(draw):
    """(M, N): a prime M < 2**31 with 2N | M - 1, N in {4, 8, 16}."""
    N = draw(st.sampled_from((4, 8, 16)))
    k = draw(st.integers(3, ((1 << 31) - 2) // (2 * N)))
    # walk down to the nearest prime of the form k*2N + 1; 17 (N = 4, 8)
    # and 97 (N = 16) end every walk
    while not is_prime(k * 2 * N + 1):
        k -= 1
    return k * 2 * N + 1, N


def _mutations(s):
    """Every value that must not load where the table file holds ``s``."""
    if not s.isdigit():         # a storage kind
        return st.one_of(st.text().filter(lambda t: t != s),
                         st.integers(), st.booleans(), st.none())
    n = int(s)
    return st.one_of(
        st.integers(-(1 << 64), 1 << 64).filter(lambda v: v != n).map(str),
        st.sampled_from([n, float(n), True, False, None]),
        st.sampled_from([s[:1] + "_" + s[1:], "+" + s, "-" + s, "0" + s,
                         " " + s]),
        st.sampled_from(_NON_ASCII_ZEROS).map(lambda zero: s.translate(
            {ord("0") + d: zero + d for d in range(10)})))


class TestPrimality:
    def test_small_values(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 97, 257}
        for n in range(2, 300):
            assert is_prime(n) == (n in primes or all(
                n % d for d in range(2, int(n ** 0.5) + 1)))

    def test_carmichael_number_rejected(self):
        assert not is_prime(561)
        assert not is_prime(41041)

    def test_production_modulus_is_prime(self):
        assert is_prime(FIXED_M)

    def test_factorize_group_order(self):
        assert factorize(FIXED_M - 1) == {2: 9, 3: 1, 683: 1}

    def test_factorize_reconstructs(self):
        rng = random.Random(0xFAC)
        for _ in range(50):
            n = rng.randrange(2, 1 << 40)
            prod = 1
            for p, e in factorize(n).items():
                assert is_prime(p)
                prod *= p ** e
            assert prod == n


class TestRingValidation:
    def test_production_ring(self):
        assert ring_problem(FIXED_M, 256) is None

    def test_toy_ring(self):
        assert ring_problem(17, 4) is None

    def test_n512_needs_1024_dividing_group_order(self):
        # M - 1 = 2**9 * 3 * 683 carries only nine factors of two
        assert (FIXED_M - 1) % 1024 != 0
        assert ring_problem(FIXED_M, 512) is not None

    def test_rejects_composite_modulus(self):
        assert ring_problem(15, 4) is not None
        assert "prime" in ring_problem(15, 4)

    def test_rejects_non_power_of_two(self):
        assert ring_problem(17, 3) is not None
        assert ring_problem(17, 0) is not None

    def test_rejects_order_mismatch(self):
        assert ring_problem(17, 16) is not None  # 32 does not divide 16

    def test_rejects_modulus_beyond_exact_primality(self):
        # composite, yet a strong pseudoprime to all twelve witness bases;
        # the 2**64 limit is reported before the order check
        M = 399_165_290_221 * 798_330_580_441
        assert is_prime(M)
        assert "2**64" in ring_problem(M, 4)
        # a prime just below 2**64 whose group order admits N = 4 is accepted
        assert ring_problem((1 << 64) - (1 << 32) + 1, 4) is None


class TestBitReverse:
    def test_three_bit_cases(self):
        assert bit_reverse_index(1, 3) == 4
        assert bit_reverse_index(3, 3) == 6
        assert bit_reverse_index(0, 3) == 0
        assert bit_reverse_index(7, 3) == 7

    def test_involution(self):
        for bits in (1, 2, 3, 5, 8):
            for i in range(1 << bits):
                assert bit_reverse_index(bit_reverse_index(i, bits), bits) == i


class TestDeriveRoots:
    def test_toy_ring_concrete_values(self):
        assert derive_roots(17, 4) == (13, 9)

    def test_toy_ring_orders_exhaustively(self):
        omega, phi = derive_roots(17, 4)
        assert pow(omega, 4, 17) == 1
        for i in range(1, 4):
            assert pow(omega, i, 17) != 1
        assert phi * phi % 17 == omega
        assert pow(phi, 4, 17) == 16

    def test_production_ring_orders(self):
        omega, phi = derive_roots(FIXED_M, 256)
        assert pow(omega, 256, FIXED_M) == 1
        assert pow(phi, 256, FIXED_M) == FIXED_M - 1
        assert phi * phi % FIXED_M == omega
        # primitivity: no proper divisor order
        for d in (2, 4, 8, 16, 32, 64, 128):
            assert pow(omega, d, FIXED_M) != 1

    def test_deterministic(self):
        assert derive_roots(FIXED_M, 256) == derive_roots(FIXED_M, 256)

    def test_rejects_bad_ring(self):
        with pytest.raises(ValueError):
            derive_roots(15, 4)


class TestBuildParams:
    def test_toy_tables(self, p17_4):
        assert p17_4.weights_fwd == (1, 9, 13, 15)
        assert p17_4.weights_inv_scaled == (13, 9, 1, 2)
        assert p17_4.n_inv == 13
        assert p17_4.stage_twiddles_fwd == ((1,), (1, 13))
        assert p17_4.stage_twiddles_inv == ((1, 4), (1,))

    def test_production_shapes(self, fixed_params):
        p = fixed_params[256]
        assert len(p.weights_fwd) == 256
        assert len(p.weights_inv_scaled) == 256
        assert p.num_stages == 8
        assert [len(t) for t in p.stage_twiddles_fwd] == \
            [1, 2, 4, 8, 16, 32, 64, 128]
        assert [len(t) for t in p.stage_twiddles_inv] == \
            [128, 64, 32, 16, 8, 4, 2, 1]

    def test_storage_kinds_follow_table_sizes(self, fixed_params):
        d = params_to_dict(fixed_params[256])
        assert d["storage_kind_fwd"] == ["regs"] * 3 + ["mem"] * 5
        assert d["storage_kind_inv"] == ["mem"] * 5 + ["regs"] * 3

    def test_weight_tables_cancel(self, p17_4, fixed_params):
        for p in (p17_4, fixed_params[256]):
            M, N = p.M, p.n
            for i in range(N):
                assert p.weights_fwd[i] * p.weights_inv_scaled[i] * N % M == 1

    def test_weights_against_pow_oracle(self, fixed_params):
        p = fixed_params[256]
        M = p.M
        phi_inv = pow(p.phi, -1, M)
        n_inv = pow(256, -1, M)
        for i in range(256):
            assert p.weights_fwd[i] == pow(p.phi, i, M)
            assert p.weights_inv_scaled[i] == n_inv * pow(phi_inv, i, M) % M

    def test_first_stage_twiddles_are_unit(self, fixed_params):
        for n, p in fixed_params.items():
            assert set(p.stage_twiddles_fwd[0]) == {1}
            assert set(p.stage_twiddles_inv[-1]) == {1}

    def test_validate_passes_and_is_hashable(self, fixed_params):
        p = fixed_params[64]
        assert params_from_dict(params_to_dict(p)) == p
        assert isinstance(hash(p), int)

    @given(ring=_small_rings())
    def test_derived_tables_multiply_exactly(self, ring):
        # The product map is bilinear over Z_M, so agreeing with
        # x**i * x**j = +-x**((i+j) mod N) on all N**2 basis pairs proves it
        # right for every pair of inputs on this ring.
        M, N = ring
        p = build_params(M, N)
        assert pow(p.phi, N, M) == M - 1
        basis = [Polynomial(tuple(int(k == i) for k in range(N)), M)
                 for i in range(N)]
        for i in range(N):
            for j in range(N):
                want = [0] * N
                want[(i + j) % N] = 1 if i + j < N else M - 1
                assert negacyclic_mul_ntt(basis[i], basis[j], p).coeffs \
                    == tuple(want)

    def test_rejects_invalid_ring(self):
        with pytest.raises(ValueError):
            build_params(15, 4)
        with pytest.raises(ValueError):
            build_params(FIXED_M, 512)


class TestSerialization:
    def test_round_trip_toy(self, p17_4, tmp_path):
        path = tmp_path / "t.json"
        emit_tables(p17_4, path)
        assert load_tables(path) == p17_4

    def test_round_trip_production(self, fixed_params, tmp_path):
        path = tmp_path / "t.json"
        emit_tables(fixed_params[256], path)
        assert load_tables(path) == fixed_params[256]

    def test_dict_round_trip(self, p17_8):
        assert params_from_dict(params_to_dict(p17_8)) == p17_8

    def test_emit_is_deterministic(self, p17_4, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        emit_tables(p17_4, a)
        emit_tables(p17_4, b)
        assert a.read_bytes() == b.read_bytes()

    def test_all_values_are_decimal_strings(self, p17_4, tmp_path):
        path = tmp_path / "t.json"
        emit_tables(p17_4, path)
        obj = json.loads(path.read_text())
        assert obj["M"] == "17" and obj["N"] == "4"
        assert obj["weights_fwd"] == ["1", "9", "13", "15"]
        assert obj["stage_twiddles_fwd"] == [["1"], ["1", "13"]]

    def test_tampered_omega_rejected(self, p17_4):
        obj = params_to_dict(p17_4)
        obj["omega"] = "12"
        with pytest.raises(ValueError):
            params_from_dict(obj)

    def test_tampered_twiddle_rejected(self, p17_4):
        obj = params_to_dict(p17_4)
        obj["stage_twiddles_fwd"] = [["1"], ["1", "12"]]
        with pytest.raises(ValueError):
            params_from_dict(obj)

    def test_tampered_weight_rejected(self, p17_4):
        obj = params_to_dict(p17_4)
        obj["weights_inv_scaled"] = ["13", "9", "1", "3"]
        with pytest.raises(ValueError):
            params_from_dict(obj)

    @given(data=st.data())
    def test_every_single_field_mutation_rejected(self, fixed_params, data):
        obj = params_to_dict(fixed_params[16])
        *parents, last = data.draw(st.sampled_from(_leaves(obj)))
        holder = obj
        for key in parents:
            holder = holder[key]
        holder[last] = data.draw(_mutations(holder[last]))
        with pytest.raises(ValueError):
            params_from_dict(obj)

    def test_alternate_root_rejected(self):
        # phi = 9**3 = 15 is another primitive 8th root mod 17, and every
        # table below is consistent with it; only the derived root loads
        assert pow(15, 4, 17) == 16
        obj = {"M": "17", "N": "4", "omega": "4", "phi": "15",
               "omega_inv": "13", "phi_inv": "8", "n_inv": "13",
               "weights_fwd": ["1", "15", "4", "9"],
               "weights_inv_scaled": ["13", "2", "16", "9"],
               "stage_twiddles_fwd": [["1"], ["1", "4"]],
               "stage_twiddles_inv": [["1", "13"], ["1"]],
               "storage_kind_fwd": ["regs", "regs"],
               "storage_kind_inv": ["regs", "regs"]}
        with pytest.raises(ValueError, match="'omega'"):
            params_from_dict(obj)

    def test_extra_key_rejected(self, p17_4):
        obj = params_to_dict(p17_4)
        obj["comment"] = "hand-edited"
        with pytest.raises(ValueError, match="'comment'"):
            params_from_dict(obj)

    def test_huge_claimed_size_rejected_before_deriving(self, p17_4,
                                                        monkeypatch):
        # 3*2**30 + 1 is prime, so N = 2**29 passes the ring check; the
        # 4-entry weight lists must reject the file before any derivation
        M, N = 3_221_225_473, 1 << 29
        assert ring_problem(M, N) is None
        obj = params_to_dict(p17_4)
        obj["M"], obj["N"] = str(M), str(N)

        def no_derivation(*args):
            raise AssertionError("tables were derived")

        monkeypatch.setattr(nttmul.params, "build_params", no_derivation)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="weights_fwd"):
            params_from_dict(obj)
        assert time.perf_counter() - start < 1.0

    def test_missing_field_rejected(self, p17_4):
        obj = params_to_dict(p17_4)
        del obj["n_inv"]
        with pytest.raises(ValueError):
            params_from_dict(obj)

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError):
            load_tables(path)
