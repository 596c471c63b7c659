"""Acceptance gate: every release-blocking claim, one verdict line each.

Each test prints ``[criterion N] PASS/FAIL - ...`` straight to the terminal
(bypassing capture) so a plain pytest run shows the per-criterion outcome.
The criteria are documented in the README; briefly:

1. steady-state throughput N/2 at the production size,
2. first-transform latency formula across sizes,
3. first-product latency formula across sizes,
4. Barrett constant derivation, with the shortcut variant's verdict logged,
5. simulator = transform = schoolbook everywhere (grid + random),
6. reduction and multiplication kernels against plain big-int arithmetic,
7. throughput invariance under butterfly pipeline depth,
8. register accounting: formula values and measured occupancy bounds,
9. transform round-trip, linearity, commutativity.
"""

import random
import time
from contextlib import contextmanager

import pytest

from nttmul import (
    BarrettConstantError,
    PipelineConfig,
    Polynomial,
    barrett_first_failure,
    barrett_reduce_fixed,
    barrett_reduce_generic,
    find_barrett_constants,
    karatsuba_mul,
    naive_negacyclic_mul,
    negacyclic_mul_ntt,
    ntt_forward,
    ntt_inverse,
    run_stream,
    validate_barrett_constants,
)
from nttmul.modarith import FIXED_U_SHORTCUT, KARATSUBA_BITS, ModulusContext

FIXED_M = 1_049_089
SIZES = (8, 16, 32, 64, 128, 256)


def rand_poly(rng, params):
    return Polynomial(tuple(rng.randrange(params.M) for _ in range(params.n)),
                      params.M)


def rand_pairs(rng, params, count):
    return [(rand_poly(rng, params), rand_poly(rng, params))
            for _ in range(count)]


@pytest.fixture
def announce(capsys):
    def emit(line):
        with capsys.disabled():
            print(line, flush=True)
    return emit


@contextmanager
def criterion(announce, num, summary):
    t0 = time.time()
    try:
        yield
    except BaseException:
        announce(f"[criterion {num}] FAIL - {summary}")
        raise
    announce(f"[criterion {num}] PASS - {summary} ({time.time() - t0:.1f}s)")


@pytest.fixture(scope="module")
def schedule_runs(fixed_params):
    # one six-multiplication schedule-mode run per size, shared below
    out = {}
    for n in SIZES:
        p = fixed_params[n]
        rng = random.Random(0xACC0 + n)
        pairs = rand_pairs(rng, p, 6)
        out[n] = (pairs, *run_stream(pairs, PipelineConfig(n=n, params=p)))
    return out


def test_steady_state_throughput_production_size(fixed_params, announce):
    with criterion(announce, 1,
                   "n=256 steady state is 128 cycles per multiplication"):
        t0 = time.time()
        p = fixed_params[256]
        rng = random.Random(0x7100)
        pairs = rand_pairs(rng, p, 6)
        _, rep = run_stream(pairs, PipelineConfig(n=256, params=p))
        elapsed = time.time() - t0
        assert rep.multiplications >= 5
        assert rep.steady_cycles_per_mul == 128 == 256 // 2
        assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


def test_first_transform_latency_formula(schedule_runs, announce):
    with criterion(announce, 2,
                   "first-transform latency equals n + log2(n) - 2 for "
                   "n in 8..256; n=16 gives 18"):
        for n in SIZES:
            rep = schedule_runs[n][2]
            m = n.bit_length() - 1
            assert rep.first_ntt_latency == n + m - 2, n
        assert schedule_runs[16][2].first_ntt_latency == 18


def test_first_product_latency_formula(schedule_runs, announce):
    with criterion(announce, 3,
                   "first-product latency equals 2n + 2*log2(n) - 1 for "
                   "n in 8..256; n=256 gives 527"):
        for n in SIZES:
            rep = schedule_runs[n][2]
            m = n.bit_length() - 1
            assert rep.first_mul_latency == 2 * n + 2 * m - 1, n
        assert schedule_runs[256][2].first_mul_latency == 527


def test_barrett_constants_and_shortcut_verdict(announce):
    with criterion(announce, 4,
                   "minimal constants are (k=40, u=1048063); shortcut "
                   "u=1048064 verdict recorded"):
        assert find_barrett_constants(FIXED_M) == (40, 1_048_063)
        first = barrett_first_failure(FIXED_M, 40, FIXED_U_SHORTCUT)
        assert first == 2_098_177
        with pytest.raises(BarrettConstantError, match=f"at I={first}$"):
            validate_barrett_constants(FIXED_M, 40, FIXED_U_SHORTCUT)
        # the certificate decides every input of [0, (M-1)**2]
        tested = (FIXED_M - 1) ** 2 + 1
        announce(f"    u=1048064 verdict: INVALID, first counterexample "
                 f"{first} (tested {tested} inputs)")


def test_simulator_transform_oracle_agree_everywhere(p17_4, fixed_params,
                                                     announce):
    with criterion(announce, 5,
                   "simulator = transform = schoolbook on the n=4 grid and "
                   "1000 random pairs per size"):
        # run_stream returns the schoolbook's products; that they are the
        # simulated pipeline's rests on the proofs it runs (the routing
        # law, _network_proof and the table certificate).  The
        # negacyclic_mul_ntt call below is the suite's only transform
        # computation on these pairs: it compares the transform itself
        # with the schoolbook.
        t0 = time.time()

        # structured grid: all corner-valued polynomials, both operands
        vals = (0, 1, 16)
        grid = [Polynomial((w, x, y, z), 17)
                for w in vals for x in vals for y in vals for z in vals]
        pairs = [(a, b) for a in grid for b in grid]
        prods, _ = run_stream(pairs, PipelineConfig(n=4, params=p17_4))
        for (a, b), got in zip(pairs, prods):
            want = naive_negacyclic_mul(a, b, p17_4).coeffs
            assert got.coeffs == want
            assert negacyclic_mul_ntt(a, b, p17_4).coeffs == want

        for n in SIZES:
            p = fixed_params[n]
            rng = random.Random(0x0AC1E + n)
            pairs = rand_pairs(rng, p, 1000)
            prods, _ = run_stream(pairs, PipelineConfig(n=n, params=p))
            for (a, b), got in zip(pairs, prods):
                want = naive_negacyclic_mul(a, b, p).coeffs
                assert got.coeffs == want
                assert negacyclic_mul_ntt(a, b, p).coeffs == want

        elapsed = time.time() - t0
        assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 2min"


def test_reduction_and_multiplication_kernels(announce):
    with criterion(announce, 6,
                   "both reducers match big-int remainder on 1e6 inputs; "
                   "karatsuba matches direct product on 1e6 pairs"):
        t0 = time.time()
        ctx = ModulusContext.create(FIXED_M)
        top = (FIXED_M - 1) ** 2

        for v in (0, FIXED_M - 1, FIXED_M, 2 * FIXED_M - 1, top):
            want = v % FIXED_M
            assert barrett_reduce_fixed(v) == want
            assert barrett_reduce_generic(v, ctx) == want

        rng = random.Random(0x6A7E)
        for _ in range(1_000_000):
            v = rng.randrange(top + 1)
            want = v % FIXED_M
            assert barrett_reduce_fixed(v) == want
            assert barrett_reduce_generic(v, ctx) == want

        half = KARATSUBA_BITS // 2
        edges = (0, 1, (1 << half) - 1, 1 << half, (1 << KARATSUBA_BITS) - 1)
        for a in edges:
            for b in edges:
                assert karatsuba_mul(a, b) == a * b
        for _ in range(1_000_000):
            a = rng.getrandbits(21)
            b = rng.getrandbits(21)
            assert karatsuba_mul(a, b) == a * b

        elapsed = time.time() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"


def test_throughput_invariant_under_pipeline_depth(fixed_params, announce):
    with criterion(announce, 7,
                   "steady state stays n/2 for butterfly latency 1, 4, 12 "
                   "at n=16 and n=256"):
        for n in (16, 256):
            p = fixed_params[n]
            rng = random.Random(0x1A7 + n)
            pairs = rand_pairs(rng, p, 6)
            for lat in (1, 4, 12):
                mode = "schedule" if lat == 1 else "structural"
                cfg = PipelineConfig(n=n, params=p, mode=mode,
                                     butterfly_latency=lat)
                prods, rep = run_stream(pairs, cfg)
                assert rep.steady_cycles_per_mul == n // 2, (n, lat)
                assert prods[0].coeffs == naive_negacyclic_mul(
                    *pairs[0], p).coeffs


def test_register_accounting(schedule_runs, announce):
    with criterion(announce, 8,
                   "formula register counts reported (270/818 at n=256), "
                   "measured occupancy within 2*hold, n=16 "
                   "discrepancy surfaced"):
        rep256 = schedule_runs[256][2]
        assert rep256.predicted_ntt_regs == 270
        assert rep256.predicted_mul_regs == 818
        for n in SIZES:
            rep = schedule_runs[n][2]
            for peak, cap in zip(rep.regs_per_stage,
                                 rep.fifo_capacity_per_stage):
                assert peak <= cap, n
            for peak, cap in zip(rep.inv_regs_per_stage,
                                 rep.inv_fifo_capacity_per_stage):
                assert peak <= cap, n
            # steady state fills every hold FIFO completely
            assert rep.regs_per_stage == rep.fifo_capacity_per_stage
        rep16 = schedule_runs[16][2]
        note = " ".join(rep16.notes)
        assert rep16.predicted_ntt_regs == 22
        assert "22" in note and "18" in note


def test_transform_algebra(p17_8, fixed_params, announce):
    with criterion(announce, 9,
                   "round-trip, linearity and commutativity hold on 1000 "
                   "random instances each"):
        t0 = time.time()
        p16 = fixed_params[16]
        M = p16.M

        rng = random.Random(0xA16E)
        for i in range(1000):
            p = p17_8 if i % 2 else p16
            a = rand_poly(rng, p)
            assert ntt_inverse(ntt_forward(a, p), p).coeffs == a.coeffs

        for _ in range(1000):
            a = rand_poly(rng, p16)
            b = rand_poly(rng, p16)
            alpha = rng.randrange(M)
            beta = rng.randrange(M)
            mix = Polynomial(tuple((alpha * x + beta * y) % M
                                   for x, y in zip(a.coeffs, b.coeffs)), M)
            fa = ntt_forward(a, p16).coeffs
            fb = ntt_forward(b, p16).coeffs
            assert ntt_forward(mix, p16).coeffs == tuple(
                (alpha * x + beta * y) % M for x, y in zip(fa, fb))

        for _ in range(1000):
            a = rand_poly(rng, p16)
            b = rand_poly(rng, p16)
            assert (naive_negacyclic_mul(a, b, p16).coeffs
                    == naive_negacyclic_mul(b, a, p16).coeffs)

        elapsed = time.time() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
