import csv
import functools
import hashlib
import io
import json
import os
import random
import re
import tempfile
from collections import deque
from itertools import takewhile

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nttmul import pipesim, polymul
from nttmul.modarith import (barrett_reduce_fixed, barrett_reduce_generic,
                            karatsuba_mul)
from nttmul.params import NttParams, build_params
from nttmul.pipesim import (
    PipelineAssertionError,
    PipelineConfig,
    StageFifo,
    _network_proof,
    _PipeStage,
    _run_cycles,
    _schedule_law,
    predicted_first_mul_latency,
    predicted_first_ntt_latency,
    predicted_mul_regs,
    predicted_ntt_regs,
    run_stream,
    write_trace,
)
from nttmul.polymul import (Polynomial, naive_negacyclic_mul,
                            negacyclic_mul_ntt)

FIXED_M = 1_049_089


def rand_poly(rng, params):
    return Polynomial(tuple(rng.randrange(params.M) for _ in range(params.n)),
                      params.M)


def rand_pairs(rng, params, count):
    return [(rand_poly(rng, params), rand_poly(rng, params))
            for _ in range(count)]


def datapath_mul(p):
    # the multiplier units' product of two lists of residues: karatsuba_mul
    # on l-bit operands into Barrett, shift-add for the paper modulus, exact
    # up to (M-1)**2 and so equal to x * y % M
    bits = (p.M - 1).bit_length()
    l = bits + (bits & 1)       # smallest even operand width holding M - 1
    reduce = (barrett_reduce_fixed if p.M == FIXED_M
              else functools.partial(barrett_reduce_generic, ctx=p.ctx))
    return lambda xs, ys: [reduce(karatsuba_mul(x, y, l))
                           for x, y in zip(xs, ys)]


def datapath_units(p):
    # the units' product, and the butterflies on lists of lower elements,
    # higher elements and twiddles: ct (lo + w*hi, lo - w*hi) and gs
    # (lo + hi, (lo - hi)*w), with adders that bring each sum or difference
    # back into [0, M) by one conditional -M or +M, since the l-bit
    # Karatsuba takes residues only
    M, mul = p.M, datapath_mul(p)

    def addsub(lo, hi):
        return ([x + y - M if x + y >= M else x + y for x, y in zip(lo, hi)],
                [x - y + M if x < y else x - y for x, y in zip(lo, hi)])

    def ct(lo, hi, w):
        return addsub(lo, mul(hi, w))

    def gs(lo, hi, w):
        u, v = addsub(lo, hi)
        return u, mul(v, w)

    return mul, ct, gs


def datapath_product(p, a, b):
    # polymul's constant-geometry walk, weighting to unweighting, on the
    # units' arithmetic: forward stages pair j with j + N/2 and write 2j,
    # 2j + 1; inverse stages pair 2j with 2j + 1 and write j, j + N/2
    mul, ct, gs = datapath_units(p)
    h = p.n // 2

    def forward(x):
        for tw in p.stage_twiddles_fwd:
            x[0::2], x[1::2] = ct(x[:h], x[h:], tw * (h // len(tw)))
        return x

    def inverse(x):
        for tw in p.stage_twiddles_inv:
            u, v = gs(x[0::2], x[1::2], tw * (h // len(tw)))
            x = u + v
        return x

    xa, xb = (forward(mul(c, p.weights_fwd)) for c in (a, b))
    return mul(inverse(mul(xa, xb)), p.weights_inv_scaled)


class TestButterflyStep:
    # butterflies take (lower elements, higher elements, twiddles)
    def test_unit_twiddle_is_add_sub(self, fixed_params):
        _, ct, _ = datapath_units(fixed_params[16])
        assert ct([10], [3], [1]) == ([13], [7])

    def test_zero_input_passes_through(self, fixed_params):
        _, ct, _ = datapath_units(fixed_params[16])
        assert ct([42], [0], [12345]) == ([42], [42])

    def test_random_against_oracle(self, fixed_params, p17_4):
        for p, seed in ((fixed_params[256], 30), (p17_4, 31)):
            M = p.M
            _, ct, _ = datapath_units(p)
            rng = random.Random(seed)
            hi, lo, w = ([rng.randrange(M) for _ in range(2_000)]
                         for _ in range(3))
            u, v = ct(lo, hi, w)
            assert u == [(y + x * t) % M for x, y, t in zip(hi, lo, w)]
            assert v == [(y - x * t) % M for x, y, t in zip(hi, lo, w)]

    def test_gs_variant_against_oracle(self, fixed_params):
        p = fixed_params[256]
        M = p.M
        _, _, gs = datapath_units(p)
        rng = random.Random(32)
        hi, lo, w = ([rng.randrange(M) for _ in range(2_000)]
                     for _ in range(3))
        u, v = gs(lo, hi, w)
        assert u == [(y + x) % M for x, y in zip(hi, lo)]
        assert v == [(y - x) * t % M for x, y, t in zip(hi, lo, w)]


def feed_forever(fifo, n_ticks, start=0):
    out = []
    for t in range(start, start + n_ticks):
        out.append(fifo.tick((1000 + t, 2000 + t)))
    return out


class TestStageFifo:
    def test_capacity_is_twice_hold(self):
        # two banks of hold slots, fixed for the whole stream: the report's
        # capacity, 2 * hold
        for hold in (1, 2, 8, 64):
            fifo = StageFifo(hold)
            for t in range(4 * hold + 1):
                assert len(fifo.block_i) == len(fifo.block_ii) == hold
                fifo.tick((1000 + t, 2000 + t))
            assert len(fifo.block_i) + len(fifo.block_ii) == 2 * hold

    def test_peak_occupancy_is_capacity(self):
        # two slots loaded per fill tick, all 2 * hold of them by the first
        # pair: the report's peak equals its capacity
        for hold in (1, 2, 8, 64):
            fifo = StageFifo(hold)
            for k in range(hold + 1):
                banks = fifo.block_i + fifo.block_ii
                assert sum(x is not None for x in banks) == 2 * k
                out = fifo.tick((1000 + k, 2000 + k))
            assert out == (1000 + hold, 1000)
            feed_forever(fifo, 2 * hold, start=hold + 1)
            banks = fifo.block_i + fifo.block_ii
            assert sum(x is not None for x in banks) == 2 * hold

    def test_first_pair_after_hold_many_ticks(self):
        # hold 64: ticks 1..64 fill, tick 65 emits the first pair
        fifo = StageFifo(64)
        outs = feed_forever(fifo, 65)
        assert outs[:64] == [None] * 64
        assert outs[64] == (1064, 1000)   # live s1 paired with s1 held 64 back

    def test_pairing_distance_both_phases(self):
        hold = 4
        fifo = StageFifo(hold)
        outs = feed_forever(fifo, 4 * hold)
        # gate phase: live stream-1 meets bank-I tap
        for j in range(hold):
            assert outs[hold + j] == (1000 + hold + j, 1000 + j)
        # drain phase: both taps, stream-2 elements, same distance
        for j in range(hold):
            assert outs[2 * hold + j] == (2000 + hold + j, 2000 + j)
        # next gate phase continues seamlessly
        for j in range(hold):
            assert outs[3 * hold + j] == (1000 + 3 * hold + j,
                                          1000 + 2 * hold + j)

    def test_sel_toggles_at_hold_multiples(self):
        hold = 8
        fifo = StageFifo(hold)
        sels = []
        for t in range(4 * hold):
            sels.append(fifo.sel)
            fifo.tick((t, 100 + t))
        assert sels == [1] * hold + [0] * hold + [1] * hold + [0] * hold

    def test_drain_then_idle(self):
        hold = 2
        fifo = StageFifo(hold)
        feed_forever(fifo, 2 * hold)          # fill + gate phase
        # stream ends; drain phase pairs both banks without arrivals
        assert fifo.tick(None) is not None
        assert fifo.tick(None) is not None
        for _ in range(3):                    # then the gate phase idles
            assert fifo.tick(None) is None
            assert fifo.counter == 3 * hold

    def test_starved_during_fill(self):
        # hold 2: a None before the first arrival or in the fill is the
        # stream's end, not a fault: it emits nothing and leaves the counter
        fifo = StageFifo(2)
        assert fifo.tick(None) is None
        assert fifo.counter == 0
        feed_forever(fifo, 1)
        assert fifo.tick(None) is None
        assert fifo.counter == 1

    def test_starved_mid_stream(self):
        # hold 2: a None in a gate phase idles the FIFO, and the stream
        # resumes where it stopped
        fifo = StageFifo(2)
        feed_forever(fifo, 3)                 # fill + the gate's first tick
        assert fifo.tick(None) is None
        assert fifo.counter == 3
        assert fifo.tick((1003, 2003)) == (1003, 1001)
        assert fifo.counter == 4

    def test_arrival_after_drain_gap_raises(self):
        # hold 2: a None in a drain phase pairs the two taps without
        # reloading them; a later arrival raises nothing, it takes the next
        # drain slot, since the feeder's timing law is the one gap check
        fifo = StageFifo(2)
        feed_forever(fifo, 4)                 # fill + gate phase
        assert fifo.tick(None) == (2002, 2000)
        assert fifo.counter == 5
        assert fifo.tick((1005, 2005)) == (2003, 2001)
        assert fifo.counter == 6

    def test_hold_one(self):
        fifo = StageFifo(1)
        outs = feed_forever(fifo, 5)
        assert outs[0] is None
        assert outs[1] == (1001, 1000)
        assert outs[2] == (2001, 2000)
        assert outs[3] == (1003, 1002)

    def test_rejects_bad_hold(self):
        # True would pass as hold 1 and 2.0 or "2" fail on & or <: only a
        # type check turns them away with the ValueError of a bad size
        for bad in (3, 0, True, 2.0, "2"):
            with pytest.raises(ValueError, match="hold must be"):
                StageFifo(bad)

    @given(hold_log=st.integers(0, 6), blocks=st.integers(1, 4),
           data=st.data())
    def test_gaps_outside_a_drain_change_nothing(self, hold_log, blocks,
                                                  data):
        # Nones in the fill or a gate phase idle the FIFO: it emits the
        # pairs of the gap-free feed, whole transforms or cut short, and
        # ends in the gap-free feed's state
        hold = 1 << hold_log
        total = 2 * hold * blocks
        arrivals = data.draw(st.integers(0, total))
        idle = [i for i in range(arrivals + 1)
                if not i >> hold_log or i >> hold_log & 1]
        gaps = data.draw(st.lists(st.sampled_from(idle), max_size=3))
        feed = [(("s1", i), ("s2", i)) for i in range(arrivals)]

        def run(feed):
            fifo = StageFifo(hold)
            out = [fifo.tick(arrival) for arrival in feed + [None] * 2 * hold]
            return [pair for pair in out if pair is not None], fifo

        out, fifo = run(feed)
        for g in sorted(gaps, reverse=True):
            feed.insert(g, None)
        gapped, gapped_fifo = run(feed)
        assert gapped == out
        assert gapped_fifo.counter == fifo.counter
        assert ((gapped_fifo.block_i, gapped_fifo.block_ii)
                == (fifo.block_i, fifo.block_ii))
        # every pair: one stream, the lower element of a 2*hold block
        # paired with the element hold above it, never twice
        for newer, older in out:
            assert newer[0] == older[0]
            assert newer[1] - older[1] == hold
            assert older[1] % (2 * hold) < hold
        assert len(set(out)) == len(out)
        if arrivals == total:
            assert len(out) == total


def unit_stage(first):
    # a hold-0 column first firing on cycle ``first``: each arrival
    # (x_j, x_{j+N/2}) issues at once, higher element first, so fire t must
    # receive the labels (2t, 2t + 1), on cycle first + t
    return _PipeStage("unit", 0, first)


def law_out(stage, cycle, latency):
    # a stage's output after cycle's tick by the timing law, through a unit
    # of the given latency: fire k's labels (2k, 2k + 1),
    # k = cycle - (latency - 1) - first, if 0 <= k < t
    k = cycle - (latency - 1) - stage.first
    return (2 * k, 2 * k + 1) if 0 <= k < stage.t else None


def first_fires(mp):
    # the cycle of each stage's fire 0 as a run ticks it, by label, filled
    # in as the run ticks
    real_tick = _PipeStage.tick
    fired = {}

    def tick(stage, cycle, arrival):
        t = stage.t
        real_tick(stage, cycle, arrival)
        if stage.t > t == 0:
            fired[stage.label] = cycle

    mp.setattr(_PipeStage, "tick", tick)
    return fired


def scalar_latency(config):
    # the multipliers' unit latency S as _schedule_law states it: forward
    # stage 1, which has no FIFO, first fires S cycles after weighting
    firsts, _ = _schedule_law(config.n, config.butterfly_latency)
    return firsts[1] - firsts[0]


class TestButterflyUnit:
    @given(latency=st.integers(1, 16), lead=st.integers(0, 3),
           fires=st.integers(0, 20))
    def test_latency_and_order(self, latency, lead, fires):
        # by the timing law, the unit's output is fire t's labels
        # (2t, 2t + 1) as a delay line of latency - 1 slots would emit them
        stage = unit_stage(lead + 1)
        line = deque([None] * (latency - 1))
        feed = ([None] * lead + [(2 * t, 2 * t + 1) for t in range(fires)]
                + [None] * (latency + 1))
        for cycle, arrival in enumerate(feed, start=1):
            stage.tick(cycle, arrival)
            line.append(arrival)
            out = line.popleft()
            assert law_out(stage, cycle, latency) == out, cycle
        assert stage.t == fires

    def test_single_cycle_latency_same_tick(self):
        stage = unit_stage(5)
        stage.tick(5, (0, 1))
        assert law_out(stage, 5, 1) == (0, 1)

    def test_arrival_breaking_the_law_raises(self):
        # fire 1 must pair the labels (3, 2); product 0 is checked too
        stage = unit_stage(1)
        stage.tick(1, (0, 1))
        with pytest.raises(PipelineAssertionError,
                           match=r"unit: fire 1 pairs \(5, 4\), not \(3, 2\)"):
            stage.tick(2, (4, 5))

    def test_fire_off_its_cycle_raises(self):
        # fire 1 must come at first + 1, the cycle after fire 0
        stage = unit_stage(1)
        stage.tick(1, (0, 1))
        stage.tick(2, None)
        with pytest.raises(PipelineAssertionError,
                           match=r"^unit: fire 1 at cycle 3, not 2$"):
            stage.tick(3, (2, 3))

    @pytest.mark.parametrize("cycle", [1, 3])
    def test_first_fire_off_its_law_raises(self, cycle):
        # fire 0 must come at the law's first fire, here cycle 2
        with pytest.raises(PipelineAssertionError,
                           match=rf"^unit: fire 0 at cycle {cycle}, not 2$"):
            unit_stage(2).tick(cycle, (0, 1))


class TestPipelineConfig:
    def test_schedule_defaults_to_unit_latency(self, fixed_params):
        cfg = PipelineConfig(n=16, params=fixed_params[16])
        assert cfg.mode == "schedule"
        assert cfg.butterfly_latency == 1
        assert scalar_latency(cfg) == 1

    def test_schedule_refuses_deep_latency(self, fixed_params):
        with pytest.raises(ValueError):
            PipelineConfig(n=16, params=fixed_params[16], butterfly_latency=4)

    def test_structural_default_depths(self, fixed_params):
        cfg = PipelineConfig(n=16, params=fixed_params[16], mode="structural")
        assert cfg.butterfly_latency == 12
        assert scalar_latency(cfg) == 10

    def test_structural_override(self, fixed_params):
        cfg = PipelineConfig(n=16, params=fixed_params[16], mode="structural",
                             butterfly_latency=4)
        assert scalar_latency(cfg) == 2

    def test_latency_bound(self, fixed_params):
        # the fill, and with it the rows a trace writes, grows with the
        # depth, so it is bounded
        cfg = PipelineConfig(n=16, params=fixed_params[16], mode="structural",
                             butterfly_latency=1024)
        assert scalar_latency(cfg) == 1022
        for bad in (0, 1025):
            with pytest.raises(ValueError, match=r"butterfly_latency.*1024"):
                PipelineConfig(n=16, params=fixed_params[16],
                               mode="structural", butterfly_latency=bad)

    @pytest.mark.parametrize("latency", [True, 2.0, "3"])
    def test_latency_must_be_an_int(self, fixed_params, latency):
        # True compares equal to 1, so only a type check turns it away
        with pytest.raises(ValueError, match=r"latency must be an int in"):
            PipelineConfig(n=16, params=fixed_params[16], mode="structural",
                           butterfly_latency=latency)

    def test_rejects_mismatched_n(self, fixed_params):
        with pytest.raises(ValueError):
            PipelineConfig(n=32, params=fixed_params[16])

    def test_rejects_bad_n_or_mode(self, fixed_params, p17_4):
        with pytest.raises(ValueError):
            PipelineConfig(n=3, params=fixed_params[16])
        with pytest.raises(ValueError):
            PipelineConfig(n=16, params=fixed_params[16], mode="fast")


class TestPredictors:
    def test_first_transform_values(self):
        assert predicted_first_ntt_latency(4) == 4
        assert predicted_first_ntt_latency(16) == 18
        assert predicted_first_ntt_latency(256) == 262

    def test_first_product_values(self):
        assert predicted_first_mul_latency(4) == 11
        assert predicted_first_mul_latency(16) == 39
        assert predicted_first_mul_latency(256) == 527

    def test_register_values(self):
        assert predicted_ntt_regs(4) == 6
        assert predicted_ntt_regs(16) == 22
        assert predicted_ntt_regs(256) == 270
        assert predicted_mul_regs(4) == 26
        assert predicted_mul_regs(256) == 818

    def test_reject_bad_sizes(self, p17_4):
        for bad in (0, 2, 3, 24, True, 4.0, "8"):
            with pytest.raises(ValueError, match="must be a power of two"):
                predicted_first_ntt_latency(bad)
            with pytest.raises(ValueError, match="must be a power of two"):
                predicted_ntt_regs(bad)
            # the latency predictors read _schedule_law, which takes any N
            with pytest.raises(ValueError, match="must be a power of two"):
                predicted_first_mul_latency(bad)
            with pytest.raises(ValueError, match="must be a power of two"):
                predicted_mul_regs(bad)
        # a float N fails the type check before the params.n comparison
        with pytest.raises(ValueError, match="must be a power of two"):
            PipelineConfig(n=4.0, params=p17_4)


class TestRunStreamFunctional:
    def test_products_match_oracle_toy(self, p17_4):
        rng = random.Random(40)
        pairs = rand_pairs(rng, p17_4, 8)
        prods, report = run_stream(pairs, PipelineConfig(n=4, params=p17_4))
        for (a, b), got in zip(pairs, prods):
            assert got.coeffs == naive_negacyclic_mul(a, b, p17_4).coeffs
        assert report.multiplications == 8

    def test_products_match_oracle_sizes(self, fixed_params):
        for n in (8, 16, 32, 64):
            p = fixed_params[n]
            rng = random.Random(41)
            pairs = rand_pairs(rng, p, 5)
            prods, _ = run_stream(pairs, PipelineConfig(n=n, params=p))
            for (a, b), got in zip(pairs, prods):
                assert got.coeffs == naive_negacyclic_mul(a, b, p).coeffs

    def test_empty_stream(self, p17_4):
        prods, report = run_stream([], PipelineConfig(n=4, params=p17_4))
        assert prods == []
        assert report.first_mul_latency is None
        assert report.steady_cycles_per_mul is None
        # no products, so no steady spacing to miss
        assert not any("at least 4" in note for note in report.notes)

    def test_single_multiplication_latency(self, fixed_params):
        p = fixed_params[16]
        rng = random.Random(42)
        prods, report = run_stream(rand_pairs(rng, p, 1),
                                   PipelineConfig(n=16, params=p))
        assert report.first_mul_latency == 39
        assert report.steady_cycles_per_mul is None
        assert any("at least 4" in note for note in report.notes)

    def test_structured_patterns(self, fixed_params):
        p = fixed_params[8]
        M = p.M
        one = Polynomial((1,) + (0,) * 7, M)
        xh = Polynomial((0,) * 7 + (1,), M)
        x1 = Polynomial((0, 1) + (0,) * 6, M)
        rng = random.Random(43)
        b = rand_poly(rng, p)
        prods, _ = run_stream([(one, b), (xh, x1)],
                              PipelineConfig(n=8, params=p))
        assert prods[0].coeffs == b.coeffs
        assert prods[1].coeffs == (M - 1,) + (0,) * 7

    def test_rejects_bad_operands(self, p17_4, fixed_params):
        cfg = PipelineConfig(n=4, params=p17_4)
        wrong_len = Polynomial((1,) * 8, 17)
        ok = Polynomial((1, 2, 3, 4), 17)
        with pytest.raises(ValueError):
            run_stream([(wrong_len, wrong_len)], cfg)
        with pytest.raises(ValueError):
            run_stream([(ok, Polynomial((1, 2, 3, 4), 17, "evaluation"))], cfg)
        with pytest.raises(ValueError):
            run_stream([(ok, Polynomial((1, 2, 3, 4), FIXED_M))], cfg)


# operand kinds for the lazy walk: random, and the ends of the residue
# range, all at one end or alternating between them
OPERANDS = {
    "random": lambda rng, M, n: [rng.randrange(M) for _ in range(n)],
    "zero": lambda rng, M, n: [0] * n,
    "max": lambda rng, M, n: [M - 1] * n,
    "alternating": lambda rng, M, n: [(M - 1) * (i & 1) for i in range(n)],
}
LAZY_RINGS = [(m, n) for n in (4, 8, 16, 32, 64)
              for m in ((17,) if n <= 8 else ()) + (12289, FIXED_M)]


@pytest.fixture(scope="session")
def lazy_rings():
    return {ring: build_params(*ring) for ring in LAZY_RINGS}


class TestLazyReplay:
    @given(ring=st.sampled_from(LAZY_RINGS),
           mode=st.sampled_from(["schedule", "structural"]),
           kinds=st.lists(st.tuples(st.sampled_from(sorted(OPERANDS)),
                                    st.sampled_from(sorted(OPERANDS))),
                          min_size=1, max_size=3),
           seed=st.integers(0, 2**32))
    def test_lazy_products_equal_exact_and_schoolbook(
            self, lazy_rings, ring, mode, kinds, seed):
        # run_stream's products, the schoolbook's, are those of polymul's
        # walk with lazy adders and of the walk on the units' Karatsuba +
        # Barrett product with exact adders
        p = lazy_rings[ring]
        M, n = ring
        rng = random.Random(seed)
        pairs = [tuple(Polynomial(OPERANDS[k](rng, M, n), M) for k in kind)
                 for kind in kinds]
        prods, _ = run_stream(pairs, PipelineConfig(n=n, params=p, mode=mode))
        got = [q.coeffs for q in prods]
        exact = [datapath_product(p, a.coeffs, b.coeffs) for a, b in pairs]
        assert got == [tuple(c) for c in exact]
        assert got == [negacyclic_mul_ntt(a, b, p).coeffs for a, b in pairs]
        assert got == [naive_negacyclic_mul(a, b, p).coeffs for a, b in pairs]



class TestRunStreamTiming:
    def test_latencies_match_closed_forms(self, fixed_params):
        for n in (8, 16, 32, 64):
            p = fixed_params[n]
            rng = random.Random(44)
            _, rep = run_stream(rand_pairs(rng, p, 5),
                                PipelineConfig(n=n, params=p))
            assert rep.first_ntt_latency == predicted_first_ntt_latency(n)
            assert rep.first_mul_latency == predicted_first_mul_latency(n)
            assert rep.steady_cycles_per_mul == n // 2
            assert rep.stall_free

    def test_stage_fire_spacing(self, fixed_params):
        # each stage starts hold+1 cycles after its predecessor; the first
        # deep-stage operand pairing becomes possible five slots into the
        # stream at this size
        p = fixed_params[16]
        rng = random.Random(45)
        _, rep = run_stream(rand_pairs(rng, p, 4),
                            PipelineConfig(n=16, params=p))
        assert rep.fwd_stage_first_fire == (2, 7, 10, 12)
        assert rep.fwd_stage_first_fire[1] - rep.fwd_stage_first_fire[0] == 5

    def test_completion_spacing_constant(self, fixed_params):
        p = fixed_params[32]
        rng = random.Random(46)
        _, rep = run_stream(rand_pairs(rng, p, 6),
                            PipelineConfig(n=32, params=p))
        gaps = {b - a for a, b in zip(rep.completion_cycles,
                                      rep.completion_cycles[1:])}
        assert gaps == {16}

    def test_structural_mode_shifts_latency_only(self, fixed_params):
        p = fixed_params[16]
        rng = random.Random(47)
        pairs = rand_pairs(rng, p, 5)
        _, sched = run_stream(pairs, PipelineConfig(n=16, params=p))
        prods, deep = run_stream(
            pairs, PipelineConfig(n=16, params=p, mode="structural"))
        for (a, b), got in zip(pairs, prods):
            assert got.coeffs == naive_negacyclic_mul(a, b, p).coeffs
        assert deep.steady_cycles_per_mul == sched.steady_cycles_per_mul == 8
        assert deep.first_mul_latency > sched.first_mul_latency
        assert deep.stall_free


class TestRunStreamAccounting:
    def test_peaks_hit_capacity_exactly(self, fixed_params):
        for n in (16, 64):
            p = fixed_params[n]
            rng = random.Random(48)
            _, rep = run_stream(rand_pairs(rng, p, 5),
                                PipelineConfig(n=n, params=p))
            assert rep.regs_per_stage == rep.fifo_capacity_per_stage
            assert rep.inv_regs_per_stage == rep.inv_fifo_capacity_per_stage

    def test_forward_capacities_halve(self, fixed_params):
        p = fixed_params[256]
        rng = random.Random(49)
        _, rep = run_stream(rand_pairs(rng, p, 4),
                            PipelineConfig(n=256, params=p))
        assert rep.fifo_capacity_per_stage == (0, 128, 64, 32, 16, 8, 4, 2)
        assert rep.inv_fifo_capacity_per_stage == (0, 2, 4, 8, 16, 32, 64, 128)
        assert rep.handoff_peak_pairs == 128
        assert rep.butterfly_units == 24

    def test_report_serializes(self, p17_4):
        rng = random.Random(50)
        _, rep = run_stream(rand_pairs(rng, p17_4, 4),
                            PipelineConfig(n=4, params=p17_4))
        doc = json.dumps(rep.to_dict())
        assert json.loads(doc)["n"] == 4

    def test_size_sixteen_register_note_surfaced(self, fixed_params):
        p = fixed_params[16]
        rng = random.Random(51)
        _, rep = run_stream(rand_pairs(rng, p, 4),
                            PipelineConfig(n=16, params=p))
        note = " ".join(rep.notes)
        assert "22" in note and "18" in note
        assert rep.predicted_ntt_regs == 22

    def test_no_schedule_deviations(self, fixed_params):
        p = fixed_params[32]
        rng = random.Random(52)
        _, rep = run_stream(rand_pairs(rng, p, 4),
                            PipelineConfig(n=32, params=p))
        assert rep.schedule_deviations == ()


RLWE_M = 786_433                    # 3 * 2**18 + 1: 2N | M - 1 up to N = 2**17


def stall(mp, label, at):
    # a one-cycle stall in the input of the stage ``label`` at cycle ``at``:
    # that cycle's arrival is None and every later one comes a cycle late
    real_tick = _PipeStage.tick
    held = [None]

    def tick(stage, cycle, arrival):
        if stage.label == label and cycle >= at:
            arrival, held[0] = held[0], arrival
        real_tick(stage, cycle, arrival)

    mp.setattr(_PipeStage, "tick", tick)


def counted_ticks(mp):
    # the list that gets one entry per _PipeStage tick from here on
    real_tick = _PipeStage.tick
    calls = []
    mp.setattr(_PipeStage, "tick", lambda stage, cycle, arrival: (
        calls.append(None), real_tick(stage, cycle, arrival)))
    return calls


HEADER = "cycle,stage,sel,counter,pair_lo,pair_hi\r\n"


def run_cycles(config, count):
    # the per-stage walk of a stream of count products at config's N and
    # butterfly latency, which the schedule proof runs at latency 1 for 1
    # and 2 products
    return _run_cycles(config.n, config.butterfly_latency, count)


def trace_rows(n, latency, count, stop=None):
    # the rows write_trace writes after its header for count products at N
    # and a butterfly latency: the law's, all of them or those up to stop
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        write_trace(path, n, latency, count, stop)
        with open(path, newline="") as fh:
            assert fh.readline() == HEADER
            return fh.read()


def proof_rows(config, count, match):
    # the walk of a stream that raises, as ``match`` states, and the rows a
    # traced nttmul sim writes after its header: the law's, up to where the
    # error says the walk stopped
    with pytest.raises(PipelineAssertionError, match=match) as e:
        run_cycles(config, count)
    return trace_rows(config.n, config.butterfly_latency, count,
                      e.value.stop)


def tick_count(config, count, retiring=True):
    # the _PipeStage ticks of one untraced proof, which returns nothing
    with pytest.MonkeyPatch.context() as mp:
        if not retiring:
            no_retirement(mp)
        calls = counted_ticks(mp)
        assert run_cycles(config, count) is None
    return len(calls)


def retired_ticks(config, count):
    # the ticks of an untraced run: each stage ticks from its first
    # arrival, hold cycles before its first fire, to its second snapshot,
    # P fires after the first (P its period: 2 * hold behind a FIFO, 1
    # without one), if that comes below the total T; else to its last
    # fire, T - 1 cycles after its first
    total = count * config.n // 2
    ticks = 0
    for _, hold, _ in pipesim._columns(config.n):
        period = max(1, 2 * hold)
        repeats = 1 + period < total
        ticks += hold + (1 + period if repeats else total)
    return ticks if count else 0


def no_retirement(mp):
    # every snapshot a fresh object: no two compare equal, so no stage
    # leaves before its last fire and a fault injected late is still met
    mp.setattr(pipesim, "_moved", lambda *args: [object()])


def live_arrivals(config, count):
    # (stage label, cycle) of every live arrival of a run with retirement
    # off, in tick order
    real_tick = _PipeStage.tick
    arrivals = []

    def record(stage, cycle, arrival):
        if arrival is not None:
            arrivals.append((stage.label, cycle))
        real_tick(stage, cycle, arrival)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_PipeStage, "tick", record)
        no_retirement(mp)
        run_cycles(config, count)
    return arrivals


def built_stages(mp, entry=lambda st: (st.label, st)):
    # the stages a run builds, as the dict of entry(stage) pairs, by label
    # by default, filled in as it builds them
    real_init = _PipeStage.__init__
    stages = {}

    def init(st, *args):
        real_init(st, *args)
        stages.update((entry(st),))

    mp.setattr(_PipeStage, "__init__", init)
    return stages


def fifo_labels(mp):
    # the label of the stage each FIFO feeds (None keys the multipliers,
    # which have no FIFO), filled in as a run builds its stages
    return built_stages(mp, lambda st: (st.fifo, st.label))


class TransformGate:
    # buffers pointwise's output until a transform's full block is present:
    # inv1 only starts on a product spectrum once all N/2 pairs of it have
    # arrived.  The first ``ready`` buffered pairs belong to complete blocks

    def __init__(self, n_half):
        self.n_half = n_half
        self.pairs = deque()
        self.ready = 0
        self.peak_pairs = 0

    def push(self, pair):
        self.pairs.append(pair)
        occ = len(self.pairs)
        if occ - self.ready == self.n_half:
            self.ready += self.n_half
        self.peak_pairs = max(self.peak_pairs, occ)

    def pop(self):
        if not self.ready:
            return None
        self.ready -= 1
        return self.pairs.popleft()


def every_cycle(config, count):
    # the every-cycle reference: a stage per column of the table, the stages
    # split at pointwise into two chains, both ticked on every cycle from
    # cycle 1 to the last completion, in reverse dataflow order so that each
    # stage reads what its feeder emitted on the cycle before, each stage's
    # output a delay line of latency - 1 slots behind its fires, its unit's
    # latency stated here apart from _schedule_law (L for a butterfly,
    # max(1, L - ADDSUB_CYCLES) for a multiplier), pointwise's output
    # handed to inv1 by a ticked TransformGate, and a trace row written from
    # every butterfly tick.  It measures the report's figures from what it
    # ticks (first fires, completions, the most loaded bank slots of each FIFO
    # after any tick, bank lengths, the gate's peak and the first latencies)
    # and asserts that they are the report by law.  Returns the trace text
    n_half, L = config.n // 2, config.butterfly_latency
    columns = pipesim._columns(config.n)
    # each stage checks its fires against the law's first fire, and the
    # reference records the cycle of its fire 0 as it ticks it
    stages = [_PipeStage(label, hold, first) for (label, hold, _), first
              in zip(columns, _schedule_law(config.n, L)[0])]
    cut = [label for label, _, _ in columns].index("pointwise") + 1
    front, back = stages[:cut], stages[cut:]
    gate = TransformGate(n_half)
    total = count * n_half
    S = max(1, L - pipesim.ADDSUB_CYCLES)
    lines = {st: deque([None] * ((L if p else S) - 1))
             for st, (_, _, p) in zip(stages, columns)}
    out = dict.fromkeys(lines)
    # the butterfly stages, each with its fires per twiddle
    per = {st: p for st, (_, _, p) in zip(stages, columns) if p}
    peak = dict.fromkeys(per, 0)
    text, fired_first = [], {}
    last_ntt_fire = None

    def tick(st, cycle, arrival):
        nonlocal last_ntt_fire
        t = st.t
        st.tick(cycle, arrival)
        fired = st.t > t
        if fired and not t:
            fired_first[st] = cycle
        lines[st].append((2 * t, 2 * t + 1) if fired else None)
        out[st] = lines[st].popleft()
        if st is front[-2] and fired and t == n_half - 1:
            last_ntt_fire = cycle
        if st.fifo is not None:
            bi, bii = st.fifo.block_i, st.fifo.block_ii
            peak[st] = max(peak[st], 2 * st.hold - bi.count(None)
                           - bii.count(None))
        if st in per:
            lo = hi = ""
            if fired:
                tp = t % n_half
                lo = 2 * tp - tp % per[st]
                hi = lo + per[st]
            if st.fifo is not None and st.fifo.counter:
                text.append(f"{cycle},{st.label},{st.fifo.sel},"
                            f"{st.fifo.counter},{lo},{hi}\r\n")
            elif fired:
                text.append(f"{cycle},{st.label},,,{lo},{hi}\r\n")

    completions, collected, cycle = [], 0, 0
    while collected < total:
        cycle += 1
        for i in range(len(back) - 1, 0, -1):
            tick(back[i], cycle, out[back[i - 1]])
        tick(back[0], cycle, gate.pop())
        if out[back[-1]] is not None:
            collected += 1
            if not collected % n_half:
                completions.append(cycle)
        for i in range(len(front) - 1, 0, -1):
            tick(front[i], cycle, out[front[i - 1]])
        tick(front[0], cycle,
             (2 * cycle - 2, 2 * cycle - 1) if cycle <= total else None)
        if out[front[-1]] is not None:
            gate.push(out[front[-1]])
    fwd, inv = front[1:-1], back[:-1]

    def banks(stages):
        return tuple(len(st.fifo.block_i) + len(st.fifo.block_ii)
                     if st.fifo else 0 for st in stages)

    regs, inv_regs = (tuple(peak[st] for st in fwd),
                      tuple(peak[st] for st in inv))
    spacings = {b - a for a, b in zip(completions, completions[1:])}
    assert len(spacings) <= 1       # completions evenly spaced
    measured = dict(
        fwd_stage_first_fire=tuple(map(fired_first.get, fwd)),
        inv_stage_first_fire=tuple(map(fired_first.get, inv)),
        completion_cycles=tuple(completions),
        steady_cycles_per_mul=min(spacings) if count >= 4 else None,
        regs_per_stage=regs,
        inv_regs_per_stage=inv_regs,
        total_regs=2 * sum(regs) + sum(inv_regs),
        fifo_capacity_per_stage=banks(fwd),
        inv_fifo_capacity_per_stage=banks(inv),
        handoff_peak_pairs=gate.peak_pairs,
        first_ntt_latency=(last_ntt_fire - fired_first[fwd[0]] + 1
                           if count else None),
        first_mul_latency=(completions[0] - fired_first[front[0]] + 1
                           if count else None),
    )
    law = pipesim._build_report(config, count)
    assert law._replace(**measured) == law, measured
    return "".join(text)


def assert_same_lines(got, want):
    # got == want for two texts, failing with the first line that differs
    # rather than a diff of the whole texts, which is slow on long traces
    got, want = got.splitlines(keepends=True), want.splitlines(keepends=True)
    for i, (g, w) in enumerate(zip(got, want), start=1):
        if g != w:
            pytest.fail(f"line {i}: {g!r}, not {w!r}", pytrace=False)
    if len(got) != len(want):
        pytest.fail(f"{len(got)} lines, not {len(want)}", pytrace=False)


@functools.cache
def paper_config(n, latency):
    # the paper modulus in schedule mode, or at a structural depth
    return PipelineConfig(n=n, params=build_params(FIXED_M, n),
                          mode="structural" if latency else "schedule",
                          butterfly_latency=latency)


@functools.cache
def clean_trace(n, latency, count):
    # the whole trace text of a stream of paper_config(n, latency)
    return trace_rows(n, paper_config(n, latency).butterfly_latency, count)


def dataflow(n):
    # the datapath's column labels, as the trace names them, in dataflow
    # order
    m = n.bit_length() - 1
    return ["weight", *(f"fwd_a{s}" for s in range(1, m + 1)), "pointwise",
            *(f"inv{s}" for s in range(1, m + 1)), "unweight"]


def rows_before(text, n, cycle, label):
    # the rows of a clean trace that precede the tick of stage ``label`` on
    # ``cycle``: every row of an earlier cycle, and that cycle's rows of
    # the stages ticked before it, in reverse dataflow order: the inverse
    # chain from unweighting back and then the forward chain from
    # pointwise back
    order = dataflow(n)[::-1]
    before = order[:order.index(label)]

    def kept(row):
        c, stage = row.split(",")[:2]
        return int(c) < cycle or int(c) == cycle and stage in before

    return "".join(takewhile(kept, text.splitlines(keepends=True)))


class TestControlPlane:
    @pytest.mark.parametrize("mode", ["schedule", "structural"])
    def test_closed_forms_at_rlwe_sizes(self, mode):
        # the loop routes labels only, so it decides the closed forms at
        # sizes the paper ring lacks; once it returns, the report is the
        # law's
        for n in (1024, 4096):
            config = PipelineConfig(n=n, params=build_params(RLWE_M, n),
                                    mode=mode)
            assert run_cycles(config, 4) is None
            rep = pipesim._build_report(config, 4)
            if mode == "schedule":
                assert rep.first_ntt_latency == rep.predicted_first_ntt
                assert rep.first_mul_latency == rep.predicted_first_mul
            assert rep.steady_cycles_per_mul == n // 2
            assert rep.stall_free
            assert rep.regs_per_stage == rep.fifo_capacity_per_stage
            assert rep.inv_regs_per_stage == rep.inv_fifo_capacity_per_stage
            log_n = n.bit_length() - 1
            assert (sum(rep.regs_per_stage) + 2 * log_n
                    == predicted_ntt_regs(n))

    def test_loop_stops_at_the_steady_state(self, fixed_params):
        # past its proved steady state every stage stops, and unweighting's
        # completions come by law, so 1000 products tick the stages as often
        # as 12 do, and fewer times than 12 products take cycles
        config = PipelineConfig(n=16, params=fixed_params[16])
        ticks = {}
        for count in (12, 1000):
            ticks[count] = tick_count(config, count)
            rep = pipesim._build_report(config, count)
            assert rep.completion_cycles[-1] == 39 + 8 * (count - 1)
        assert ticks[1000] == ticks[12] < 39 + 8 * 11

    def test_misrouted_fire_raises(self, fixed_params, monkeypatch):
        # swap the pair a stage-3 FIFO emits at fire 8, product 1's first:
        # the data would come out wrong, and the routing check catches it.
        # Stage 3 leaves at its second snapshot, after fire 4, so fire 8 is
        # ticked only with retirement off, in a walk of 3 products
        config = PipelineConfig(n=16, params=fixed_params[16])
        real_tick = StageFifo.tick
        labels = fifo_labels(monkeypatch)
        no_retirement(monkeypatch)

        def tick(fifo, arrival):
            pair = real_tick(fifo, arrival)
            if labels[fifo] == "fwd_a3" and fifo.counter == fifo.hold + 8 + 1:
                return pair[::-1]
            return pair

        monkeypatch.setattr(StageFifo, "tick", tick)
        with pytest.raises(PipelineAssertionError, match="fwd_a3: fire 8"):
            run_cycles(config, 3)

    def test_misrouting_every_product_alike_raises(self, fixed_params,
                                                   monkeypatch):
        # swap every pair stage 3 emits in its drain phase, product 0's
        # included: the first is fire 2, and the law catches it there, in
        # the proof that building the config runs
        real_tick = StageFifo.tick
        labels = fifo_labels(monkeypatch)

        def tick(fifo, arrival):
            phase = fifo.counter >> fifo._hshift
            pair = real_tick(fifo, arrival)
            if labels[fifo] == "fwd_a3" and phase and not phase & 1:
                return pair[::-1]
            return pair

        monkeypatch.setattr(StageFifo, "tick", tick)
        with pytest.raises(PipelineAssertionError, match="fwd_a3: fire 2 "):
            PipelineConfig(n=16, params=fixed_params[16])

    @pytest.mark.parametrize("label, counter, bank", [
        ("fwd_a3", 5, "block_i"),
        ("fwd_a2", 9, "block_ii"),
        ("inv3", 7, "block_i")])
    def test_corrupted_bank_entry_raises(self, fixed_params, monkeypatch,
                                         label, counter, bank):
        # swap two entries of one bank just before a tick: the FIFO emits a
        # wrong element, and the routing law names the stage and the fire,
        # in the walk of one product that building the config runs first.
        # Retirement off: inv3's swap meets its fire 5, after it has left
        real_tick = StageFifo.tick
        labels = fifo_labels(monkeypatch)
        no_retirement(monkeypatch)

        def tick(fifo, arrival):
            if (labels[fifo], fifo.counter) == (label, counter):
                entries = getattr(fifo, bank)
                entries[0], entries[1] = entries[1], entries[0]
            return real_tick(fifo, arrival)

        monkeypatch.setattr(StageFifo, "tick", tick)
        with pytest.raises(PipelineAssertionError,
                           match=rf"^{label}: fire \d+ pairs "):
            PipelineConfig(n=16, params=fixed_params[16])

    @pytest.mark.parametrize("latency", [None, 12])
    def test_fault_before_a_second_snapshot_raises(self, fixed_params,
                                                   latency):
        # retirement on: a stage's fire P, P its period (2 * hold behind a
        # FIFO, 1 without one), is its last before its second snapshot, so
        # the stage is still in the loop, and a pair swapped there raises,
        # naming the stage and the fire
        config = PipelineConfig(n=16, params=fixed_params[16],
                                mode="structural" if latency else "schedule",
                                butterfly_latency=latency)
        real_tick, real_fifo_tick = _PipeStage.tick, StageFifo.tick
        for label, hold, _ in pipesim._columns(config.n):
            fire = max(1, 2 * hold)

            def tick(st, cycle, arrival):
                if (st.label, st.t, st.fifo) == (label, fire, None):
                    arrival = arrival and arrival[::-1]
                real_tick(st, cycle, arrival)

            def fifo_tick(fifo, arrival):
                pair = real_fifo_tick(fifo, arrival)
                if (labels[fifo] == label
                        and fifo.counter == fifo.hold + fire + 1):
                    return pair[::-1]
                return pair

            with pytest.MonkeyPatch.context() as mp:
                labels = fifo_labels(mp)
                mp.setattr(_PipeStage, "tick", tick)
                mp.setattr(StageFifo, "tick", fifo_tick)
                with pytest.raises(PipelineAssertionError,
                                   match=rf"^{label}: fire {fire} pairs "):
                    run_cycles(config, 3)

    def test_stage_stopping_after_its_consumer_left_wedges(self,
                                                           fixed_params):
        # forward stage 2 stops firing at its fire 110, before its second
        # snapshot at fire 129.  No stage reads its ticks: stage 3 is proved
        # after it, on its law output, and is never ticked.  Its second
        # snapshot, on cycle 67 + 128, finds it behind its timing law, and
        # it raises there, after 2 ticks each of weighting and stage 1 and
        # its own 193 from cycle 3, in a short stream and a long one alike
        config = PipelineConfig(n=256, params=fixed_params[256])
        real_tick = _PipeStage.tick
        for count in (8, 1000):
            ticked, stopped = [], []

            def tick(stage, cycle, arrival):
                ticked.append(stage.label)
                if stage.label == "fwd_a2" and stage.t == 110:
                    stopped.append(cycle)
                    if cycle > 20_000:
                        raise RuntimeError("the proof ran on")
                    return
                real_tick(stage, cycle, arrival)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_PipeStage, "tick", tick)
                with pytest.raises(PipelineAssertionError,
                                   match=rf"^fwd_a2: 110 of {count * 128} "
                                         r"fires by cycle 195, short of its "
                                         r"law$"):
                    run_cycles(config, count)
            assert "fwd_a3" not in ticked
            assert stopped[-1] == 67 + 128
            assert len(ticked) == 197

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_stall_anywhere_names_its_stage(self, fixed_params, n):
        # a one-cycle stall in one stage's input, at any cycle of a
        # 3-product stream, delays every later arrival by a cycle: that
        # stage pairs the wrong labels, fires late or falls behind its law
        # at a snapshot or at its bound, and raises naming itself, or, with
        # the stall past its last arrival, the run is clean.  Retirement
        # off, so that every arrival is ticked.  A stall before a stage's
        # first arrival delays the same arrivals as one on it, and any
        # stall past its last arrival leaves the run clean, so the stalls
        # from each stage's first arrival to the cycle after its last meet
        # every outcome
        p = fixed_params[n]
        for config in (PipelineConfig(n=n, params=p),
                       *(PipelineConfig(n=n, params=p, mode="structural",
                                        butterfly_latency=latency)
                         for latency in (2, 12))):
            first, last = {}, {}
            for label, cycle in live_arrivals(config, 3):
                first.setdefault(label, cycle)
                last[label] = cycle
            outcomes = set()
            for label in first:
                for at in range(first[label], last[label] + 2):
                    with pytest.MonkeyPatch.context() as mp:
                        stall(mp, label, at)
                        no_retirement(mp)
                        try:
                            assert run_cycles(config, 3) is None
                            error = "clean"
                        except PipelineAssertionError as e:
                            error = re.sub(r"\b\d+", "#", str(e))
                            assert error.startswith(f"{label}: "), (at, error)
                    outcomes.add(error.removeprefix(f"{label}: "))
            assert outcomes == {"clean", "fire # pairs (#, #), not (#, #)",
                                "fire # at cycle #, not #",
                                "# of # fires by cycle #, short of its law"
                                }, config

    @pytest.mark.parametrize("mode", ["schedule", "structural"])
    def test_lost_result_raises(self, fixed_params, mode):
        # a result lost on its way to the next stage, at any cycle.  Each
        # stage is proved on its feeder's law output, so the loss is the
        # stage's arrival replaced by None, and the stage itself pairs the
        # wrong labels at its next fire, fires late, or falls short of its
        # law at a snapshot or at its bound.  Losing a None arrival changes
        # nothing, so only the clean run's live arrivals are lost, each
        # once; retirement is off, so that every arrival is ticked.  A loss
        # cannot make a fire late: the arrivals after it keep their cycles,
        # where a stall delays them (test_stall_anywhere_names_its_stage)
        config = PipelineConfig(n=16, params=fixed_params[16], mode=mode)
        real_tick = _PipeStage.tick
        outcomes = set()
        for label, at in live_arrivals(config, 3):
            def tick(stage, cycle, arrival):
                lost = (stage.label, cycle) == (label, at)
                real_tick(stage, cycle, None if lost else arrival)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_PipeStage, "tick", tick)
                no_retirement(mp)
                with pytest.raises(PipelineAssertionError) as e:
                    run_cycles(config, 3)
            error = re.sub(r"\b\d+", "#", str(e.value))
            assert error.startswith(f"{label}: "), (label, at, error)
            outcomes.add(error.removeprefix(f"{label}: "))
        assert outcomes == {"fire # pairs (#, #), not (#, #)",
                            "# of # fires by cycle #, short of its law"}

    def test_lost_tail_result_wedges_after_a_fixed_limit(self, fixed_params):
        # unweighting's last arrival lost, with retirement off so that it is
        # ticked: the stage falls one fire short and raises at its bound,
        # one cycle after the loss, with the same message up to its
        # figures, for a short stream and for a long one
        config = PipelineConfig(n=256, params=fixed_params[256])
        real_tick = _PipeStage.tick
        seen = []
        for count in (8, 200):
            assert run_cycles(config, count) is None
            last = pipesim._build_report(config, count).completion_cycles[-1]

            def tick(stage, cycle, arrival):
                lost = stage.label == "unweight" and cycle == last
                real_tick(stage, cycle, None if lost else arrival)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_PipeStage, "tick", tick)
                no_retirement(mp)
                with pytest.raises(PipelineAssertionError,
                                   match="^unweight: .* short of its law$"
                                   ) as e:
                    run_cycles(config, count)
            fires, total, cycle = map(int, re.findall(r"\d+", str(e.value)))
            seen.append((total - fires, cycle - last))
        assert seen == [(1, 1), (1, 1)]

    @given(n=st.sampled_from([4, 8, 16, 32]), latency=st.integers(1, 16),
           structural=st.booleans(), count=st.integers(0, 24))
    def test_jump_is_exact(self, fixed_params, n, latency, structural, count):
        # the proof, which jumps past each stage's repeat, returns, and the
        # trace written in column runs once it has is the trace text of the
        # reference that ticks both chains on every cycle, writes a row per
        # tick and measures the report by law
        p = fixed_params[n]
        config = (PipelineConfig(n=n, params=p, mode="structural",
                                 butterfly_latency=latency) if structural
                  else PipelineConfig(n=n, params=p))
        assert run_cycles(config, count) is None
        assert_same_lines(trace_rows(n, config.butterfly_latency, count),
                          every_cycle(config, count))

    @given(n=st.sampled_from([4, 8, 16, 32]), latency=st.integers(1, 16),
           structural=st.booleans(), count=st.integers(0, 24))
    def test_window_is_exact(self, fixed_params, n, latency, structural,
                             count):
        # the reference that ticks both chains on every cycle measures the
        # report by law, and the proof that ticks each stage alone, only in
        # its window from its first arrival to its repeat, returns on it,
        # as does the proof that ticks each stage to its last fire
        p = fixed_params[n]
        config = (PipelineConfig(n=n, params=p, mode="structural",
                                 butterfly_latency=latency) if structural
                  else PipelineConfig(n=n, params=p))
        every_cycle(config, count)
        assert run_cycles(config, count) is None
        with pytest.MonkeyPatch.context() as mp:
            no_retirement(mp)
            assert run_cycles(config, count) is None

    def test_window_skips_idle_ticks(self):
        # the benchmark's structural N = 1024 stream of 4: the every-cycle
        # reference ticks all 23 stages on each cycle up to the last
        # completion, while the proof ticks each stage only from its first
        # arrival to its repeat
        config = PipelineConfig(n=1024, params=build_params(12289, 1024),
                                mode="structural")
        with pytest.MonkeyPatch.context() as mp:
            calls = counted_ticks(mp)
            every_cycle(config, 4)
            oracle = len(calls)
            calls.clear()
            run_cycles(config, 4)
        last = pipesim._build_report(config, 4).completion_cycles[-1]
        assert oracle == 23 * last == 88_550
        assert len(calls) == 3094

    @given(n=st.sampled_from([4, 8, 16, 32]), latency=st.integers(1, 16),
           structural=st.booleans(), count=st.integers(0, 24))
    def test_retirement_is_exact(self, fixed_params, n, latency, structural,
                                 count):
        # the untraced proof whose stages stop once their state repeats
        # returns, as does the one where every stage is ticked to its last
        # fire, and ticks what retired_ticks counts
        p = fixed_params[n]
        config = (PipelineConfig(n=n, params=p, mode="structural",
                                 butterfly_latency=latency) if structural
                  else PipelineConfig(n=n, params=p))
        retired, ticked = (tick_count(config, count),
                           tick_count(config, count, False))
        assert retired == retired_ticks(config, count) <= ticked

    @pytest.mark.parametrize("n, latencies, counts", [
        (64, (None, 2, 3, 12, 17), range(14)),
        (256, (None, 5, 12), range(14)),
        (1024, (None, 12), (0, 1, 2, 3, 13))])
    def test_retirement_is_exact_at_larger_sizes(self, n, latencies, counts):
        # as above, at sizes where the holds reach N/4 = 16 ... 256, in
        # both modes, at sampled latencies and 0-13 products
        p = build_params(RLWE_M, n)
        for latency in latencies:
            config = PipelineConfig(n=n, params=p,
                                    mode="structural" if latency else
                                    "schedule", butterfly_latency=latency)
            for count in counts:
                retired, ticked = (tick_count(config, count),
                                   tick_count(config, count, False))
                assert retired == retired_ticks(config, count) <= ticked, (
                    latency, count)

    def test_retirement_ticks_a_fixed_count(self, fixed_params):
        # the benchmark's in-process streams.  Each column is ticked from
        # its first arrival, hold cycles before its first fire, to its
        # second snapshot, P fires later, P its period: 3 * hold + 1 ticks
        # behind a FIFO, and 2 at weighting, forward and inverse stage 1,
        # pointwise and unweighting.  A transform's FIFOs hold N/4 ... 1:
        # 3 * (N/2 - 1) + log2(N) - 1 ticks, 388 at N = 256 and 1542 at
        # N = 1024; a stream of 2 or 1000 ticks as one of 8
        for m, n, mode, counts, ticks in (
                (FIXED_M, 256, "schedule", (2, 8, 1000), 2 * 388 + 10),
                (12289, 1024, "structural", (2, 4), 2 * 1542 + 10)):
            config = PipelineConfig(n=n, params=build_params(m, n),
                                    mode=mode)
            for count in counts:
                assert tick_count(config, count) == ticks

    @pytest.mark.parametrize("n, latencies", [
        (4, range(1, 65)), (8, range(1, 65)),
        (256, (1, 2, 3, 5, 12, 64, 199)), (1024, (1, 12, 40))])
    def test_schedule_law(self, n, latencies):
        # every first fire and completion of _schedule_law, on which the
        # loop starts each stage and proves it, and so of the report,
        # equals the closed forms: F_1 = 1 + S, F_s = F_{s-1} + L +
        # N/2**s, I_1 = F_m + N/2 + L + S - 1, I_s = I_{s-1} + L +
        # 2**(s-2), completion k at I_m + N/2 - 1 + (L - 1) + S + k*N/2;
        # and so do the two latencies the report derives from them: the
        # first transform takes N + m - 2 + (m - 1)(L - 1) cycles and the
        # first product 2N + 2m - 1 + 2m(L - 1) + 3(S - 1)
        p = build_params(RLWE_M, n)
        m = n.bit_length() - 1
        for latency in latencies:
            S = max(1, latency - 2)
            fwd, inv = [1 + S], []
            for s in range(2, m + 1):
                fwd.append(fwd[-1] + latency + n // 2**s)
            inv.append(fwd[-1] + n // 2 + latency + S - 1)
            for s in range(2, m + 1):
                inv.append(inv[-1] + latency + 2**(s - 2))
            done = inv[-1] + n // 2 - 1 + (latency - 1) + S
            # every column's first fire in dataflow order, the multipliers'
            # at 1, F_m + L and I_m + L, and the first completion
            assert _schedule_law(n, latency) == (
                (1, *fwd, fwd[-1] + latency, *inv, inv[-1] + latency), done)
            config = PipelineConfig(n=n, params=p, mode="structural",
                                    butterfly_latency=latency)
            for count in (1, 6):
                with pytest.MonkeyPatch.context() as mp:
                    fired = first_fires(mp)
                    assert run_cycles(config, count) is None
                # the multipliers' first fires, as the run ticks them:
                # weighting on cycle 1, pointwise and unweighting a
                # butterfly latency after the stage before
                assert ((fired["weight"], fired["pointwise"],
                         fired["unweight"])
                        == (1, fwd[-1] + latency, inv[-1] + latency))
                rep = pipesim._build_report(config, count)
                assert rep.fwd_stage_first_fire == tuple(fwd)
                assert rep.inv_stage_first_fire == tuple(inv)
                assert rep.completion_cycles == tuple(
                    done + k * n // 2 for k in range(count))
                assert rep.first_ntt_latency == (n + m - 2
                                                 + (m - 1) * (latency - 1))
                assert rep.first_mul_latency == (
                    2 * n + 2 * m - 1 + 2 * m * (latency - 1) + 3 * (S - 1))
        if latencies[0] == 1:
            config = PipelineConfig(n=n, params=p)
            assert run_cycles(config, 6) is None
            rep = pipesim._build_report(config, 6)
            assert rep.completion_cycles[0] == _schedule_law(n, 1)[1]

    @pytest.mark.parametrize("off", [-1, 1], ids=["early", "late"])
    @pytest.mark.parametrize("label", ["fwd_a2", "inv3"])
    def test_first_fire_off_its_law_raises(self, fixed_params, label, off):
        # a FIFO whose first fire is a cycle off its law's F: its fill
        # skips its first slot (early) or its first arrival is stalled a
        # cycle (late).  Early, fire 0 on cycle F - 1 pairs the slot the
        # fill skipped, and the routing law raises; late, the stage has not
        # fired by cycle F and is short of its law there.  The proof raises
        # at that column and cycle, up to whose tick a traced run writes
        # the law's rows
        config = PipelineConfig(n=16, params=fixed_params[16])
        i = dataflow(16).index(label)
        first, hold = _schedule_law(16, 1)[0][i], pipesim._columns(16)[i][1]
        real_init = _PipeStage.__init__

        def init(st, *args):
            real_init(st, *args)
            if st.label == label:
                st.fifo.counter = 1

        error = (rf"{label}: fire 0 pairs \({2 * hold - 2}, None\), not "
                 rf"\({2 * hold}, 0\)" if off < 0 else
                 f"{label}: 0 of 96 fires by cycle {first}, short of its law")
        with pytest.MonkeyPatch.context() as mp:
            if off < 0:
                mp.setattr(_PipeStage, "__init__", init)
            else:
                stall(mp, label, first - hold)
            rows = proof_rows(config, 12, rf"^{error}$")
        assert rows == rows_before(clean_trace(16, None, 12), 16,
                                   first + min(off, 0), label)

    @given(n=st.sampled_from([4, 8, 16, 32]), latency=st.integers(1, 16),
           structural=st.booleans(), count=st.integers(0, 24),
           seed=st.integers(0, 2**32))
    def test_any_stream_is_exact_and_periodic(self, fixed_params, n, latency,
                                              structural, count, seed):
        p = fixed_params[n]
        config = (PipelineConfig(n=n, params=p, mode="structural",
                                 butterfly_latency=latency) if structural
                  else PipelineConfig(n=n, params=p))
        pairs = rand_pairs(random.Random(seed), p, count)
        prods, rep = run_stream(pairs, config)
        for (a, b), got in zip(pairs, prods):
            assert got.coeffs == naive_negacyclic_mul(a, b, p).coeffs
        assert len(prods) == len(rep.completion_cycles) == count
        assert {b - a for a, b in zip(rep.completion_cycles,
                                      rep.completion_cycles[1:])} <= {n // 2}
        assert rep.stall_free
        if count:
            assert rep.regs_per_stage == rep.fifo_capacity_per_stage
            assert rep.inv_regs_per_stage == rep.inv_fifo_capacity_per_stage


def output_digests(params, mode, count, trace_path):
    """SHA-256 of the report JSON, the products and the trace CSV of one
    fixed-seed stream."""
    pairs = rand_pairs(random.Random(60), params, count)
    prods, rep = run_stream(pairs, PipelineConfig(n=params.n, params=params,
                                                  mode=mode),
                            trace_path=trace_path)
    return tuple(hashlib.sha256(b).hexdigest() for b in (
        json.dumps(rep.to_dict(), sort_keys=True).encode(),
        json.dumps([q.coeffs for q in prods]).encode(),
        trace_path.read_bytes()))


# Any change to the report, the products or the trace of these fixed-seed
# streams changes a digest: a refactor of pipesim must keep them all.
# Keyed by (M, N, mode, pairs); M = 12289 runs the generic Barrett reducer.
PINNED_DIGESTS = {
    (FIXED_M, 16, "schedule", 4): (
        "130e9c7e41ba90334e0f4a4c4872b037ac2287ab48b300125b4f9b2270249d83",
        "bdc487cb46559b15e871e83d9518b5dd0a91c2461359988ee65d3021e8293e32",
        "68a5a1bc4eea3f8445bb6f8fb14bf309fc9349f91866a43d74e236ba54b1a2fa"),
    (FIXED_M, 64, "structural", 5): (
        "12a7cc5423db4a9a177f2ddca59525b7029bb4a280976a33764d80c81b74a8a8",
        "0f6691a67fd522a732faa9afe100b629cd9585c0d6718b8a50ae43d313c1597e",
        "162682456bc810a7e555599e9666afe9118741eb7a2e2c5fbd26521b7ca9b3d1"),
    (12289, 32, "structural", 3): (
        "52a714afd8eaf7dfeffbd52562740eea151a0fc786622e84f264598329077d3c",
        "71817d3f7770bf523729d4230917630dd4b38052ac66f4f034c0f1af408bcb69",
        "f807a23c9a3ec53e24cb50b1fba122e9b7daa31e9971e19b8b17bf13c5550b04"),
    # long enough for a steady middle, where every column fires (8 and 9
    # of 12 and 20 periods); pinned when the cycle loop ticked every cycle
    (FIXED_M, 16, "schedule", 12): (
        "70c21234f548f6ead68a02f8a3a2e4199bb2caf23b0d3341686a274717d36fdc",
        "496156e6279f7cb1f245eb9c60f540ff0a6c3e54993d87a135d66edf7eb32900",
        "bc4b1c73c5d4d2bbdd121561b4f04810de92089316729eb3317fe6b15f9478b9"),
    (12289, 32, "structural", 20): (
        "451a5d387e1c265e37cf436210fef1ceeafc6a9920b7823456be29afd42460ce",
        "7b2800a8cf8a8771889e7ae6da5634c0b63809d83be3b4ea3e3f11f7b863f5bd",
        "d6593b561ebb0756dcf705a0d7285333b5c609d9573d3cd47a2e662fc1c5f493"),
    # the shapes of the benchmark's in-process streams
    (FIXED_M, 256, "schedule", 8): (
        "1f5196dbd8cfb8e1ddd2194ba045ed8bbb7ca7818ec977f99b45955b01ca6757",
        "ae4f02f9a8b7e11378c5ad935bc969c3b841ac386c58f247ba04f13d38935631",
        "f3b3a8f476e347a6fae8d4428b03555c382b60d0cf9b64be283a1cb767c32a65"),
    (12289, 1024, "structural", 4): (
        "774c2440c708078a8c882ab27b9b27613b49c1946d0adac3d06d1a842d2329d5",
        "37eb541b3360959d0bc0716f8a18e2b73935d684481b3657418b5df406f15707",
        "876d524f4e2d70774ac4872c6767cd443f9f69c5903e84fe8634f4f39fbe3ce0"),
    # one product: too short for a stage to repeat, so stages are ticked
    # to their last fire through the drain (from two products on, every
    # stage stops at its second snapshot)
    (FIXED_M, 256, "schedule", 1): (
        "88edb70fc6d3b75d1e8cb9848c6ca076cc2fd1c39aa0180d4c2fb81b9337267a",
        "7821d4980881e38be90c84146e12c35edbcbf39125f96bbb73f6d3d486ff8cc0",
        "c971fe16512958d405be5c6e171556e8b0eb4c394ac7f995763634c632e79874"),
    (12289, 1024, "structural", 1): (
        "36c8ac84d0ef1765552bf29aa42a96defbe1f021625a6dd15601302bfd222cb3",
        "290aa7ec4d0bd6f859ddc73f991b7d3e9f88ff4b4dd3c88dcfc48f61c8bc5857",
        "bfa2e0fe975d0a08a0d0367aff9791963c69752b833eab2dd1463ea23f1c9218"),
}


def _pinned_id(key):
    # the paper modulus is left out: those cases keep their N-mode-pairs ids
    m, *rest = key
    return "-".join(map(str, rest if m == FIXED_M else key))


class TestDeterminism:
    @pytest.mark.parametrize("m, n, mode, count", sorted(PINNED_DIGESTS),
                             ids=map(_pinned_id, sorted(PINNED_DIGESTS)))
    def test_outputs_byte_identical_to_pinned(self, tmp_path, m, n, mode,
                                              count):
        got = output_digests(build_params(m, n), mode, count,
                             tmp_path / "t.csv")
        assert got == PINNED_DIGESTS[(m, n, mode, count)]

    @pytest.mark.parametrize("key", [(FIXED_M, 16, "schedule", 12),
                                     (12289, 32, "structural", 20)],
                             ids=["fixed-reducer", "generic-reducer"])
    def test_datapath_product_gives_pinned_products(self, key):
        # the walk on the units' Karatsuba + Barrett product and exact
        # adders, one stream per reducer, equals the pinned products
        m, n, _, count = key
        p = build_params(m, n)
        prods = [datapath_product(p, a.coeffs, b.coeffs)
                 for a, b in rand_pairs(random.Random(60), p, count)]
        digest = hashlib.sha256(json.dumps(prods).encode()).hexdigest()
        assert digest == PINNED_DIGESTS[key][1]

    # a fault injected at a stage's FIFO counter: the aborted file holds
    # the law's rows up to the failing cycle and stage.  fwd_a2 reaches
    # counter 9 in the walks of 1 and 2 products a config's proof runs,
    # which stops the build, as a traced nttmul sim writes it.  inv4 leaves
    # at its repeat before counter 13, and inv3 reaches counter 80 only in
    # the drain of 12 products, after the steady middle (every column
    # fires over cycles 31 to 94): those walk the stream itself, with
    # retirement off, so that the stage is ticked to its counter
    @pytest.mark.parametrize("count, label, counter",
                             [(3, "fwd_a2", 9), (3, "inv4", 13),
                              (12, "inv3", 80)],
                             ids=["fwd_a2-9", "inv4-13", "drain-inv3-80"])
    def test_trace_on_abort_is_the_unaborted_prefix(
            self, fixed_params, tmp_path, monkeypatch, count, label, counter):
        p = fixed_params[16]
        pairs = rand_pairs(random.Random(56), p, count)
        full = tmp_path / "full.csv"
        run_stream(pairs, PipelineConfig(n=16, params=p), trace_path=full)
        lines = full.read_text().splitlines()
        # the failing tick's row: its counter has advanced past `counter`
        fail = next(i for i, line in enumerate(lines)
                    if line.split(",")[1:4:2] == [label, str(counter + 1)])

        real_tick = StageFifo.tick
        labels = fifo_labels(monkeypatch)

        def tick(fifo, arrival):
            if (labels[fifo], fifo.counter) == (label, counter):
                raise PipelineAssertionError("injected")
            return real_tick(fifo, arrival)

        monkeypatch.setattr(StageFifo, "tick", tick)
        # N = 16 is proved now: forget it, so that a config proves again
        pipesim._schedule_proof.cache_clear()
        with pytest.raises(PipelineAssertionError, match="injected") as e:
            if label == "fwd_a2":       # the proof a config runs
                PipelineConfig(n=16, params=p)
            else:                       # the stream's own walk
                no_retirement(monkeypatch)
                _run_cycles(16, 1, count)
        aborted = tmp_path / "aborted.csv"
        write_trace(aborted, 16, 1, count, e.value.stop)
        # header plus every row written before the failing stage's row
        assert aborted.read_text().splitlines() == lines[:fail]
        assert full.read_bytes().startswith(aborted.read_bytes())
        if count == 12:
            # the failing row comes after the steady middle, so the
            # aborted file holds all of it
            assert int(lines[fail].split(",")[0]) >= 31 + 8 * 8

    def test_trace_on_abort_at_weighting_keeps_its_cycles_rows(
            self, fixed_params, monkeypatch):
        # weighting, the last stage a cycle ticks, misrouted at its fire 5
        # on cycle 6: the file holds every row before cycle 6 and cycle
        # 6's rows of every butterfly stage, fwd_a1's fire 4 the last.
        # Retirement is off, so that weighting is ticked to its fire 5
        config = PipelineConfig(n=16, params=fixed_params[16])
        no_retirement(monkeypatch)
        real_tick = _PipeStage.tick

        def tick(stage, cycle, arrival):
            if stage.label == "weight" and stage.t == 5:
                arrival = arrival[::-1]
            real_tick(stage, cycle, arrival)

        monkeypatch.setattr(_PipeStage, "tick", tick)
        rows = proof_rows(config, 3, r"^weight: fire 5 pairs \(10, 11\)")
        assert rows == rows_before(clean_trace(16, None, 3), 16, 6, "weight")
        assert rows.endswith("6,fwd_a1,,,4,12\r\n")

    @pytest.mark.parametrize("label", dataflow(16))
    def test_trace_on_abort_at_every_column(self, fixed_params, monkeypatch,
                                            label):
        # each column fails on its tick on cycle 40, its fire k = 40 - F,
        # F its first fire by law and k >= 1, in a traced stream of 12
        # products: every butterfly column writes a row on that cycle of
        # the steady middle, and the file holds every row before cycle 40
        # and that cycle's rows of the columns ticked before the failing
        # one, those after it in dataflow order.  Retirement is off, so
        # that the column is ticked to that fire
        config = PipelineConfig(n=16, params=fixed_params[16])
        no_retirement(monkeypatch)
        first = _schedule_law(16, 1)[0][dataflow(16).index(label)]
        fire = 40 - first
        assert fire >= 1
        real_tick = _PipeStage.tick

        def tick(stage, cycle, arrival):
            if (stage.label, stage.t, cycle) == (label, fire, 40):
                raise PipelineAssertionError("injected")
            real_tick(stage, cycle, arrival)

        monkeypatch.setattr(_PipeStage, "tick", tick)
        assert (proof_rows(config, 12, "^injected$")
                == rows_before(clean_trace(16, None, 12), 16, 40, label))

    @given(data=st.data(), n=st.sampled_from([16, 64, 256]),
           latency=st.sampled_from([None, 2, 12]), count=st.integers(1, 5))
    def test_trace_abort_anywhere_is_the_clean_prefix(self, data, n, latency,
                                                      count):
        # a stop at a random column k in tick order, and a cycle drawn
        # either anywhere up to N/2 past the last completion, mostly inside
        # a chunk, or a cycle either side of one where a column starts,
        # first fires or stops firing, where the writer cuts its chunks,
        # given as its offset from column k's first arrival: the file holds
        # the clean trace's rows up to that cycle's tick of column k, all of
        # them for a stop past the last completion
        config = paper_config(n, latency)
        firsts, done = _schedule_law(n, config.butterfly_latency)
        total = count * n // 2
        last = done + total - n // 2
        cuts = [c + e for (_, hold, per), first
                in zip(pipesim._columns(n), firsts) if per
                for c in (first - hold, first, first + total)
                for e in (-1, 0, 1)]
        cycle = data.draw(st.sampled_from(cuts) | st.integers(1, last + n // 2))
        cycle = max(cycle, 1)
        k = data.draw(st.integers(0, len(dataflow(n)) - 1))
        (_, hold, _), first = pipesim._columns(n)[~k], firsts[~k]
        assert_same_lines(trace_rows(n, config.butterfly_latency, count,
                                     (k, cycle - first + hold)),
                          rows_before(clean_trace(n, latency, count), n,
                                      cycle, dataflow(n)[::-1][k]))

    @pytest.mark.parametrize("n, latency, count",
                             [(16, None, 8), (64, None, 8), (32, 12, 16)])
    def test_segment_layout_reused_over_chunks(self, n, latency, count):
        # between two of the cycles where the writer cuts its chunks (a
        # column starts, first fires or stops firing) lies a stretch of at
        # least four full chunks of N/2 cycles, so three reuse the layout
        # of the first: the trace is the every-cycle reference's, and a stop
        # at each column, on the first cycles of the second and last full
        # chunks there and mid-way through the third, keeps its rows up to
        # that tick
        config = paper_config(n, latency)
        L, n_half = config.butterfly_latency, n // 2
        firsts, done = _schedule_law(n, L)
        total = count * n_half
        cuts = sorted({c for (_, hold, per), first
                       in zip(pipesim._columns(n), firsts) if per
                       for c in (first - hold, first, first + total)
                       if c <= done + total - n_half})
        lo, hi = max(zip(cuts, cuts[1:]), key=lambda s: s[1] - s[0])
        assert (hi - lo) // n_half >= 4
        want = every_cycle(config, count)
        assert_same_lines(trace_rows(n, L, count), want)
        for cycle in (lo + n_half, lo + 2 * n_half + n_half // 2,
                      lo + ((hi - lo) // n_half - 1) * n_half):
            for k, ((_, hold, _), first) in enumerate(
                    zip(pipesim._columns(n)[::-1], firsts[::-1])):
                assert_same_lines(
                    trace_rows(n, L, count, (k, cycle - first + hold)),
                    rows_before(want, n, cycle, dataflow(n)[::-1][k]))

    @pytest.mark.parametrize("key", [(FIXED_M, 16, "schedule", 12),
                                     (12289, 32, "structural", 20)],
                             ids=_pinned_id)
    def test_trace_is_what_csv_writes(self, tmp_path, key):
        # the rows are joined by hand from runs of field text (both streams
        # have a steady middle, 8 and 9 periods long): read back and
        # rewritten by the csv module, the file comes out byte for byte,
        # six fields a row
        m, n, mode, count = key
        p = build_params(m, n)
        path = tmp_path / "t.csv"
        run_stream(rand_pairs(random.Random(60), p, count),
                   PipelineConfig(n=n, params=p, mode=mode), trace_path=path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert {len(row) for row in rows} == {6}
        out = io.StringIO(newline="")
        csv.writer(out).writerows(rows)
        assert out.getvalue().encode() == path.read_bytes()

    @pytest.mark.parametrize("m, n, mode, count", [
        (FIXED_M, 256, "schedule", 64), (12289, 1024, "structural", 8)],
        ids=["paper-ring", "generic-ring"])
    def test_one_report_traced_or_not(self, tmp_path, m, n, mode, count):
        # the traced run writes its rows by law beside the untraced run's
        # work: both give one report and one set of products
        p = build_params(m, n)
        pairs = rand_pairs(random.Random(62), p, count)
        config = PipelineConfig(n=n, params=p, mode=mode)
        traced = run_stream(pairs, config, trace_path=tmp_path / "t.csv")
        untraced = run_stream(pairs, config)
        assert traced[1] == untraced[1]
        assert ([q.coeffs for q in traced[0]]
                == [q.coeffs for q in untraced[0]])

    def test_identical_runs_identical_reports(self, fixed_params):
        p = fixed_params[16]
        rng = random.Random(53)
        pairs = rand_pairs(rng, p, 4)
        r1 = run_stream(pairs, PipelineConfig(n=16, params=p))
        r2 = run_stream(pairs, PipelineConfig(n=16, params=p))
        assert r1[1] == r2[1]
        assert [q.coeffs for q in r1[0]] == [q.coeffs for q in r2[0]]

    def test_identical_runs_identical_traces(self, p17_4, tmp_path):
        rng = random.Random(54)
        pairs = rand_pairs(rng, p17_4, 3)
        t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_stream(pairs, PipelineConfig(n=4, params=p17_4), trace_path=t1)
        run_stream(pairs, PipelineConfig(n=4, params=p17_4), trace_path=t2)
        assert t1.read_bytes() == t2.read_bytes()

    def test_trace_structure(self, p17_4, tmp_path):
        rng = random.Random(55)
        path = tmp_path / "t.csv"
        run_stream(rand_pairs(rng, p17_4, 2),
                   PipelineConfig(n=4, params=p17_4), trace_path=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "cycle,stage,sel,counter,pair_lo,pair_hi"
        stages = {line.split(",")[1] for line in lines[1:]}
        assert stages <= {"fwd_a1", "fwd_a2", "inv1", "inv2"}
        # first stage-1 butterfly pairs lanes 0 and 2 on cycle 2
        first_fire = next(l for l in lines[1:] if l.startswith("2,fwd_a1"))
        assert first_fire.endswith("0,2")


# timing mutants: each turns one direction's per-column (hold, fires per
# twiddle) list into a wrong one that the FIFO model still routes by its law
def doubled_hold(timing):
    return [(2 * hold, per) for hold, per in timing]


def doubled_per(timing):
    return [(hold, 2 * per) for hold, per in timing]


def reversed_stages(timing):
    return timing[::-1]


def swapped_stages(timing):
    timing = list(timing)
    timing[1], timing[2] = timing[2], timing[1]
    return timing


def held_first(timing):
    # stage 1 takes stage 2's hold in place of none
    return [(timing[1][0], timing[0][1]), *timing[1:]]


# (forward, mutation, the stage the proof names at N = 256), every
# mutation in both directions
MUTANTS = [(True, doubled_hold, "fwd_a2"), (False, doubled_hold, "inv2"),
           (True, doubled_per, "fwd_a2"), (False, doubled_per, "inv1"),
           (True, reversed_stages, "fwd_a1"), (False, reversed_stages, "inv1"),
           (True, swapped_stages, "fwd_a2"), (False, swapped_stages, "inv2"),
           (True, held_first, "fwd_a1"), (False, held_first, "inv1")]
BREAK = r"reads \(.*\) at L = \d+ .*: not a CRT split"


def mutant_timing(monkeypatch, forward, mutate):
    # one direction's butterfly columns take the mutated list, each keeping
    # its label, so the proof names the column at its place
    real = pipesim._columns
    prefix = "fwd_a" if forward else "inv"

    def columns(n):
        cols = list(real(n))
        at = [i for i, (label, _, _) in enumerate(cols)
              if label.startswith(prefix)]
        for i, timing in zip(at, mutate([cols[i][1:] for i in at])):
            cols[i] = cols[i][0], *timing
        return tuple(cols)

    monkeypatch.setattr(pipesim, "_columns", columns)


class TestNetworkProof:
    def test_holds_at_every_rlwe_size(self):
        for e in range(2, 17):
            _network_proof.__wrapped__(1 << e)

    @pytest.mark.parametrize("forward, mutate, stage", MUTANTS,
                             ids=[("fwd-" if f else "inv-") + m.__name__
                                  for f, m, _ in MUTANTS])
    def test_timing_mutants_are_rejected(self, monkeypatch, forward, mutate,
                                         stage):
        mutant_timing(monkeypatch, forward, mutate)
        with pytest.raises(PipelineAssertionError,
                           match=rf"^{stage}: fire \d+ {BREAK}"):
            _network_proof.__wrapped__(256)

    def test_run_stream_rests_on_the_proof(self, monkeypatch, fixed_params):
        _network_proof.cache_clear()
        forward, mutate, stage = MUTANTS[0]
        mutant_timing(monkeypatch, forward, mutate)
        p = fixed_params[16]
        with pytest.raises(PipelineAssertionError,
                           match=rf"^{stage}: fire \d+ {BREAK}"):
            run_stream(rand_pairs(random.Random(65), p, 2),
                       PipelineConfig(n=16, params=p))

    def test_runs_once_per_n(self, fixed_params, monkeypatch):
        # and the table certificate once per config, when it is built, and
        # never in run_stream
        _network_proof.cache_clear()
        real, checked = pipesim._table_proof, []
        monkeypatch.setattr(pipesim, "_table_proof", lambda params: (
            checked.append(params), real(params)))
        p = fixed_params[16]
        pairs = rand_pairs(random.Random(66), p, 2)
        config = PipelineConfig(n=16, params=p)
        first = run_stream(pairs, config)
        assert run_stream(pairs, config) == first
        assert PipelineConfig(n=16, params=p) == config
        assert _network_proof.cache_info().misses == 1
        assert len(checked) == 2 and all(q is p for q in checked)

    def test_run_stream_rests_on_the_table_certificate(self, fixed_params,
                                                      tmp_path, monkeypatch):
        # a tampered table raises when its config is built: before any
        # oracle call, and before any trace file exists
        p = fixed_params[16]
        tw = p.stage_twiddles_inv[1]
        bad = p._replace(stage_twiddles_inv=(
            p.stage_twiddles_inv[0], tw[::-1], *p.stage_twiddles_inv[2:]))
        calls = []
        monkeypatch.setattr(polymul, "naive_negacyclic_mul",
                            lambda *args: calls.append(args))
        with pytest.raises(PipelineAssertionError,
                           match="^tables: stage_twiddles_inv "):
            PipelineConfig(n=16, params=bad)
        trace = tmp_path / "trace.csv"
        with pytest.raises(PipelineAssertionError,
                           match="^tables: stage_twiddles_inv "):
            run_stream(rand_pairs(random.Random(67), p, 2),
                       PipelineConfig(n=16, params=bad), trace_path=trace)
        assert not calls
        assert not trace.exists()

    def test_no_table_set_is_hashed_per_call(self, fixed_params, monkeypatch):
        # a built config's run and the transform hash no table set: with
        # NttParams' hash refused they give the products and report they
        # gave before
        p = fixed_params[256]
        pairs = rand_pairs(random.Random(72), p, 4)
        config = PipelineConfig(n=256, params=p)
        want = run_stream(pairs, config)
        products = [negacyclic_mul_ntt(a, b, p) for a, b in pairs]

        def refuse(params):
            raise AssertionError("a table set was hashed")

        monkeypatch.setattr(NttParams, "__hash__", refuse)
        with pytest.raises(AssertionError, match="hashed"):
            hash(p)
        assert run_stream(pairs, config) == want
        assert [negacyclic_mul_ntt(a, b, p) for a, b in pairs] == products

    @pytest.mark.parametrize("n", [2048, 4096])
    def test_products_equal_the_transform_above_1024(self, n):
        p = build_params(RLWE_M, n)
        pairs = rand_pairs(random.Random(n), p, 3)
        prods, _ = run_stream(pairs, PipelineConfig(n=n, params=p))
        assert ([q.coeffs for q in prods]
                == [negacyclic_mul_ntt(a, b, p).coeffs for a, b in pairs])


class TestScheduleProofMemo:
    def test_proves_once_per_key(self, fixed_params, tmp_path, monkeypatch):
        # the key is N alone: the first config at N = 256 walks a stream of
        # one product and one of two, 784 + 786 stage ticks; a second config
        # at that N, of another mode, latency or table set, ticks none, and
        # no run_stream ticks any, at any count or latency, traced or not;
        # another N proves once in its turn
        calls = counted_ticks(monkeypatch)
        paper = PipelineConfig(n=256, params=fixed_params[256])
        assert (len(calls) == retired_ticks(paper, 1) + retired_ticks(paper, 2)
                == 784 + 786)
        calls.clear()
        configs = [paper,
                   PipelineConfig(n=256, params=fixed_params[256],
                                  mode="structural"),
                   PipelineConfig(n=256, params=fixed_params[256],
                                  mode="structural", butterfly_latency=40),
                   PipelineConfig(n=256, params=build_params(12289, 256))]
        rng = random.Random(68)
        for config in configs:
            for count in (0, 1, 2, 3, 8):
                pairs = rand_pairs(rng, config.params, count)
                run_stream(pairs, config)
                run_stream(pairs, config, trace_path=tmp_path / "t.csv")
        assert not calls
        other = PipelineConfig(n=128, params=fixed_params[128])
        assert len(calls) == retired_ticks(other, 1) + retired_ticks(other, 2)
        calls.clear()
        PipelineConfig(n=128, params=fixed_params[128], mode="structural")
        assert not calls

    def test_walks_one_and_two_products(self, fixed_params, monkeypatch):
        # the proof walks latency 1 alone, for 1 and 2 products, in that
        # order, at every N; a stream of 2 whose stages all repeat stands
        # for every longer one
        real, walks = pipesim._run_cycles, []
        monkeypatch.setattr(pipesim, "_run_cycles", lambda *args, **kw: (
            walks.append((*args, kw.get("repeat", False))), real(*args, **kw)))
        for n in (4, 16, 256):
            PipelineConfig(n=n, params=fixed_params[n], mode="structural")
            assert walks == [(n, 1, 1, False), (n, 1, 2, True)]
            walks.clear()

    @pytest.mark.parametrize("n", [4, 16, 256])
    def test_stream_of_two_must_repeat(self, fixed_params, monkeypatch, n):
        # with no snapshot ever equal to the one before, weighting, the
        # first stage proved, reaches its last fire in the walk of 2
        # products, and building a config raises naming it; the walk of 1
        # product, which needs no repeat, returns
        no_retirement(monkeypatch)
        assert _run_cycles(n, 1, 1) is None
        with pytest.raises(PipelineAssertionError,
                           match=rf"^weight: fire {n - 1} at cycle {n}, its "
                                 r"last, before a repeat$") as e:
            PipelineConfig(n=n, params=fixed_params[n])
        # weighting is the last column a cycle ticks, its last fire n - 1
        # cycles past its first arrival
        assert e.value.stop == (2 * n.bit_length(), n - 1)
        assert e.value.butterfly_latency == 1

    def test_failing_key_raises_every_time(self, fixed_params, tmp_path,
                                           monkeypatch):
        # a proof that raises is never kept: each config built at that N
        # proves again and raises again, with the same stop and its own
        # resolved latency, so a traced nttmul sim writes the law's rows up
        # to the failing cycle and column at that latency every time; once
        # the fault is gone the N proves clean
        p = fixed_params[16]
        real_tick = _PipeStage.tick

        def tick(stage, cycle, arrival):
            if (stage.label, stage.t) == ("inv2", 1):
                raise PipelineAssertionError("injected")
            real_tick(stage, cycle, arrival)

        traces = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_PipeStage, "tick", tick)
            for mode in ("schedule", "structural", "schedule"):
                with pytest.raises(PipelineAssertionError,
                                   match="^injected$") as e:
                    PipelineConfig(n=16, params=p, mode=mode)
                latency = e.value.butterfly_latency
                assert latency == (1 if mode == "schedule" else 12)
                trace = tmp_path / f"t{len(traces)}.csv"
                write_trace(trace, 16, latency, 3, e.value.stop)
                first = _schedule_law(16, latency)[0][
                    dataflow(16).index("inv2")]
                assert trace.read_bytes().decode() == HEADER + rows_before(
                    trace_rows(16, latency, 3), 16, first + 1, "inv2")
                traces.append(trace.read_bytes())
        assert traces[0] == traces[2] != traces[1]
        assert not pipesim._schedule_proof.cache_info().currsize
        calls = counted_ticks(monkeypatch)
        config = PipelineConfig(n=16, params=p)
        assert len(calls) == retired_ticks(config, 1) + retired_ticks(config, 2)

    def test_empty_stream_traces_its_header_alone(self, p17_4, tmp_path):
        # a stream of no products writes no row, on a first run and again
        config = PipelineConfig(n=4, params=p17_4)
        for name in ("first.csv", "again.csv"):
            assert run_stream([], config, trace_path=tmp_path / name)[0] == []
            assert (tmp_path / name).read_bytes() == HEADER.encode()

    @pytest.mark.parametrize("m, n, mode, count", [
        (FIXED_M, 256, "schedule", 8), (12289, 1024, "structural", 4)],
        ids=["paper-ring", "generic-ring"])
    def test_hit_gives_the_cold_outputs(self, tmp_path, m, n, mode, count):
        # a config built after its N is proved, traced or not, gives the
        # products, report and trace bytes of the one that proved it
        p = build_params(m, n)
        pairs = rand_pairs(random.Random(71), p, count)

        def run(name=None):
            trace = name and tmp_path / name
            prods, rep = run_stream(pairs, PipelineConfig(n=n, params=p,
                                                          mode=mode),
                                    trace_path=trace)
            return ([q.coeffs for q in prods], rep,
                    trace and trace.read_bytes())

        cold = run("cold.csv")
        assert run("hit.csv") == cold
        assert run() == (*cold[:2], None)
        pipesim._schedule_proof.cache_clear()
        assert run() == (*cold[:2], None)
        assert run("after_untraced.csv") == cold
