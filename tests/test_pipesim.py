import csv
import functools
import hashlib
import io
import json
import random
import re
from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nttmul import pipesim
from nttmul.modarith import (barrett_reduce_fixed, barrett_reduce_generic,
                            karatsuba_mul)
from nttmul.params import build_params
from nttmul.pipesim import (
    PipelineAssertionError,
    PipelineConfig,
    StageFifo,
    _network_proof,
    _PipeStage,
    _run_cycles,
    _schedule_law,
    _TraceWriter,
    predicted_first_mul_latency,
    predicted_first_ntt_latency,
    predicted_mul_regs,
    predicted_ntt_regs,
    run_stream,
)
from nttmul.polymul import Polynomial, naive_negacyclic_mul

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
        assert StageFifo(64).capacity == 128
        assert StageFifo(32).capacity == 64

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

    def test_peak_occupancy_is_capacity(self):
        hold = 8
        fifo = StageFifo(hold)
        feed_forever(fifo, 6 * hold)
        assert fifo.peak == fifo.capacity

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
        # its peak is the two entries per fill tick it saw
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
        assert gapped_fifo.peak == fifo.peak == 2 * min(arrivals, hold)
        # every pair: one stream, the lower element of a 2*hold block
        # paired with the element hold above it, never twice
        for newer, older in out:
            assert newer[0] == older[0]
            assert newer[1] - older[1] == hold
            assert older[1] % (2 * hold) < hold
        assert len(set(out)) == len(out)
        if arrivals == total:
            assert len(out) == total


def unit_stage(latency):
    # a hold-0 column: each arrival (x_j, x_{j+N/2}) issues at once, higher
    # element first, so fire t must receive the labels (2t, 2t + 1)
    return _PipeStage("unit", 0, 1, latency, 2)


class TestButterflyUnit:
    @given(latency=st.integers(1, 16), lead=st.integers(0, 3),
           fires=st.integers(0, 20))
    def test_latency_and_order(self, latency, lead, fires):
        # fire t emits the labels (2t, 2t + 1) as a delay line of
        # latency - 1 slots would
        stage = unit_stage(latency)
        line = deque([None] * (latency - 1))
        feed = ([None] * lead + [(2 * t, 2 * t + 1) for t in range(fires)]
                + [None] * (latency + 1))
        for cycle, arrival in enumerate(feed, start=1):
            stage.tick(cycle, arrival)
            line.append(arrival)
            out = line.popleft()
            assert stage.out == out, cycle
        assert stage.t == fires
        assert stage.first_fire == (lead + 1 if fires else None)

    def test_single_cycle_latency_same_tick(self):
        stage = unit_stage(latency=1)
        stage.tick(5, (0, 1))
        assert stage.out == (0, 1)

    def test_arrival_breaking_the_law_raises(self):
        # fire 1 must pair the labels (3, 2); product 0 is checked too
        stage = unit_stage(latency=1)
        stage.tick(1, (0, 1))
        with pytest.raises(PipelineAssertionError,
                           match=r"unit: fire 1 pairs \(5, 4\), not \(3, 2\)"):
            stage.tick(2, (4, 5))

    def test_fire_off_its_cycle_raises(self):
        # fire 1 must come at first_fire + 1, the cycle after fire 0
        stage = unit_stage(latency=1)
        stage.tick(1, (0, 1))
        stage.tick(2, None)
        with pytest.raises(PipelineAssertionError,
                           match=r"^unit: fire 1 at cycle 3, not 2$"):
            stage.tick(3, (2, 3))


class TestPipelineConfig:
    def test_schedule_defaults_to_unit_latency(self, fixed_params):
        cfg = PipelineConfig(n=16, params=fixed_params[16])
        assert cfg.mode == "schedule"
        assert cfg.butterfly_latency == 1
        assert cfg.scalar_latency == 1

    def test_schedule_refuses_deep_latency(self, fixed_params):
        with pytest.raises(ValueError):
            PipelineConfig(n=16, params=fixed_params[16], butterfly_latency=4)

    def test_structural_default_depths(self, fixed_params):
        cfg = PipelineConfig(n=16, params=fixed_params[16], mode="structural")
        assert cfg.butterfly_latency == 12
        assert cfg.scalar_latency == 10

    def test_structural_override(self, fixed_params):
        cfg = PipelineConfig(n=16, params=fixed_params[16], mode="structural",
                             butterfly_latency=4)
        assert cfg.scalar_latency == 2

    def test_latency_bound(self, fixed_params):
        # the fill, the ticked cycles and the wedge limit grow with the
        # depth, so it is bounded
        cfg = PipelineConfig(n=16, params=fixed_params[16], mode="structural",
                             butterfly_latency=1024)
        assert cfg.scalar_latency == 1022
        with pytest.raises(ValueError, match=r"butterfly_latency.*1024"):
            PipelineConfig(n=16, params=fixed_params[16], mode="structural",
                           butterfly_latency=1025)

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
        # run_stream's products, polymul's walk with lazy adders, are those
        # of the walk on the units' Karatsuba + Barrett product with exact
        # adders, and those of the schoolbook
        p = lazy_rings[ring]
        M, n = ring
        rng = random.Random(seed)
        pairs = [tuple(Polynomial(OPERANDS[k](rng, M, n), M) for k in kind)
                 for kind in kinds]
        prods, _ = run_stream(pairs, PipelineConfig(n=n, params=p, mode=mode))
        lazy = [q.coeffs for q in prods]
        exact = [datapath_product(p, a.coeffs, b.coeffs) for a, b in pairs]
        assert lazy == [tuple(c) for c in exact]
        assert lazy == [naive_negacyclic_mul(a, b, p).coeffs for a, b in pairs]



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


def withhold_at_gate(mp, gap_at):
    # the gate withholds once, on the cycle that would hand over pair gap_at
    real_pop = pipesim._TransformGate.pop
    handed = []

    def pop(gate):
        if gate._ready and len(handed) == gap_at:
            handed.append(None)
            return None
        pair = real_pop(gate)
        if pair is not None:
            handed.append(pair)
        return pair

    mp.setattr(pipesim._TransformGate, "pop", pop)


def tick_count(config, count, retiring=True):
    # the _PipeStage ticks of one untraced loop, and its report
    real_tick = _PipeStage.tick
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        if not retiring:
            no_retirement(mp)
        mp.setattr(_PipeStage, "tick", lambda stage, cycle, arrival: (
            calls.append(None), real_tick(stage, cycle, arrival)))
        report = _run_cycles(config, count, None)
    return len(calls), report


def retired_ticks(config, count):
    # the ticks of an untraced run: each stage ticks from its first
    # arrival, hold cycles before its first fire, to its second snapshot,
    # P fires after the first (P its period: 2 * hold behind a FIFO, 1
    # without one, N/2 at inv1), if that comes below the total T; else to
    # the cycle after its last result, T + lag cycles after its first fire.
    # inv1's state repeats only if pointwise still feeds the gate at its
    # second snapshot, which takes 3 products
    total = count * config.n // 2
    ticks = 0
    for chain in pipesim._build_chains(config, None):
        for stage in chain:
            inv1 = stage.label == "inv1"
            period = config.n // 2 if inv1 else stage.d
            repeats = 1 + period < total and (count > 2 or not inv1)
            ticks += stage.hold + (1 + period if repeats
                                   else total + stage.lag + 1)
    return ticks if count else 0


def no_retirement(mp):
    # every snapshot a fresh object: no two compare equal, so no stage
    # leaves before its last fire and a fault injected late is still met
    mp.setattr(pipesim, "_moved", lambda *args: [object()])


def fifo_labels(mp):
    # the label of the stage each FIFO feeds, filled in as a run builds
    # its chains
    real_build = pipesim._build_chains
    labels = {}

    def build(config, trace):
        front, back = real_build(config, trace)
        labels.update((st.fifo, st.label) for st in (*front, *back) if st.fifo)
        return front, back

    mp.setattr(pipesim, "_build_chains", build)
    return labels


class TestControlPlane:
    @pytest.mark.parametrize("mode", ["schedule", "structural"])
    def test_closed_forms_at_rlwe_sizes(self, mode):
        # the loop routes labels only, so it decides the closed forms at
        # sizes the paper ring lacks
        for n in (1024, 4096):
            config = PipelineConfig(n=n, params=build_params(RLWE_M, n),
                                    mode=mode)
            rep = _run_cycles(config, 4, None)
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

    def test_loop_stops_at_the_steady_state(self, fixed_params, monkeypatch):
        # past the proved steady state every stage leaves the loop and
        # unweighting's completions come by law, so 1000 products tick no
        # more cycles than 12 do
        config = PipelineConfig(n=16, params=fixed_params[16])
        real_tick_chain = pipesim._tick_chain

        def ticked(count):
            cycles = set()
            monkeypatch.setattr(pipesim, "_tick_chain",
                                lambda chain, cycle, arrival: (
                                    cycles.add(cycle),
                                    real_tick_chain(chain, cycle, arrival)))
            rep = _run_cycles(config, count, None)
            assert rep.completion_cycles[-1] == 39 + 8 * (count - 1)
            return len(cycles)

        assert ticked(1000) == ticked(12) < 39 + 8 * 11

    def test_misrouted_fire_raises(self, fixed_params, monkeypatch):
        # swap the pair a stage-3 FIFO emits at fire 8, product 1's first:
        # the data would come out wrong, and the routing check catches it.
        # Stage 3 leaves at its second snapshot, after fire 4, so fire 8 is
        # ticked only with retirement off
        p = fixed_params[16]
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
            run_stream(rand_pairs(random.Random(57), p, 3),
                       PipelineConfig(n=16, params=p))

    def test_misrouting_every_product_alike_raises(self, fixed_params,
                                                   monkeypatch):
        # swap every pair stage 3 emits in its drain phase, product 0's
        # included: the first is fire 2, and the law catches it there
        p = fixed_params[16]
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
            run_stream(rand_pairs(random.Random(57), p, 3),
                       PipelineConfig(n=16, params=p))

    @pytest.mark.parametrize("label, counter, bank", [
        ("fwd_a3", 5, "block_i"),
        ("fwd_a2", 9, "block_ii"),
        ("inv3", 7, "block_i")])
    def test_corrupted_bank_entry_raises(self, fixed_params, monkeypatch,
                                         label, counter, bank):
        # swap two entries of one bank just before a tick: the FIFO emits a
        # wrong element, and the routing law names the stage and the fire.
        # Retirement off: inv3's swap meets its fire 5, after it has left
        p = fixed_params[16]
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
            run_stream(rand_pairs(random.Random(57), p, 3),
                       PipelineConfig(n=16, params=p))

    @pytest.mark.parametrize("latency", [None, 12])
    def test_fault_before_a_second_snapshot_raises(self, fixed_params,
                                                   latency):
        # retirement on: a stage's fire P, P its period (2 * hold behind a
        # FIFO, 1 without one, N/2 at inv1), is its last before its second
        # snapshot, so the stage is still in the loop, and a pair swapped
        # there raises, naming the stage and the fire
        config = PipelineConfig(n=16, params=fixed_params[16],
                                mode="structural" if latency else "schedule",
                                butterfly_latency=latency)
        real_tick, real_fifo_tick = _PipeStage.tick, StageFifo.tick
        for stage in (st for chain in pipesim._build_chains(config, None)
                      for st in chain):
            label = stage.label
            fire = config.n // 2 if label == "inv1" else stage.d

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
                    _run_cycles(config, 3, None)

    def test_stage_stopping_after_its_consumer_left_wedges(self,
                                                           fixed_params):
        # forward stage 2 stops at fire 110, after stage 3 has left at its
        # fire 64, 97 cycles into stage 2's fires.  Nothing reads stage 2
        # any more, yet it never leaves: its t falls behind its timing law,
        # so its later snapshots do not count.  The loop runs on although
        # unweighting has left and its completions followed by law, which
        # reset no wedge counter, so the run wedges the limit (8680 cycles)
        # after the feed's last cycle, 1024
        config = PipelineConfig(n=256, params=fixed_params[256])
        real_tick = _PipeStage.tick
        last, stopped = {}, []

        def tick(stage, cycle, arrival):
            if stage.label == "fwd_a2" and stage.t == 110:
                stage.out = None
                stopped.append(cycle)
                if cycle > 20_000:
                    raise RuntimeError("the loop ran on")
                return
            last[stage.label] = cycle
            real_tick(stage, cycle, arrival)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_PipeStage, "tick", tick)
            with pytest.raises(PipelineAssertionError,
                               match="^no progress after 8680 cycles; "
                                     "schedule wedged$"):
                _run_cycles(config, 8, None)
        assert last["fwd_a3"] < stopped[0]
        assert stopped[-1] == 1024 + 8680

    @pytest.mark.parametrize("gap_at, due", [
        (0, None), (1, 22), (2, 23), (9, 30), (22, 43), (23, 44)])
    def test_gap_at_the_gate_delays_inv1(self, fixed_params, monkeypatch,
                                         gap_at, due):
        # only the gate can open a gap in a stage's fires: inv1's fire of
        # the withheld pair, a cycle late, breaks the timing law before
        # inv2 sees the arrival, in a gate phase of inv2's FIFO or a drain
        # phase; withholding the first pair delays the back chain without
        # a gap, and the schedule law catches that at the end
        withhold_at_gate(monkeypatch, gap_at)
        no_retirement(monkeypatch)
        config = PipelineConfig(n=16, params=fixed_params[16])
        if due is None:
            with pytest.raises(PipelineAssertionError,
                               match=r"^inv1: first fire at cycle 22, not 21 "
                                     r"by law$"):
                _run_cycles(config, 3, None)
            return
        with pytest.raises(PipelineAssertionError,
                           match=rf"^inv1: fire {gap_at} at cycle {due + 1}, "
                                 rf"not {due}$"):
            _run_cycles(config, 3, None)

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_gap_anywhere_never_underflows(self, fixed_params, n):
        # a FIFO checks no gap and reads only its fixed banks; the timing
        # law of the stage feeding it is the one gap check, so a gap
        # anywhere in the stream is inv1's late fire, in either mode, and
        # a delay with no gap puts the schedule off its law
        p = fixed_params[n]
        for config in (PipelineConfig(n=n, params=p),
                       *(PipelineConfig(n=n, params=p, mode="structural",
                                        butterfly_latency=latency)
                         for latency in (2, 12))):
            outcomes = set()
            for gap_at in range(3 * n // 2):
                with pytest.MonkeyPatch.context() as mp:
                    withhold_at_gate(mp, gap_at)
                    no_retirement(mp)
                    try:
                        assert _run_cycles(config, 3, None).stall_free
                        outcomes.add("stall-free")
                    except PipelineAssertionError as e:
                        outcomes.add(re.sub(r" \d+", " #", str(e)))
            assert outcomes == {"inv1: first fire at cycle #, not # by law",
                                "inv1: fire # at cycle #, not #"}, config

    @pytest.mark.parametrize("mode", ["schedule", "structural"])
    def test_lost_result_raises(self, fixed_params, mode):
        # a result lost from any stage's unit at any cycle: the next stage
        # pairs the wrong labels at its next fire, or fires late when the
        # gate's block completes late, or, at the stream's tail, the run
        # falls short and wedges.  Nulling a slot that holds None changes
        # nothing, so only the clean run's results are lost, each once
        p = fixed_params[16]
        pairs = rand_pairs(random.Random(58), p, 3)
        config = PipelineConfig(n=16, params=p, mode=mode)
        real_tick = _PipeStage.tick
        results = []

        def record(stage, cycle, arrival):
            real_tick(stage, cycle, arrival)
            if stage.out is not None:
                results.append((stage.label, cycle))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_PipeStage, "tick", record)
            no_retirement(mp)
            run_stream(pairs, config)
        labels = [st.label for chain in pipesim._build_chains(config, None)
                  for st in chain]
        after = dict(zip(labels, labels[1:]))   # the stage a result feeds
        wedged = "no progress after # cycles; schedule wedged"
        outcomes = set()
        for label, at in results:
            def tick(stage, cycle, arrival):
                real_tick(stage, cycle, arrival)
                if cycle == at and stage.label == label:
                    stage.out = None

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_PipeStage, "tick", tick)
                no_retirement(mp)
                with pytest.raises(PipelineAssertionError) as e:
                    run_stream(pairs, config)
            error = re.sub(r"\b\d+", "#", str(e.value))
            allowed = {wedged}
            if label in after:
                allowed |= {f"{after[label]}: fire # pairs (#, #), not (#, #)",
                            f"{after[label]}: fire # at cycle #, not #"}
            assert error in allowed
            outcomes.add(re.sub(r"^\w+: ", "", error))
        assert outcomes == {"fire # pairs (#, #), not (#, #)",
                            "fire # at cycle #, not #", wedged}

    def test_lost_tail_result_wedges_after_a_fixed_limit(self, fixed_params):
        # the last unweight result lost on the last cycle: the run raises
        # the same count of cycles after the last progress, with the same
        # message, for a short stream and for a long one
        config = PipelineConfig(n=256, params=fixed_params[256])
        real_tick, real_tick_chain = _PipeStage.tick, pipesim._tick_chain
        seen = []
        for count in (8, 200):
            last = _run_cycles(config, count, None).completion_cycles[-1]
            cycles = []

            def tick(stage, cycle, arrival):
                real_tick(stage, cycle, arrival)
                if cycle == last and stage.label == "unweight":
                    stage.out = None

            def tick_chain(chain, cycle, arrival):
                cycles.append(cycle)
                real_tick_chain(chain, cycle, arrival)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_PipeStage, "tick", tick)
                mp.setattr(pipesim, "_tick_chain", tick_chain)
                no_retirement(mp)
                with pytest.raises(PipelineAssertionError,
                                   match="schedule wedged$") as e:
                    _run_cycles(config, count, None)
            seen.append((str(e.value), cycles[-1] - last))
        assert seen[0] == seen[1]

    @given(n=st.sampled_from([4, 8, 16, 32]), latency=st.integers(1, 16),
           structural=st.booleans(), count=st.integers(0, 24))
    def test_jump_is_exact(self, fixed_params, n, latency, structural, count):
        # the jumped run gives the report and trace text of the run that
        # ticks every cycle: with _moved returning a fresh object,
        # no two product boundaries compare equal and the loop never jumps,
        # so each repeated period's format string is checked against the
        # rows the ticked periods write
        p = fixed_params[n]
        config = (PipelineConfig(n=n, params=p, mode="structural",
                                 butterfly_latency=latency) if structural
                  else PipelineConfig(n=n, params=p))

        def run():
            text = io.StringIO()
            report = _run_cycles(config, count, _TraceWriter(text))
            return report, text.getvalue()

        jumped = run()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipesim, "_moved", lambda *args: [object()])
            assert run() == jumped

    @given(n=st.sampled_from([4, 8, 16, 32]), latency=st.integers(1, 16),
           structural=st.booleans(), count=st.integers(0, 24),
           traced=st.booleans(), data=st.data())
    def test_window_is_exact(self, fixed_params, n, latency, structural,
                             count, traced, data):
        # ticking only each chain's window gives the report, the trace text
        # and the error of the loop that ticks every stage every cycle,
        # which is what _window returning the whole chain makes of it when
        # no stage leaves before its last fire; a pair withheld at the gate
        # injects the fault, and then neither run lets a stage leave early
        p = fixed_params[n]
        config = (PipelineConfig(n=n, params=p, mode="structural",
                                 butterfly_latency=latency) if structural
                  else PipelineConfig(n=n, params=p))
        gap_at = data.draw(st.none() | st.integers(0, count * n // 2))

        def run(full):
            text = io.StringIO()
            with pytest.MonkeyPatch.context() as mp:
                if gap_at is not None:
                    withhold_at_gate(mp, gap_at)
                if full or gap_at is not None:
                    no_retirement(mp)
                if full:
                    mp.setattr(pipesim, "_window",
                               lambda chain, reach, left: [(0, chain)])
                try:
                    result = _run_cycles(config, count,
                                         _TraceWriter(text) if traced else None)
                except PipelineAssertionError as e:
                    result = str(e)
            return result, text.getvalue()

        assert run(full=False) == run(full=True)

    def test_window_skips_idle_ticks(self, monkeypatch):
        # the benchmark's structural N = 1024 stream of 4 ticks 3851 cycles,
        # 23 stages each when every stage ticks every cycle: the last is
        # the one after the last completion, where unweighting leaves
        config = PipelineConfig(n=1024, params=build_params(12289, 1024),
                                mode="structural")
        real_tick = _PipeStage.tick

        def ticks(window):
            calls = []
            with pytest.MonkeyPatch.context() as mp:
                if window is not pipesim._window:
                    no_retirement(mp)
                mp.setattr(pipesim, "_window", window)
                mp.setattr(_PipeStage, "tick", lambda stage, cycle, arrival: (
                    calls.append(None), real_tick(stage, cycle, arrival)))
                _run_cycles(config, 4, None)
            return len(calls)

        assert ticks(lambda chain, reach, left: [(0, chain)]) == 88_573
        assert ticks(pipesim._window) < 88_573

    @given(n=st.sampled_from([4, 8, 16, 32]), latency=st.integers(1, 16),
           structural=st.booleans(), count=st.integers(0, 24))
    def test_retirement_is_exact(self, fixed_params, n, latency, structural,
                                 count):
        # the untraced run whose stages leave once their state repeats
        # gives the report of the run where no stage leaves before its last
        # fire, and ticks what retired_ticks counts
        p = fixed_params[n]
        config = (PipelineConfig(n=n, params=p, mode="structural",
                                 butterfly_latency=latency) if structural
                  else PipelineConfig(n=n, params=p))
        (retired, report), (ticked, full) = (tick_count(config, count),
                                             tick_count(config, count, False))
        assert report == full
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
                (retired, report), (_, full) = (
                    tick_count(config, count), tick_count(config, count, False))
                assert report == full, (latency, count)
                assert retired == retired_ticks(config, count), (latency,
                                                                 count)

    def test_retirement_ticks_a_fixed_count(self, fixed_params):
        # the benchmark's in-process streams.  Each column ticks from its
        # first arrival, hold cycles before its first fire, to its second
        # snapshot, P fires later, P its period: 3 * hold + 1 ticks behind
        # a FIFO, N/2 + 1 at inv1, whose period is N/2, and 2 at weighting,
        # forward stage 1, pointwise and unweighting.  A transform's FIFOs
        # hold N/4 ... 1: 3 * (N/2 - 1) + log2(N) - 1 ticks, 388 at N = 256
        # and 1542 at N = 1024; a stream of 1000 ticks as one of 8
        for m, n, mode, counts, ticks in (
                (FIXED_M, 256, "schedule", (8, 1000), 2 * 388 + 129 + 8),
                (12289, 1024, "structural", (4,), 2 * 1542 + 513 + 8)):
            config = PipelineConfig(n=n, params=build_params(m, n),
                                    mode=mode)
            for count in counts:
                assert tick_count(config, count)[0] == ticks

    @pytest.mark.parametrize("n, latencies", [
        (4, range(1, 65)), (8, range(1, 65)),
        (256, (1, 2, 3, 5, 12, 64, 199)), (1024, (1, 12, 40))])
    def test_schedule_law(self, n, latencies):
        # every first fire and completion of the loop, which checks them
        # against _schedule_law at the end of each run, equals the closed
        # forms: F_1 = 1 + S, F_s = F_{s-1} + L + N/2**s, I_1 = F_m + N/2 + L
        # + S - 1, I_s = I_{s-1} + L + 2**(s-2), completion k at I_m + N/2
        # - 1 + (L - 1) + S + k*N/2; and so do the two latencies the report
        # derives from them: the first transform takes N + m - 2 + (m -
        # 1)(L - 1) cycles and the first product 2N + 2m - 1 + 2m(L - 1) +
        # 3(S - 1)
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
            assert _schedule_law(n, latency) == (tuple(fwd), tuple(inv), done)
            config = PipelineConfig(n=n, params=p, mode="structural",
                                    butterfly_latency=latency)
            for count in (1, 6):
                rep = _run_cycles(config, count, None)
                assert rep.fwd_stage_first_fire == tuple(fwd)
                assert rep.inv_stage_first_fire == tuple(inv)
                assert rep.completion_cycles == tuple(
                    done + k * n // 2 for k in range(count))
                assert rep.first_ntt_latency == (n + m - 2
                                                 + (m - 1) * (latency - 1))
                assert rep.first_mul_latency == (
                    2 * n + 2 * m - 1 + 2 * m * (latency - 1) + 3 * (S - 1))
        if latencies[0] == 1:
            rep = _run_cycles(PipelineConfig(n=n, params=p), 6, None)
            assert rep.completion_cycles[0] == _schedule_law(n, 1)[2]

    @pytest.mark.parametrize("off, error", [
        (0, "fwd_a1: first fire at cycle 2, not 3 by law"),
        (1, "inv1: first fire at cycle 21, not 22 by law"),
        (2, "product 0 completes at cycle 39, not 40 by law")])
    def test_schedule_off_its_law_raises(self, fixed_params, monkeypatch,
                                         off, error):
        # a law one cycle off in the forward stages, the inverse ones or the
        # completions: the run, traced or not, raises at its end, naming
        # the first stage or product off it
        real_law = pipesim._schedule_law

        def law(n, latency):
            parts = list(real_law(n, latency))
            parts[off] = (parts[off] + 1 if off == 2
                          else (parts[off][0] + 1, *parts[off][1:]))
            return tuple(parts)

        monkeypatch.setattr(pipesim, "_schedule_law", law)
        config = PipelineConfig(n=16, params=fixed_params[16])
        for trace in (None, _TraceWriter(io.StringIO())):
            with pytest.raises(PipelineAssertionError,
                               match=rf"^{re.escape(error)}$"):
                _run_cycles(config, 12, trace)

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
    # long enough for the loop to jump to the last product boundary (at
    # boundary 5 and 14 of 12 and 20); pinned before the loop could jump
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

    # 12 pairs jump from boundary 5 to the last one, at cycle 96, and inv3
    # reaches counter 80 only in the drain after it
    @pytest.mark.parametrize("count, label, counter",
                             [(3, "fwd_a2", 9), (3, "inv4", 13),
                              (12, "inv3", 80)],
                             ids=["fwd_a2-9", "inv4-13", "jumped-inv3-80"])
    def test_trace_on_abort_is_the_unaborted_prefix(
            self, fixed_params, tmp_path, monkeypatch, count, label, counter):
        p = fixed_params[16]
        pairs = rand_pairs(random.Random(56), p, count)
        cfg = PipelineConfig(n=16, params=p)
        full = tmp_path / "full.csv"
        run_stream(pairs, cfg, trace_path=full)
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
        aborted = tmp_path / "aborted.csv"
        with pytest.raises(PipelineAssertionError, match="injected"):
            run_stream(pairs, cfg, trace_path=aborted)
        # header plus every row written before the failing stage's row
        assert aborted.read_text().splitlines() == lines[:fail]
        assert full.read_bytes().startswith(aborted.read_bytes())
        if count == 12:
            # a jump writes rows up to the last boundary's cycle, count N/2,
            # so the aborted file holds every repeated period
            assert int(lines[fail].split(",")[0]) > count * 8

    @pytest.mark.parametrize("key", [(FIXED_M, 16, "schedule", 12),
                                     (12289, 32, "structural", 20)],
                             ids=_pinned_id)
    def test_trace_is_what_csv_writes(self, tmp_path, key):
        # the rows are formatted by hand, repeated periods included (both
        # streams jump): read back and rewritten by the csv module, the
        # file comes out byte for byte, six fields a row
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
        # the traced run jumps from its steady state to the last product
        # boundary, the untraced one lets each stage leave once its state
        # repeats: both give one report and one set of products
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


# timing mutants: each turns one direction's per-stage (hold, fires per
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


# (forward, mutation, the stage the proof names at N = 256)
MUTANTS = [(True, doubled_hold, "fwd_a2"), (False, doubled_per, "inv1"),
           (False, reversed_stages, "inv1"), (True, swapped_stages, "fwd_a2")]


def mutant_timing(monkeypatch, forward, mutate):
    real = pipesim._butterfly_timing
    monkeypatch.setattr(pipesim, "_butterfly_timing", lambda n, fwd: (
        mutate(real(n, fwd)) if fwd == forward else real(n, fwd)))


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
                           match=rf"^{stage}: fire \d+ reads polymul's"):
            _network_proof.__wrapped__(256)

    def test_run_stream_rests_on_the_proof(self, monkeypatch, fixed_params):
        _network_proof.cache_clear()
        forward, mutate, stage = MUTANTS[0]
        mutant_timing(monkeypatch, forward, mutate)
        p = fixed_params[16]
        with pytest.raises(PipelineAssertionError,
                           match=rf"^{stage}: fire \d+ reads polymul's"):
            run_stream(rand_pairs(random.Random(65), p, 2),
                       PipelineConfig(n=16, params=p))

    def test_runs_once_per_n(self, fixed_params):
        _network_proof.cache_clear()
        p = fixed_params[16]
        pairs = rand_pairs(random.Random(66), p, 2)
        config = PipelineConfig(n=16, params=p)
        first = run_stream(pairs, config)
        assert run_stream(pairs, config) == first
        info = _network_proof.cache_info()
        assert (info.misses, info.hits) == (1, 1)
