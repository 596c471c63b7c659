"""Cycle-accurate model of the streaming negacyclic multiplier.

The modelled datapath multiplies a stream of polynomial pairs at a sustained
rate of one product every N/2 clock cycles:

* two coefficients of each operand enter per cycle, are weighted by
  ``phi**i``, and flow through two parallel forward-transform pipelines.
  These share one control plane (FIFO ``sel`` and counters, twiddle
  sequencing), modelled once: both operands take one routing;
* each pipeline has log2(N) butterfly stages.  Stage s pairs lanes that sit
  N/2**s apart, which in stream order means its second operand arrives
  N/2**s cycles after its first; a double-buffer FIFO (:class:`StageFifo`)
  holds the early arrivals.  Stage 1 needs no buffer and, because its
  twiddle is always one, no multiplier either;
* the spectra are multiplied pointwise (lane a times lane b), buffered
  until a transform's block is complete, then driven through the inverse
  pipeline whose stages pair lanes 2**(s-1) apart (holds double instead of
  halving) using add/sub-then-multiply butterflies, and finally unweighted
  by ``N**-1 * phi**-i``.

Every column of the datapath is one kind of fully pipelined stage fed by
the one before it: one operation enters per cycle and emerges a fixed
number of cycles later.  Hold FIFOs sit only in front of butterfly stages;
the weighting, pointwise and unweighting multipliers are stages without
one, as is stage 1 of each transform.  The simulator ticks two such
chains, ``[weight, *forward, pointwise]`` and ``[*inverse, unweight]``,
joined by a gate that hands over one complete transform block at a time.

``schedule`` mode collapses all latencies to one cycle so the cycle counts
match the closed-form expressions (:func:`predicted_first_ntt_latency` and
friends); ``structural`` mode uses multi-cycle unit latencies, which
stretches the fill latency but must not change throughput.

The schedule does not depend on the data, so the stages carry control only:
:func:`_run_cycles` routes position labels and checks every fire it ticks
against a routing and a timing law (:class:`_PipeStage`).  Untraced, each
stage leaves the loop once its state repeats and fires the rest of the
stream by the timing law; traced, the loop jumps from its steady state to
the last product boundary.  Both are proved in its docstring, and every run
ends by checking each stage's first fire and every completion against
closed forms (:func:`_schedule_law`).  :func:`_replay` computes the products on
the routing law (:func:`_programs`), with ``x * w % M`` standing for
Karatsuba plus Barrett and lazy adders.  The routing check proves that the
FIFO model builds the same butterfly network at every size it runs; that
this network multiplies correctly is sampled against the schoolbook product
at N <= 1024.  The same inputs and configuration give the same trace.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import asdict, dataclass
from functools import partial
from operator import add, itemgetter, sub

from .modarith import (FIXED_M, barrett_reduce_fixed, barrett_reduce_generic,
                       karatsuba_mul)
from .params import NttParams
from .polymul import Polynomial, _check_operand

# structural-mode stage depths of one butterfly unit
KARATSUBA_CYCLES = 6
REDUCE_CYCLES = 4
ADDSUB_CYCLES = 2
MAX_BUTTERFLY_LATENCY = 1024


class PipelineAssertionError(RuntimeError):
    """A fire misrouted or came off its cycle, or the schedule wedged.

    Any of these means the stage schedule is broken; they cannot happen for
    a correctly configured run and are never silently absorbed.
    """


@dataclass(frozen=True)
class PipelineConfig:
    """Simulation setup for one (M, N) instance.

    ``mode`` is ``"schedule"`` (all unit latencies one cycle, cycle counts
    match the closed forms) or ``"structural"`` (deep arithmetic pipelines).
    ``butterfly_latency`` defaults to 1 / karatsuba+reduce+addsub cycles
    respectively; scalar multiplier units (weight, pointwise, unweight) take
    ``butterfly_latency - ADDSUB_CYCLES`` since they skip the add/sub step.
    It is at most ``MAX_BUTTERFLY_LATENCY``, 85 times the modelled unit,
    since the fill, the cycles a run ticks and the wedge limit grow with it.
    """

    n: int
    params: NttParams
    mode: str = "schedule"
    butterfly_latency: int | None = None

    def __post_init__(self):
        _check_n(self.n)
        if self.n != self.params.n:
            raise ValueError(f"N={self.n} does not match params.n={self.params.n}")
        if self.mode not in ("schedule", "structural"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.butterfly_latency is None:
            deep = KARATSUBA_CYCLES + REDUCE_CYCLES + ADDSUB_CYCLES
            object.__setattr__(self, "butterfly_latency",
                               1 if self.mode == "schedule" else deep)
        if (type(self.butterfly_latency) is not int     # bool included
                or not 1 <= self.butterfly_latency <= MAX_BUTTERFLY_LATENCY):
            raise ValueError(f"butterfly_latency must be an int in "
                             f"[1, {MAX_BUTTERFLY_LATENCY}]")
        if self.mode == "schedule" and self.butterfly_latency != 1:
            raise ValueError("schedule mode forces butterfly_latency = 1")

    @property
    def scalar_latency(self) -> int:
        return max(1, self.butterfly_latency - ADDSUB_CYCLES)


# ---------------------------------------------------------------------------
# arithmetic kernels

def _datapath_mul(params: NttParams):
    """The units' product of two lists of residues: ``karatsuba_mul`` on
    l-bit operands into Barrett, shift-add for the default modulus, exact
    up to (M-1)**2 and so equal to ``x * y % M``.  Only the tests' replay
    on the units' arithmetic, exact adders included, calls it."""
    M = params.M
    bits = (M - 1).bit_length()
    l = bits + (bits & 1)       # smallest even operand width holding M - 1
    reduce = (barrett_reduce_fixed if M == FIXED_M
              else partial(barrett_reduce_generic, ctx=params.ctx))
    return lambda xs, ys: [reduce(karatsuba_mul(x, y, l))
                           for x, y in zip(xs, ys)]


def _kernels(mul, plus, minus):
    """By butterfly kind, the units on lists of the fires' lower and higher
    elements and twiddles: ct (lo + w*hi, lo - w*hi), gs (lo + hi,
    (lo - hi)*w), addsub (lo + hi, lo - hi); at "mul", ``mul``, the product
    mod M.  ``plus`` and ``minus`` add in [0, M), or as ``add`` and ``sub``
    within |x| < (s+1)*M after forward stage s, 2**s * M after inverse s."""
    def addsub(lo, hi, w=None):
        return list(map(plus, lo, hi)), list(map(minus, lo, hi))

    return {"addsub": addsub, "mul": mul,
            "ct": lambda lo, hi, w: addsub(lo, mul(hi, w)),
            "gs": lambda lo, hi, w: (list(map(plus, lo, hi)),
                                     mul(map(minus, lo, hi), w))}


# ---------------------------------------------------------------------------
# stage FIFO

class StageFifo:
    """Double-buffer hold FIFO in front of one butterfly stage.

    Two register banks of ``hold`` slots, read and written at the tap
    ``counter mod hold``.  The counter starts at the first arrival; ``sel``
    drops to 0 when it crosses an odd multiple of ``hold``, back to 1 at
    the next:

    * counter in [0, hold):  fill - both taps load, no butterfly;
    * sel = 0 (gate phase):  bank II is clock-gated; bank I's tap pairs with
      the live first stream and takes the second stream's element;
    * sel = 1 (drain phase): the two taps pair, and reload with fresh data
      (possibly the next transform's).

    A None arrival is the stream's end: it ticks a drain phase, pairing the
    taps without reloading them, and idles any other phase.  Capacity is
    exactly ``2 * hold``: a fixed bank can neither overflow nor underflow,
    and a wrong slot breaks the routing law :class:`_PipeStage` checks.
    The FIFO checks no gap: its feeder is a :class:`_PipeStage`, whose
    fires the timing law keeps contiguous, so after a gap the feeder's next
    fire is late and raises before its result reaches the FIFO.  A stream
    of whole transforms ends just as a drain phase starts; one cut short
    leaves the run short of results, and "schedule wedged" raises.
    """

    __slots__ = ("hold", "block_i", "block_ii", "counter", "_hshift")

    def __init__(self, hold: int):
        if type(hold) is not int or hold < 1 or hold & (hold - 1):
            raise ValueError(f"hold must be a power of two >= 1, got {hold!r}")
        self.hold = hold
        self.block_i: list = [None] * hold
        self.block_ii: list = [None] * hold
        self.counter = 0
        self._hshift = hold.bit_length() - 1

    @property
    def capacity(self) -> int:
        return 2 * self.hold

    @property
    def peak(self) -> int:
        # only the fill adds entries, two per tick
        return 2 * min(self.counter, self.hold)

    @property
    def sel(self) -> int:
        # 1 during fill and drain phases, 0 while bank II is gated
        return 1 - (self.counter >> self._hshift & 1)

    def tick(self, arrival):
        """Advance one cycle; returns the butterfly pair (newer, older) or None.

        ``arrival`` is the (stream-1, stream-2) element pair leaving the
        previous stage this cycle, or None once the stream has ended.
        """
        counter = self.counter
        q, p = counter >> self._hshift, counter & self.hold - 1
        bi, bii = self.block_i, self.block_ii
        if arrival is None:
            if q & 1 or not q:
                return None     # fill or gate phase: idle
            self.counter = counter + 1
            return bi[p], bii[p]    # drain phase: taps pair, no reload
        self.counter = counter + 1
        if q & 1:               # sel = 0: bank II gated, pair tap with live s1
            out = arrival[0], bi[p]
            bi[p] = arrival[1]
            return out
        out = (bi[p], bii[p]) if q else None    # drain pairs, fill loads only
        bi[p], bii[p] = arrival
        return out


# ---------------------------------------------------------------------------
# pipeline pieces

class _PipeStage:
    """The control of one datapath column, timing and routing only: an
    optional hold FIFO and a fully pipelined unit.

    ``hold = 0`` means no FIFO: the pair (x_j, x_{j+N/2}) arriving on one
    cycle goes straight into the unit, higher element first.  Stage 1 of
    each transform and the weighting, pointwise and unweighting multipliers
    are such columns.  Without a ``trace`` sink a stage emits no rows.

    Fire t, counted over the stream, emits the labels (2t, 2t + 1).  By the
    routing law it pairs, higher label first, (2t + d, 2t) when ``t & hold``
    is 0 and (2t + 1, 2t + 1 - d) otherwise, with d = max(1, 2 * hold); by
    the timing law it happens at cycle ``first_fire + t``.  A fire breaking
    either raises :class:`PipelineAssertionError`.  Its twiddle is entry
    (t mod N/2) // per_block of its stage's table.

    The unit holds no state: each tick, once per cycle, sets ``out`` to
    fire k's result, k = cycle - lag - first_fire with lag = latency - 1,
    when fire k has happened (0 <= k < t), and to None otherwise
    (:func:`_law_out`).
    """

    __slots__ = ("label", "fifo", "lag", "hold", "d", "per_block", "n_half",
                 "t", "out", "first_fire", "trace")

    def __init__(self, label, hold, per_block, latency, n_half, trace=None):
        self.label = label
        self.fifo = StageFifo(hold) if hold else None
        self.lag = latency - 1
        self.hold = hold
        self.d = max(1, 2 * hold)
        self.per_block = per_block
        self.n_half = n_half
        self.t = 0
        self.out = None
        self.first_fire = None
        self.trace = trace

    def tick(self, cycle: int, arrival):
        fifo = self.fifo
        if fifo is None:
            pair = None if arrival is None else (arrival[1], arrival[0])
        else:
            pair = fifo.tick(arrival)
        if pair is not None:
            t = self.t
            self.t = t + 1
            # the lower label is 2t or 2t + 1 - d, the higher d above it
            lo = 2 * t + 1 - self.d if t & self.hold else 2 * t
            if pair[1] != lo or pair[0] != lo + self.d:
                raise PipelineAssertionError(
                    f"{self.label}: fire {t} pairs {pair}, "
                    f"not {(lo + self.d, lo)}")
            if not t:
                self.first_fire = cycle
            elif cycle != self.first_fire + t:
                raise PipelineAssertionError(
                    f"{self.label}: fire {t} at cycle {cycle}, "
                    f"not {self.first_fire + t}")
        if self.trace is not None:
            fired_positions = ("", "")
            if pair is not None:
                tp = t % self.n_half
                base = 2 * tp - tp % self.per_block
                fired_positions = (base, base + self.per_block)
            if fifo is not None and fifo.counter:
                self.trace((cycle, self.label, fifo.sel, fifo.counter,
                            *fired_positions))
            elif pair is not None:
                self.trace((cycle, self.label, "", "", *fired_positions))
        self.out = _law_out(self, cycle)


class _TransformGate:
    """Buffers pointwise output until a transform's full block is present.

    The inverse pipeline only starts consuming a product spectrum once all
    N/2 pairs of that transform have arrived, which is what makes the
    first-product latency follow the closed form (a fully streamed handoff
    would shave N/2 + 1 cycles but is not what is being modelled).  The
    first ``_ready`` buffered pairs belong to complete blocks.
    """

    __slots__ = ("n_half", "_pairs", "_ready", "peak_pairs")

    def __init__(self, n_half: int):
        self.n_half = n_half
        self._pairs: deque = deque()
        self._ready = 0
        self.peak_pairs = 0

    def push(self, pair):
        q = self._pairs
        q.append(pair)
        occ = len(q)
        if occ - self._ready == self.n_half:
            self._ready += self.n_half
        if occ > self.peak_pairs:
            self.peak_pairs = occ

    def pop(self):
        if not self._ready:
            return None
        self._ready -= 1
        return self._pairs.popleft()


# ---------------------------------------------------------------------------
# report

@dataclass(frozen=True)
class CycleReport:
    """Measured and predicted figures for one simulated stream."""

    n: int
    mode: str
    butterfly_latency: int
    multiplications: int
    first_ntt_latency: int | None
    first_mul_latency: int | None
    steady_cycles_per_mul: int | None
    regs_per_stage: tuple[int, ...]           # forward pipeline FIFO peaks
    inv_regs_per_stage: tuple[int, ...]       # inverse pipeline FIFO peaks
    fifo_capacity_per_stage: tuple[int, ...]
    inv_fifo_capacity_per_stage: tuple[int, ...]
    total_regs: int                           # 2x forward peaks + inverse peaks
    handoff_peak_pairs: int
    fwd_stage_first_fire: tuple               # first butterfly cycle per stage
    inv_stage_first_fire: tuple
    butterfly_units: int
    predicted_first_ntt: int
    predicted_first_mul: int
    predicted_ntt_regs: int
    predicted_mul_regs: int
    stall_free: bool
    completion_cycles: tuple[int, ...]
    notes: tuple[str, ...]
    schedule_deviations: tuple[str, ...]

    def to_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in asdict(self).items()}


def predicted_first_ntt_latency(n: int) -> int:
    """Cycles from first stage-1 butterfly to the last output of one transform:
    N + log2(N) - 2."""
    _check_n(n)
    return n + (n.bit_length() - 1) - 2


def predicted_first_mul_latency(n: int) -> int:
    """Cycles from first weighting to the last coefficient of the first
    product: 2N + 2*log2(N) - 1."""
    _check_n(n)
    return 2 * n + 2 * (n.bit_length() - 1) - 1


def predicted_ntt_regs(n: int) -> int:
    """Closed-form register count for one transform pipeline:
    N + 2*log2(N) - 2 (hold FIFOs plus two pipeline registers per stage)."""
    _check_n(n)
    return n + 2 * (n.bit_length() - 1) - 2


def predicted_mul_regs(n: int) -> int:
    """Closed-form register count for the full multiplier:
    three transform pipelines plus eight."""
    return 3 * predicted_ntt_regs(n) + 8


def _check_n(n: int):
    if type(n) is not int or n < 4 or n & (n - 1):     # bool included
        raise ValueError(f"N={n!r} must be a power of two >= 4")


# ---------------------------------------------------------------------------
# the simulator

class _TraceWriter:
    """Trace rows as CSV text on an open file: one row as it is produced,
    or a recorded period again over a range of shifts.  The text is what
    ``csv.writer`` writes, ``\\r\\n`` line ends included, because no field
    needs quoting or holds a ``%``: labels are ``[a-z0-9_]`` and every
    other field is an int or ``""``."""

    __slots__ = ("write",)

    def __init__(self, fh):
        self.write = fh.write

    def row(self, row):
        self.write("%s,%s,%s,%s,%s,%s\r\n" % row)

    def repeat(self, rows, shifts):
        """``rows`` once per shift i, with ``cycle`` and a FIFO's
        ``counter`` up by i: one format string with a ``%d`` slot for each
        of those, everything else literal, and one write per shift."""
        fmt, base = [], []
        for c, label, sel, k, lo, hi in rows:
            counted = k != ""
            fmt.append(f"%d,{label},{sel},{'%d' if counted else ''},"
                       f"{lo},{hi}\r\n")
            base += (c, k) if counted else (c,)
        fmt = "".join(fmt)
        for i in shifts:
            self.write(fmt % tuple(map(i.__add__, base)))


def _butterfly_timing(n: int, forward: bool):
    """Per butterfly stage s = 1 ... log2 N, (hold, fires per twiddle): the
    cycles between the arrivals it pairs, N/2**s forward and 2**(s-2)
    inverse (0 at stage 1: one arrival's halves), and N/2**s or 2**(s-1)."""
    return [(0 if s == 1 else n >> s if forward else 1 << s - 2,
             n >> s if forward else 1 << s - 1)
            for s in range(1, n.bit_length())]


def _build_chains(config: PipelineConfig, trace):
    """The datapath's control as two chains of stages, each fed by the one
    before: ``front = [weight, *forward, pointwise]``, whose routing both
    operands take, and ``back = [*inverse, unweight]``.  Butterfly stages
    write rows to ``trace``."""
    n = config.n

    def butterflies(forward: bool, label: str):
        return [_PipeStage(f"{label}{s}", *timing, config.butterfly_latency,
                           n // 2, trace)
                for s, timing in enumerate(_butterfly_timing(n, forward), 1)]

    def multiplier(label):
        return _PipeStage(label, 0, 1, config.scalar_latency, n // 2)

    # Labelled "fwd_a" as when each operand had its own pipeline and only
    # the first was traced, so trace files stay byte-identical.
    front = [multiplier("weight"), *butterflies(True, "fwd_a"),
             multiplier("pointwise")]
    back = [*butterflies(False, "inv"), multiplier("unweight")]
    return front, back


def run_stream(pairs, config: PipelineConfig, *, trace_path=None):
    """Push polynomial pairs through the multiplier back to back.

    ``pairs`` is a sequence of (a, b) coefficient-domain polynomials.  Feeds
    two coefficients of each operand per cycle with no gaps and returns
    ``(products, CycleReport)``.  Untraced, each stage leaves the cycle loop
    once its control state repeats, and its remaining fires, and the
    remaining completions, follow from the timing law; a stream of 1 or 2
    products never repeats, so it is ticked until every product has drained.
    Traced, the loop jumps from its steady state to the last product boundary
    and drains.  Both give one report.  Products are coefficient-domain
    polynomials in input order and must match the schoolbook result exactly.

    One forward chain routes both operands under their shared control; the
    report still counts registers for both hardware pipelines:
    ``total_regs = 2 * forward + inverse``.

    When ``trace_path`` is given, a per-cycle CSV of butterfly-stage
    activity (cycle, stage, sel, counter, emitted pair indices) is streamed
    there: ticked rows as they are produced, and each repeated period as
    one formatted write, so memory holds at most one period's text.  The
    file is closed, and so complete up to the failing cycle, also when a
    :class:`PipelineAssertionError` aborts the run.
    """
    params = config.params
    operands = []
    for a, b in pairs:
        _check_operand(a, params, domain="coefficient", name="a")
        _check_operand(b, params, domain="coefficient", name="b")
        operands.append((a.coeffs, b.coeffs))
    if trace_path is None:
        report = _run_cycles(config, len(operands), None)
    else:
        with open(trace_path, "w", newline="") as fh:
            fh.write("cycle,stage,sel,counter,pair_lo,pair_hi\r\n")
            report = _run_cycles(config, len(operands), _TraceWriter(fh))
    M = params.M
    products = operands and _replay(params, operands, _kernels(
        lambda xs, ys: [x * y % M for x, y in zip(xs, ys)], add, sub))
    return [Polynomial(tuple(c), M) for c in products], report


def _tick_chain(chain, cycle, arrival):
    # reverse dataflow order: every stage reads the output its producer
    # latched on the previous cycle; an empty window ticks nothing
    for s in range(len(chain) - 1, 0, -1):
        chain[s].tick(cycle, chain[s - 1].out)
    if chain:
        chain[0].tick(cycle, arrival)


def _law_out(st, cycle):
    """A stage's output after ``cycle``'s tick by the timing law: fire k's
    labels, k = cycle - lag - first_fire, if 0 <= k < t."""
    k = st.t and cycle - st.lag - st.first_fire
    return (2 * k, 2 * k + 1) if 0 <= k < st.t else None


def _window(chain, first, reach):
    """The stages a cycle ticks: ``chain[first]`` to ``chain[reach]``."""
    return chain[first:reach + 1]


class _Window:
    """``stages``, the stages of one chain that a cycle ticks: none past
    ``reach``, which moves on when the stage at it first emits, and none
    before ``first``, which moves past each stage that has left.  The first
    stage ticked reads ``source(cycle)`` if it is ``chain[0]``, else the
    law output of the stage before it, which has left."""

    __slots__ = ("chain", "source", "first", "reach", "stages")

    def __init__(self, chain, source, reach):
        self.chain, self.source = chain, source
        self.first, self.reach = 0, reach
        self.stages = _window(chain, 0, reach)

    def arrival(self, cycle):
        first = self.first
        return (_law_out(self.chain[first - 1], cycle - 1) if first
                else self.source(cycle))

    def update(self, started=True):
        """While ``reach`` < len(chain), moves it on: from -1 once the
        chain has ``started``, else past a stage that has first emitted,
        which it returns."""
        reach = self.reach
        st = self.chain[reach] if reach >= 0 else None
        if started if st is None else st.out is not None:
            self.reach = reach + 1
            self.stages = _window(self.chain, self.first, reach + 1)
            return st
        return None

    def leave(self, cycle, left, ended, repeats, total):
        """Moves ``first`` past each stage that has left.  A stage whose
        feeder has left (for ``chain[0]``, ``left``) leaves when its state
        repeats (``repeats``), and fires the rest of the stream by the
        timing law: its t becomes ``total``.  It also leaves when its feeder
        has ended (for ``chain[0]``, ``ended``) and it holds nothing."""
        chain, first = self.chain, self.first
        if not (first or left):
            return
        while first <= self.reach and first < len(chain):
            st = chain[first]
            if repeats.get(st):
                st.t = total
            elif not ((_holds_nothing(chain[first - 1], cycle) if first
                       else ended) and _holds_nothing(st, cycle)):
                break
            first += 1
        if first != self.first:
            self.first = first
            self.stages = _window(chain, first, self.reach)


def _holds_nothing(st, cycle):
    """After ``cycle``'s tick, no result at ``out`` and none in flight: the
    stage has not fired, or fire t - 1's result, due at first_fire + t - 1
    + lag, has left.  Then it did not fire, and a FIFO's counter is in the
    fill or a gate phase (a tick into a drain phase fires), where the None
    arrivals that come once its feeder has ended idle it: skipping its
    ticks changes nothing, and live entries left there wedge the run."""
    return not st.t or st.first_fire + st.t - 1 + st.lag < cycle


def _moved(stages, gate, fires):
    """The state the loop reads moved up by ``fires`` fires, as values: gate
    (_ready, pairs) or None, per stage (t, out, FIFO counter and banks, or
    None).  A FIFO holds nothing else: its peak follows from ``counter``."""
    lab = 2 * fires

    def moved(pair):
        return pair and (pair[0] + lab, pair[1] + lab)
    state = [gate and (gate._ready, deque(map(moved, gate._pairs)))]
    for st in stages:
        f = st.fifo
        state.append((st.t + fires, moved(st.out),
                      f and (f.counter + fires,
                             [x + lab for x in f.block_i],
                             [x + lab for x in f.block_ii])))
    return state


def _schedule_law(n, butterfly_latency):
    """The first fires of the forward and the inverse butterfly stages and
    the first completion, in closed form; completion k comes k*N/2 cycles
    after the first.  With L the butterfly latency, S = max(1, L - 2) and
    m = log2 N: F_1 = 1 + S, F_s = F_{s-1} + L + N/2**s; I_1 = F_m + N/2 +
    L + S - 1, I_s = I_{s-1} + L + 2**(s-2); the first completion is I_m +
    N/2 - 1 + (L - 1) + S.

    Column by column: weighting fires first on cycle 1, with the first feed.
    A column's fire leaves its unit latency - 1 cycles later and reaches the
    next column on the cycle after, which fires then, or, behind a FIFO,
    ``hold`` arrivals later, once its fill is done.  The multipliers
    (weighting, pointwise, unweighting) have latency S and the butterfly
    stages L; forward stage s >= 2 holds N/2**s and inverse stage s >= 2
    holds 2**(s-2).  So pointwise fires first at F_m + L, and the gate
    hands its first block over on the cycle after pointwise's fire N/2 - 1
    has left: I_1 = F_m + L + (N/2 - 1) + (S - 1) + 1.  Unweighting fires
    first at I_m + L, and completion k is its fire (k + 1)*N/2 - 1
    leaving, S - 1 cycles later."""
    L = butterfly_latency
    S = max(1, L - ADDSUB_CYCLES)
    fwd, inv = [1 + S], []
    for s in range(2, n.bit_length()):
        fwd.append(fwd[-1] + L + (n >> s))
    inv.append(fwd[-1] + n // 2 + L + S - 1)
    for s in range(2, n.bit_length()):
        inv.append(inv[-1] + L + (1 << s - 2))
    return tuple(fwd), tuple(inv), inv[-1] + n // 2 - 1 + (L - 1) + S


def _run_cycles(config, count, trace):
    """The cycle loop for ``count`` products, position j of product p fed
    as the labels (pN + 2j, pN + 2j + 1): the feed is the law output of a
    stage that fires f at cycle f + 1.  ``trace`` is a :class:`_TraceWriter`
    or None.  Returns the :class:`CycleReport` once every butterfly stage's
    first fire and every completion has matched :func:`_schedule_law`.

    The shift: moving a stage's state up N/2 fires (t and a FIFO's counter
    up N/2, labels up N, as :func:`_moved` does) commutes with N/2 cycles
    of ticks on arrivals moved up N.  The loop never reads a label's value:
    it moves labels, emits (2t, 2t + 1) at fire t and checks that fire t
    pairs 2t plus terms in ``hold`` and ``t & hold``.  2 * hold divides
    N/2, so ``t & hold`` stays, and so do a FIFO's phase bit and tap
    ``counter mod hold``, which with != 0 and < hold (false past its first
    fire) are all it reads of ``counter``.  A stage reads ``t`` also mod
    N/2, as 0, passed at its first fire, and against ``cycle`` in the
    timing law and in ``out``, fire cycle - lag - first_fire's if below t:
    ``first_fire`` is fixed, and ``cycle`` and ``t`` move together.

    Untraced, a stage leaves the loop once its feeder has left (the feed
    counts as left from the start) and its state moved down by its fire
    count t is equal at two successive t that are multiples of N/2 and
    below the total T = count * N/2.  It fires the rest of the stream by
    the timing law: its t becomes T, and its consumer's arrival is its law
    output.  Proof: a stage reads its FIFO and t, and inverse stage 1 the
    gate, which pointwise's law output feeds until inverse stage 1 leaves.
    A feeder that has left emits its law output, two labels up a cycle, so
    with equal states at t1 and t2 = t1 + N/2, the fires from t2 are those
    from t1, which met both laws, shifted, and the state comes back to the
    same, up to the end of the input.  T is a multiple of N/2, so a stream
    of whole transforms ends just as a drain phase starts, where a None
    arrival pairs the taps as a live one would: the last fires repeat too,
    and every stage fires T times.  At t >= N/2 a FIFO is past its fill, so
    every slot holds a live label.  Once unweighting leaves, the loop ends:
    completion j is its fire (j + 1) * N/2 - 1 leaving, at first_fire + lag
    + (j + 1) * N/2 - 1.  A stream of 1 or 2 products has at most one such
    t per stage, so no stage leaves so.  A stage also leaves once its
    feeder has ended and it holds nothing (:func:`_holds_nothing`): its
    ticks would idle it, and its law output is None.

    Traced, every stage that has had an arrival ticks each cycle.  At
    product boundary k, once every stage has fired, the state relative to
    k is: labels minus kN; FIFO ``counter``, stage ``t`` and the collected
    count minus kN/2; ``_ready`` as it is.  If boundary k + 1 repeats k,
    the loop moves the state to the last boundary, repeats the period's
    completion and trace rows (``cycle`` and ``counter`` up N/2 per
    period), and drains.  Proof: by the shift, every later boundary repeats
    k.  At a snapshot each FIFO is past its fill and no None has reached it
    since (its feeder fires on, contiguously), so every slot holds a live
    label: the jump moves banks whole.  The feed and the collected count
    are read mod N/2 and against the total, unreached before the last
    boundary, and ``idle`` is 0 at each boundary the feed reaches.

    Each cycle ticks only each chain's :class:`_Window`.  A skipped tick is
    of a stage that has had no arrival (inverse stage 1 joins at the gate's
    first complete block), or of one that has left, so it changes no state
    that :func:`_moved` or :func:`_build_report` reads, and writes no row.
    """
    n_half = config.n // 2
    period: list = []       # trace rows since the last product boundary

    def record(row):
        trace.row(row)
        period.append(row)

    front, back = _build_chains(config, record if trace else None)
    stages = (*front, *back)
    gate = _TransformGate(n_half)
    total = count * n_half
    feed = _PipeStage("feed", 0, 1, 1, n_half)
    feed.t, feed.first_fire = total, 0
    front_win = _Window(front, lambda cycle: _law_out(feed, cycle - 1), 0)
    back_win = _Window(back, lambda cycle: gate.pop(), -1)
    # a sound run feeds or collects within one product's latency of cycles
    limit = 1000 + 5 * config.n * (
        config.butterfly_latency + config.scalar_latency + 4)
    completions: list[int] = []
    collected = cycle = idle = 0
    state = None
    due: dict = {}          # cycle -> stages whose t is then a multiple of N/2
    snaps, repeats = {}, {}

    def watch(st):
        # st has first emitted: snapshot it at each t = k * N/2 < total
        if st is None or trace is not None:
            return
        at = st.first_fire + n_half - 1
        while at < cycle:
            at += n_half
        if at - st.first_fire + 1 < total:
            due.setdefault(at, []).append(st)

    while collected < total:
        if trace is not None and not cycle % n_half and cycle < total:
            rows, period = period, []   # the period ending here
            if all(st.first_fire is not None for st in stages):
                last, state = state, [collected - cycle,
                                      *_moved(stages, gate, -cycle)]
                if state == last:   # so one completion per period
                    skip = total - cycle
                    shifts = range(n_half, skip + 1, n_half)
                    completions += [completions[-1] + i for i in shifts]
                    trace.repeat(rows, shifts)
                    (_, gate._pairs), *per_stage = _moved(stages, gate, skip)
                    for st, (t, out, f) in zip(stages, per_stage):
                        st.t, st.out = t, out
                        if f:
                            (st.fifo.counter, st.fifo.block_i,
                             st.fifo.block_ii) = f
                    collected, cycle = collected + skip, total
        cycle, idle = cycle + 1, idle + 1
        if idle > limit:
            raise PipelineAssertionError(
                f"no progress after {limit} cycles; schedule wedged")
        if cycle <= total:
            idle = 0        # the feed advances

        # the back chain ticks first, so the gate hands over what was
        # complete before this cycle's pointwise output arrives
        _tick_chain(back_win.stages, cycle, back_win.arrival(cycle))
        if back[-1].out is not None:
            collected, idle = collected + 1, 0
            if not collected % n_half:
                completions.append(cycle)
        _tick_chain(front_win.stages, cycle, front_win.arrival(cycle))
        if not back_win.first:
            # pointwise feeds the gate until inverse stage 1 leaves
            out = (front[-1].out if front_win.first < len(front)
                   else _law_out(front[-1], cycle))
            if out is not None:
                gate.push(out)
        if front_win.reach < len(front):
            watch(front_win.update())
        if back_win.reach < len(back):
            watch(back_win.update(gate._ready))
        # a stage leaves at a snapshot, or drains once the feed has ended
        if trace is None and (cycle in due or cycle >= total):
            for st in due.pop(cycle, ()):
                snap = _moved((st,), gate if st is back[0] else None, -st.t)
                repeats[st] = snap == snaps.get(st)
                snaps[st] = snap
                if st.t + n_half < total:
                    due.setdefault(cycle + n_half, []).append(st)
            front_win.leave(cycle, True, _holds_nothing(feed, cycle),
                            repeats, total)
            back_win.leave(cycle, front_win.first == len(front),
                           not gate._pairs
                           and _holds_nothing(front[-1], cycle),
                           repeats, total)
            if back_win.first == len(back) and repeats.get(back[-1]):
                u = back[-1]
                completions += [u.first_fire + u.lag + (j + 1) * n_half - 1
                                for j in range(len(completions), count)]
                collected = total
    if count:
        fwd, inv, done = _schedule_law(config.n, config.butterfly_latency)
        for st, due in zip((*front[1:-1], *back[:-1]), (*fwd, *inv)):
            if st.first_fire != due:
                raise PipelineAssertionError(
                    f"{st.label}: first fire at cycle {st.first_fire}, "
                    f"not {due} by law")
        for k, c in enumerate(completions):
            if c != done + k * n_half:
                raise PipelineAssertionError(
                    f"product {k} completes at cycle {c}, "
                    f"not {done + k * n_half} by law")
    return _build_report(config, count, front[1:-1], back[:-1], gate,
                         completions, front[0].first_fire)


def _programs(params, forward):
    """Per butterfly stage of one transform, in order: getters of its fires'
    lower and higher elements, its twiddles repeated over their fires and
    its :func:`_kernels` kind.  A list holds label 2t at t and 2t + 1 at
    t + N/2, so :class:`_PipeStage`'s law reads: with k the hold, or N/2
    without a FIFO, fire t pairs the lower element at i = t if ``t & k`` is
    0, else N/2 + t - k, with the higher at i + k."""
    h, progs = params.n // 2, []
    kind, tables = (("ct", params.stage_twiddles_fwd) if forward
                    else ("gs", params.stage_twiddles_inv))
    for (hold, per_block), table in zip(_butterfly_timing(params.n, forward),
                                        tables):
        k = hold or h
        lo = [h + t - k if t & k else t for t in range(h)]
        progs.append((itemgetter(*lo), itemgetter(*[i + k for i in lo]),
                      [w for w in table for _ in range(per_block)],
                      "addsub" if set(table) == {1} else kind))
    return progs


# the (forward, inverse) programs of each live NttParams, freed with it
_PROGRAMS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _replay(params, operands, kernels):
    """The products of ``operands``, (a, b) coefficient sequences, through
    weighting, the forward stages (both operands), pointwise, the inverse
    stages and unweighting: each stage runs its :func:`_programs` entry on
    ``kernels``, and the multiplier columns, which pass fire t's pair on,
    multiply natural-order lists.  Lazy adders keep |x| < (s+1)*M after
    forward stage s (a value plus a product in [0, M)) and |x| < 2**s * M
    after inverse stage s (a sum or difference of two); every multiply, the
    unweighting too, reduces into [0, M), so the products are exact.  The
    programs are built once per ``params``."""
    mul = kernels["mul"]

    def run(progs, x):
        for lo, hi, w, kind in progs:
            first, second = kernels[kind](lo(x), hi(x), w)
            x = first + second
        return x

    progs = _PROGRAMS.get(params)
    if progs is None:
        progs = _PROGRAMS[params] = (_programs(params, True),
                                     _programs(params, False))
    forward, inverse = progs
    products = []
    for a, b in operands:
        xa, xb = (run(forward, mul(x, params.weights_fwd)) for x in (a, b))
        products.append(mul(run(inverse, mul(xa, xb)),
                            params.weights_inv_scaled))
    return products


def _build_report(config, count, fwd, inv, gate, completions, first_feed):
    """The :class:`CycleReport` of a run that returned: every fire met the
    routing and timing laws, so the run is ``stall_free``."""
    n = config.n
    notes = [
        "measured register figures count hold-FIFO occupancy; the closed-form "
        "totals additionally include two pipeline registers per stage",
        "the inverse pipeline starts a transform only after its complete "
        "pointwise block is buffered (n/2 pair handoff), so the first-product "
        "latency follows the closed form instead of a fully streamed overlap",
    ]
    if n == 16:
        notes.append(
            "n=16: the register formula n + 2*log2(n) - 2 gives 22 and the "
            "per-stage capacities sum to the same, yet a figure of 18 has "
            "been reported for this size; both are quoted here unreconciled "
            "and the measured occupancy is reported independently")
    first_ntt = first_mul = None
    if count:   # the timing law puts fire N/2 - 1 at first_fire + N/2 - 1
        first_ntt = fwd[-1].first_fire + n // 2 - fwd[0].first_fire
        first_mul = completions[0] - first_feed + 1
    steady = None
    if len(completions) >= 4:
        # completion k is output (k+1)N/2 - 1 of unweight, whose fires the
        # timing law makes contiguous: every spacing is N/2
        steady = completions[1] - completions[0]
    elif completions:
        notes.append("steady-state spacing needs at least 4 back-to-back "
                     "multiplications; not measured")

    def per_stage(stages, attr):
        # a FIFO figure per stage, 0 for a stage without a hold FIFO
        return tuple(getattr(st.fifo, attr) if st.fifo else 0 for st in stages)

    fwd_peaks = per_stage(fwd, "peak")
    inv_peaks = per_stage(inv, "peak")

    return CycleReport(
        n=n,
        mode=config.mode,
        butterfly_latency=config.butterfly_latency,
        multiplications=count,
        first_ntt_latency=first_ntt,
        first_mul_latency=first_mul,
        steady_cycles_per_mul=steady,
        regs_per_stage=fwd_peaks,
        inv_regs_per_stage=inv_peaks,
        fifo_capacity_per_stage=per_stage(fwd, "capacity"),
        inv_fifo_capacity_per_stage=per_stage(inv, "capacity"),
        # the modelled forward pipeline stands for both hardware copies
        total_regs=2 * sum(fwd_peaks) + sum(inv_peaks),
        handoff_peak_pairs=gate.peak_pairs,
        fwd_stage_first_fire=tuple(st.first_fire for st in fwd),
        inv_stage_first_fire=tuple(st.first_fire for st in inv),
        butterfly_units=3 * config.params.num_stages,
        predicted_first_ntt=predicted_first_ntt_latency(n),
        predicted_first_mul=predicted_first_mul_latency(n),
        predicted_ntt_regs=predicted_ntt_regs(n),
        predicted_mul_regs=predicted_mul_regs(n),
        stall_free=True,
        completion_cycles=tuple(completions),
        notes=tuple(notes),
        schedule_deviations=(),
    )
