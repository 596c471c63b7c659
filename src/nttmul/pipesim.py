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
stage leaves the loop once its state repeats, a period of its own after its
first fire, and fires the rest of the stream by the timing law; traced, the
loop jumps from its steady state to the last product boundary.  Both are
proved in its docstring, and every run ends by checking each stage's first
fire and every completion against closed forms (:func:`_schedule_law`).
The products are :func:`nttmul.polymul.negacyclic_mul_ntt`'s, one call per
pair: :func:`_network_proof` shows, on indices alone and once per N, that
the network the routing law builds from the stages' holds and fires per
twiddle is the constant-geometry network polymul walks, pair for pair and
twiddle for twiddle.  So a run that returns multiplies as polymul does at
every size it runs; that this network multiplies correctly is sampled
against the schoolbook product at N <= 1024 until an exact certificate
exists.  The same inputs and configuration give the same trace.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from functools import cache
from itertools import groupby

# read by perfbench/tracing.count_modmuls, which wraps it by name
from .modarith import karatsuba_mul  # noqa: F401
from .params import NttParams
from .polymul import negacyclic_mul_ntt

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


@cache
def _network_proof(n: int):
    """Shows on indices alone that the butterfly stages of
    :func:`_butterfly_timing` route :mod:`nttmul.polymul`'s network.

    sigma maps a storage index, where fire t of a stage writes label 2t at
    t and 2t + 1 at t + N/2, to polymul's index; the feed puts coefficient
    i at i, so sigma starts as the identity.  By :class:`_PipeStage`'s
    routing law fire t reads the storage indices lo and lo + k, with k the
    hold, or N/2 without a FIFO, and lo = t if ``t & k`` is 0, else
    N/2 + t - k.  Forward, it must read polymul's pair (j, j + N/2) and
    writes 2j, 2j + 1; inverse, it must read (2j, 2j + 1) and writes j,
    j + N/2.  Its twiddle, entry t // per of its stage's table, must be
    polymul's, entry j mod len(table).  Pointwise multiplies the spectra
    at one storage index, so at one polymul index, and unweighting weighs
    storage index i by weight i, so sigma must end as the identity.  A
    break raises :class:`PipelineAssertionError` naming stage and fire."""
    h = n // 2
    sigma = list(range(n))
    for forward, label in ((True, "fwd_a"), (False, "inv")):
        # polymul reads pair j at (j << r, + dr) and writes it to (j << w, + dw)
        r, dr, w, dw = (0, h, 1, 1) if forward else (1, 1, 0, h)
        for s, (hold, per) in enumerate(_butterfly_timing(n, forward), 1):
            k = hold or h
            size = 1 << s - 1 if forward else n >> s    # as build_params has
            out = [None] * n
            for t in range(h):
                lo = h + t - k if t & k else t
                x, y = sigma[lo], sigma[lo + k]
                j = x >> r
                if y != x + dr or x != j << r or t // per != j % size:
                    raise PipelineAssertionError(
                        f"{label}{s}: fire {t} reads polymul's {(x, y)} with "
                        f"twiddle {t // per}, not {(j << r, (j << r) + dr)} "
                        f"with twiddle {j % size}")
                out[t] = j << w
                out[t + h] = (j << w) + dw
            sigma = out
    for i, j in enumerate(sigma):
        if i != j:
            raise PipelineAssertionError(
                f"unweight: storage index {i} holds polymul's {j}, not {i}")


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
    once its control state repeats, a period of its own after its first
    fire, and its remaining fires, and the remaining completions, follow
    from the timing law; a stage whose state cannot repeat before the
    stream ends, as in a stream of one product, is ticked to its last
    result.  Traced, the loop jumps from its steady state to the last
    product boundary and drains.  Both give one report.  Products are
    :func:`~nttmul.polymul.negacyclic_mul_ntt`'s, in input order: the run
    rests on :func:`_network_proof` for its N, which shows that the stages
    route polymul's network, so the products are the pipeline's.  That the
    network multiplies correctly is sampled against the schoolbook product
    at N <= 1024.

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
    _network_proof(config.n)
    products = [negacyclic_mul_ntt(a, b, params) for a, b in pairs]
    if trace_path is None:
        report = _run_cycles(config, len(products), None)
    else:
        with open(trace_path, "w", newline="") as fh:
            fh.write("cycle,stage,sel,counter,pair_lo,pair_hi\r\n")
            report = _run_cycles(config, len(products), _TraceWriter(fh))
    return products, report


def _tick_chain(chain, cycle, arrival):
    # reverse dataflow order: every stage reads the output its producer
    # latched on the previous cycle
    for s in range(len(chain) - 1, 0, -1):
        chain[s].tick(cycle, chain[s - 1].out)
    chain[0].tick(cycle, arrival)


def _law_out(st, cycle):
    """A stage's output after ``cycle``'s tick by the timing law: fire k's
    labels, k = cycle - lag - first_fire, if 0 <= k < t."""
    k = st.t and cycle - st.lag - st.first_fire
    return (2 * k, 2 * k + 1) if 0 <= k < st.t else None


def _window(chain, reach, left):
    """The stages up to ``chain[reach]`` not in ``left``, as runs of
    consecutive stages, each with the index of its first in ``chain``."""
    runs, i = [], 0
    for ticked, run in groupby(chain[:reach + 1], lambda st: st not in left):
        run = list(run)
        if ticked:
            runs.append((i, run))
        i += len(run)
    return runs


class _Window:
    """``runs``, the stages of one chain that a cycle ticks: none past
    ``reach``, which moves on when the stage at it first emits, and none in
    ``left``.  A run's first stage reads ``source(cycle)`` if it is
    ``chain[0]``, else the law output of the stage before it, which has
    left."""

    __slots__ = ("chain", "source", "left", "reach", "runs")

    def __init__(self, chain, source, left):
        self.chain, self.source, self.left = chain, source, left
        self.reach = -1
        self.rebuild()

    def tick(self, cycle):
        for head, run in self.runs:
            _tick_chain(run, cycle, self.source(cycle) if not head
                        else _law_out(self.chain[head - 1], cycle - 1))

    def update(self, cycle, started=True):
        """Moves ``reach`` on by one: from -1 once the chain has
        ``started``, else past a stage whose law output after ``cycle``'s
        tick is not None.  Returns the stage it reaches."""
        reach = self.reach
        if (_law_out(self.chain[reach], cycle) is not None if reach >= 0
                else started):
            self.reach = reach + 1
            self.rebuild()
            return self.chain[reach + 1]
        return None

    def rebuild(self):
        self.runs = _window(self.chain, self.reach, self.left)


def _moved(stages, gate, fires):
    """The state the loop reads moved up by ``fires`` fires, as values: gate
    (_ready, pairs) or None, per stage (t, FIFO counter and banks, or
    None).  A FIFO holds nothing else: its peak follows from ``counter``;
    nor does a unit: ``out`` follows from t and the cycle."""
    lab = 2 * fires
    state = [gate and (gate._ready, deque((a + lab, b + lab)
                                          for a, b in gate._pairs))]
    for st in stages:
        f = st.fifo
        state.append((st.t + fires,
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

    The shift: moving a stage's state up P fires (t and a FIFO's counter
    up P, labels up 2P, as :func:`_moved` does) commutes with P cycles of
    ticks on arrivals moved up 2P, if P is a multiple of the stage's
    period: 2 * hold behind a FIFO, 1 without one, and N/2 for inverse
    stage 1 with the gate it reads.  The loop never reads a label's value:
    it moves labels, emits (2t, 2t + 1) at fire t and checks that fire t
    pairs 2t plus terms in ``hold`` and ``t & hold``.  So ``t & hold``
    stays, and so do a FIFO's phase bit and tap ``counter mod hold``, which
    with != 0 and < hold (false past its first fire) are all it reads of
    ``counter``.  A stage reads ``t`` also as 0, passed at its first fire,
    mod N/2 in trace rows, and against ``cycle`` in the timing law and in
    ``out``, fire cycle - lag - first_fire's if below t: ``first_fire`` is
    fixed, and ``cycle`` and ``t`` move together.

    Untraced, each stage is snapshot at its first fire and every P fires
    after, while t is below the total T = count * N/2: its state moved
    down by t, less ``out``, which its ticks do not read.  A snapshot
    counts only if t is then its timing-law count, cycle - first_fire + 1
    (c), and the stage leaves the loop at the first equal to the one
    before.  A stage that has left is not ticked, its t becomes T, and the
    stage after it reads its law output.  A stage also leaves once its fire
    T - 1's result has left ``out``: its ticks would idle it.  The loop
    ends only when every stage has left (a) and every result is collected.
    When unweighting leaves at a repeat, its remaining completions follow
    by law (completion j is its fire (j + 1)N/2 - 1 leaving, at first_fire
    + lag + (j + 1)N/2 - 1) and count as collected, but they reset no
    wedge counter and end no loop (b).  Proof that every stage fires T
    times by both laws, and so emits its law output on every cycle, by
    induction along each chain: the feed does.  Let a stage's feeder do so
    (for inverse stage 1, pointwise, whose law output feeds the gate until
    inverse stage 1 leaves).  Its ticked fires were checked.  If it left at
    a repeat, its input is invariant under the shift from its first fire
    on, so with equal states P fires apart, both on its law by (c), the
    fires that follow are those P fires before, which met both laws,
    shifted, and the state comes back to the same, up to the end of the
    input.  T is a multiple of N/2 and so of P: a stream of whole
    transforms ends just as a drain phase starts, where a None arrival
    pairs the taps as a live one would, so the last fires repeat too, and
    the stage fires T times.  At t >= 1 a FIFO is past its fill, so every
    slot holds a live label.  The induction needs each feeder to leave,
    also after its consumer has, which (a) gives: a stage that stops firing
    falls behind its law for good, so no later snapshot of it counts and it
    never makes T fires, and the loop wedges (b).

    Traced, every stage that has had an arrival ticks each cycle.  At
    product boundary k, once every stage has emitted, the state relative to
    k is: labels minus kN; FIFO ``counter``, stage ``t`` and the collected
    count minus kN/2; ``_ready`` as it is; ``out`` moves with ``t``.  If
    boundary k + 1 repeats k, the loop moves the state to the last
    boundary, repeats the period's completion and trace rows (``cycle`` and
    ``counter`` up N/2 per period), and drains.  Proof: by the shift with P
    = N/2, every later boundary repeats k.  At a snapshot each FIFO is past
    its fill and no None has reached it since (its feeder fires on,
    contiguously), so every slot holds a live label: the jump moves banks
    whole.  The feed and the collected count are read mod N/2 and against
    the total, unreached before the last boundary, and ``idle`` is 0 at
    each boundary the feed reaches.

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
    left: set = set()       # stages that have left the loop
    front_win = _Window(front, lambda cycle: _law_out(feed, cycle - 1), left)
    back_win = _Window(back, lambda cycle: gate.pop(), left)
    # a sound run feeds or collects within one product's latency of cycles
    limit = 1000 + 5 * config.n * (
        config.butterfly_latency + config.scalar_latency + 4)
    completions: list[int] = []
    collected = cycle = idle = 0
    state = None
    due: dict = {}          # cycle -> stages to snapshot after its tick
    snaps = {}
    to_leave = len(stages) if count and trace is None else 0     # (a)

    def watch(st):
        # st's first arrival comes next cycle, its first fire hold later
        if st is not None and trace is None:
            due.setdefault(cycle + 1 + st.hold, []).append(st)

    def leave(st):
        left.add(st)
        front_win.rebuild()
        back_win.rebuild()

    watch(front_win.update(cycle))
    while collected < total or len(left) < to_leave:
        if trace is not None and not cycle % n_half and cycle < total:
            rows, period = period, []   # the period ending here
            if all(st.t and st.first_fire + st.lag <= cycle for st in stages):
                last, state = state, [collected - cycle,
                                      *_moved(stages, gate, -cycle)]
                if state == last:   # so one completion per period
                    skip = total - cycle
                    shifts = range(n_half, skip + 1, n_half)
                    completions += [completions[-1] + i for i in shifts]
                    trace.repeat(rows, shifts)
                    (_, gate._pairs), *per_stage = _moved(stages, gate, skip)
                    for st, (t, f) in zip(stages, per_stage):
                        st.t = t
                        st.out = _law_out(st, total)
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
        back_win.tick(cycle)
        if back[-1].out is not None and back[-1] not in left:     # (b)
            collected, idle = collected + 1, 0
            if not collected % n_half:
                completions.append(cycle)
        front_win.tick(cycle)
        if back[0] not in left:
            out = (_law_out(front[-1], cycle) if front[-1] in left
                   else front[-1].out)
            if out is not None:
                gate.push(out)
        if front_win.reach < len(front) - 1:
            watch(front_win.update(cycle))
        if back_win.reach < len(back) - 1:
            watch(back_win.update(cycle, gate._ready))
        for st in due.pop(cycle, ()):
            if st.t and st.first_fire + st.t - 1 == cycle:     # (c)
                snap = _moved((st,), gate if st is back[0] else None, -st.t)
                if snap == snaps.get(st):
                    st.t = total
                    leave(st)
                    if st is back[-1]:
                        completions += [
                            st.first_fire + st.lag + (j + 1) * n_half - 1
                            for j in range(len(completions), count)]
                        collected = total
                    continue
                snaps[st] = snap
                step = n_half if st is back[0] else st.d
                if st.t + step < total:
                    due.setdefault(cycle + step, []).append(st)
        if len(left) < to_leave and cycle >= total:
            for _, run in (*front_win.runs, *back_win.runs):
                for st in run:
                    if st.t == total and cycle > (
                            st.first_fire + total - 1 + st.lag):
                        leave(st)
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
