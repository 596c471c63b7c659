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
one, as is stage 1 of each transform.  The datapath is one row of such
columns, ``[weight, *forward, pointwise, *inverse, unweight]``, stated once
with each column's label, hold and fires per twiddle (:func:`_columns`).
A buffer between pointwise and inverse stage 1 hands over one complete
transform block at a time: as the stream has no gaps, inverse stage 1
reads pointwise's output N/2 - 1 cycles later than a column reads its
feeder's, and the buffer holds N/2 pairs at its peak.

``schedule`` mode collapses all latencies to one cycle so the cycle counts
match the closed-form expressions (:func:`predicted_first_ntt_latency` and
friends); ``structural`` mode uses multi-cycle unit latencies, which
stretches the fill latency but must not change throughput.

The schedule does not depend on the data, so the stages carry control only:
:func:`_run_cycles` routes position labels and checks every fire it ticks
against a routing and a timing law (:class:`_PipeStage`).  It proves the
stages one at a time in dataflow order, each started on its first arrival
by the closed forms of :func:`_schedule_law`, the one statement of the
unit latencies and of the block hand-over, and ticked alone on its
feeder's output by the timing law until its state repeats, a period of its
own after its first fire; the rest of its stream follows by the timing
law, as its docstring proves.  A stage first fires on its law's cycle or
raises: no fire before it is routed right, and a stage that has not fired
by then is short of its law.  So a run that returns is on the law, its
completions included, and its report (:func:`_build_report`) and its trace
(:func:`write_trace`, one run of rows per column, written in chunks of at
most N/2 cycles) are built from :func:`_schedule_law` and the column table
of :func:`_columns` alone.  The proof reads only N, not the operands,
the tables, the butterfly latency or the number of products: the latency
only translates each stage's walk, and every stream of two or more
products walks as one of two up to each stage's repeat.  So
:func:`_schedule_proof` walks streams of one and two products once per
N, when a :class:`PipelineConfig` is built, and a config whose proof
raises is never built; a traced ``nttmul sim`` then leaves the file with
the laws' rows up to the failing cycle and column.
The products are :func:`nttmul.polymul.naive_negacyclic_mul`'s, one call
per pair, and a chain of proofs makes them the pipeline's at every size:
the stages fire as the routing law states; :func:`_network_proof` walks,
on indices alone and once per N, the network the law builds from the
stages' holds and fires per twiddle, and shows that it is a tree of CRT
splits; :func:`_table_proof` shows that the tables hold the powers the
splits need, so the network computes a*b mod x**N + 1 for every input;
both run when a :class:`PipelineConfig` is built, beside the schedule
proof, so a config exists only for a proved schedule, network and table
set; and the schoolbook product, by
two-point Kronecker substitution, is exact by its slot bound: with B the
smallest multiple of M at or above N*(M-1)**2, each wrapped slot
s_k - s_{k+N} + B of either half, even or odd k, lies in [0, 2B], so no
slot carries or borrows, for every coefficient below M < 2**64.  The
schedule and index proofs hold per N and the table check per config;
primality of M, which none uses, is decided exactly below 2**64 by
:func:`nttmul.params.ring_problem`.  The same inputs and configuration
give the same trace.
"""

from __future__ import annotations

from functools import cache

from . import polymul
from ._frozen import Frozen
# read by perfbench/tracing.count_modmuls, which wraps it by name
from .modarith import karatsuba_mul  # noqa: F401
from .params import NttParams

# structural-mode stage depths of one butterfly unit
KARATSUBA_CYCLES = 6
REDUCE_CYCLES = 4
ADDSUB_CYCLES = 2
MAX_BUTTERFLY_LATENCY = 1024


class PipelineAssertionError(RuntimeError):
    """A fire misrouted or came off its cycle, a stage fell short of its
    law, the stages' network is not a tree of CRT splits, or the tables
    are not the powers the network needs.

    Any of these means the stage schedule is broken; they cannot happen for
    a correctly configured run and are never silently absorbed.  ``stop``
    is None but on a break of the schedule proof (:func:`_run_cycles`),
    where it is (k, offset): the failing column's place k in tick order
    and the failing cycle's offset from that column's first arrival by
    law, so :func:`write_trace` places it at any latency and count.  A
    :class:`PipelineConfig` whose schedule proof breaks sets
    ``butterfly_latency`` on the error to its own, resolved one, the
    latency whose rows a traced run writes up to ``stop``.
    """

    stop = butterfly_latency = None


class PipelineConfig(Frozen):
    """Simulation setup for one (M, N) instance.

    ``mode`` is ``"schedule"`` (all unit latencies one cycle, cycle counts
    match the closed forms) or ``"structural"`` (deep arithmetic pipelines).
    ``butterfly_latency`` defaults to 1 / karatsuba+reduce+addsub cycles
    respectively; :func:`_schedule_law` gives the units' latencies from it,
    the multipliers' (weight, pointwise, unweight) included.  It is at
    most ``MAX_BUTTERFLY_LATENCY``, 85 times the modelled unit, since the
    fill, and with it the rows a traced run writes, grows with it.  The
    schedule proof does not: it walks at latency 1, each stage ticked from
    its first arrival for at most hold + 1 + its period cycles, or to its
    last fire in a stream too short to repeat, and a stage short of its
    law raises at its first snapshot behind the timing law, or past its
    last snapshot on the cycle after its last fire was due
    (:func:`_run_cycles`).

    Building a config runs :func:`_network_proof` and
    :func:`_schedule_proof` for ``n``, each once per N in a process, and
    :func:`_table_proof` for ``params``, as a ``ModulusContext`` certifies
    its Barrett constants: a config exists only for a schedule that holds
    at every latency and stream length, a network that is a tree of CRT
    splits and tables that hold the powers it needs, or building it raises
    :class:`PipelineAssertionError`.
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
        _network_proof(self.n)
        try:
            _schedule_proof(self.n)
        except PipelineAssertionError as e:
            e.butterfly_latency = self.butterfly_latency
            raise
        _table_proof(self.params)


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
    The FIFO checks no gap: its input is its feeder's output by the timing
    law, which keeps the feeder's fires contiguous, so an arrival late
    after a gap makes its stage's next fire late or misrouted, which
    raises.  A stream of whole transforms ends just as a drain phase
    starts; one cut short leaves its stage short of its law, which raises.
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
    are such columns.

    Fire t, counted over the stream, emits the labels (2t, 2t + 1).  By the
    routing law it pairs, higher label first, (2t + d, 2t) when ``t & hold``
    is 0 and (2t + 1, 2t + 1 - d) otherwise, with d = max(1, 2 * hold); by
    the timing law it happens at cycle ``first + t``, ``first`` the
    column's first fire by :func:`_schedule_law`.  A fire breaking either
    raises :class:`PipelineAssertionError`.  Its twiddle is entry
    (t mod N/2) // per of its stage's table, with ``per`` its fires per
    twiddle (:func:`_columns`).

    The unit holds no state, nor does the stage know its latency: fire
    k's labels leave it as the next column's arrival k, on the cycles
    :func:`_schedule_law` states.  Fire 0 pairs label d, which comes in
    arrival ``hold``, so no fire before the first arrival + hold, when a
    FIFO's fill ends, keeps the routing law.
    """

    __slots__ = ("label", "fifo", "hold", "d", "t", "first")

    def __init__(self, label, hold, first):
        self.label = label
        self.fifo = StageFifo(hold) if hold else None
        self.hold = hold
        self.d = max(1, 2 * hold)
        self.t = 0
        self.first = first

    def tick(self, cycle: int, arrival):
        fifo = self.fifo
        pair = fifo.tick(arrival) if fifo else arrival and arrival[::-1]
        if pair is not None:
            t = self.t
            self.t = t + 1
            # the lower label is 2t or 2t + 1 - d, the higher d above it
            lo = 2 * t + 1 - self.d if t & self.hold else 2 * t
            if pair[1] != lo or pair[0] != lo + self.d:
                raise PipelineAssertionError(
                    f"{self.label}: fire {t} pairs {pair}, "
                    f"not {(lo + self.d, lo)}")
            if cycle != self.first + t:
                raise PipelineAssertionError(
                    f"{self.label}: fire {t} at cycle {cycle}, "
                    f"not {self.first + t}")


# ---------------------------------------------------------------------------
# report

class CycleReport(Frozen):
    """Measured and predicted figures for one simulated stream."""

    n: int
    mode: str
    butterfly_latency: int
    multiplications: int
    first_ntt_latency: int | None
    first_mul_latency: int | None
    steady_cycles_per_mul: int | None
    # FIFO peaks by law: 2*hold per butterfly stage for a stream with
    # products, as the fill loads both banks before the first fire, 0
    # without; stage 1 has no FIFO and reads 0
    regs_per_stage: tuple[int, ...]           # forward pipeline
    inv_regs_per_stage: tuple[int, ...]       # inverse pipeline
    fifo_capacity_per_stage: tuple[int, ...]  # 2*hold, both banks
    inv_fifo_capacity_per_stage: tuple[int, ...]
    total_regs: int                           # 2x forward peaks + inverse peaks
    handoff_peak_pairs: int                   # one block, N/2, or 0
    fwd_stage_first_fire: tuple               # by _schedule_law, or None each
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
                for k, v in zip(self._fields, self._values())}


def predicted_first_ntt_latency(n: int) -> int:
    """Cycles from first stage-1 butterfly to the last output of one transform:
    N + log2(N) - 2, :func:`_first_latencies` at butterfly latency 1."""
    return _first_latencies(n, 1)[0]


def predicted_first_mul_latency(n: int) -> int:
    """Cycles from first weighting to the last coefficient of the first
    product: 2N + 2*log2(N) - 1, :func:`_first_latencies` at butterfly
    latency 1."""
    return _first_latencies(n, 1)[1]


def predicted_ntt_regs(n: int) -> int:
    """Closed-form register count for one transform pipeline:
    N + 2*log2(N) - 2 (hold FIFOs plus two pipeline registers per stage)."""
    _check_n(n)
    return n + 2 * (n.bit_length() - 1) - 2


def predicted_mul_regs(n: int) -> int:
    """Closed-form register count for the full multiplier:
    three transform pipelines plus eight."""
    return 3 * predicted_ntt_regs(n) + 8


def _first_latencies(n, butterfly_latency):
    """(first transform, first product) latency by :func:`_schedule_law`,
    both counted inclusively: from the last forward stage's fire N/2 - 1,
    at its first fire + N/2 - 1, back to forward stage 1's first fire, and
    from the first completion back to weighting's first fire, on cycle 1.
    Refuses an N that is not a power of two >= 4."""
    _check_n(n)
    firsts, done = _schedule_law(n, butterfly_latency)
    # column s is forward stage s, for s = 1 ... log2 N
    return firsts[n.bit_length() - 1] + n // 2 - firsts[1], done


def _check_n(n: int):
    if type(n) is not int or n < 4 or n & (n - 1):     # bool included
        raise ValueError(f"N={n!r} must be a power of two >= 4")


# ---------------------------------------------------------------------------
# the simulator

@cache
def _columns(n: int):
    """The datapath's columns in dataflow order, each as (label, hold, fires
    per twiddle): weighting, forward stages 1 ... log2 N, pointwise,
    inverse stages 1 ... log2 N and unweighting.  A butterfly stage s holds
    for the cycles between the arrivals it pairs, N/2**s forward and
    2**(s-2) inverse (0 at stage 1: one arrival's halves), and fires
    N/2**s or 2**(s-1) times per twiddle.  A multiplier has no hold and
    ``per`` 0, as it reads no stage table."""
    # Labelled "fwd_a" as when each operand had its own pipeline and only
    # the first was traced, so trace files stay byte-identical.
    return (("weight", 0, 0),
            *((f"fwd_a{s}", 0 if s == 1 else n >> s, n >> s)
              for s in range(1, n.bit_length())),
            ("pointwise", 0, 0),
            *((f"inv{s}", 0 if s == 1 else 1 << s - 2, 1 << s - 1)
              for s in range(1, n.bit_length())),
            ("unweight", 0, 0))


@cache
def _network_proof(n: int):
    """Shows on indices alone that the butterfly columns of
    :func:`_columns`, walked in dataflow order, build a tree of CRT splits
    (Pollard 1971; Longa and Naehrig 2016).  Returns the exponents of
    omega that the stage tables must hold, forward and inverse, for
    :func:`_table_proof` to check.

    The walk runs in storage coordinates: fire t of a stage writes label
    2t at storage index t and 2t + 1 at t + N/2, and the feed puts
    coefficient i at i.  By :class:`_PipeStage`'s routing law fire t reads
    the storage indices lo and lo + k, with k the hold, or N/2 without a
    FIFO, and lo = t if ``t & k`` is 0, else N/2 + t - k.  Exponents of
    omega are taken mod N, as omega**N = 1 and omega**(N/2) = -1.  Storage
    index i carries (e, c): coefficient c of the residue mod x**L -
    omega**e of the weighted operand, or, in the inverse stages, L times
    that coefficient of the weighted product.  It starts as (0, i), at
    L = N.  A forward fire must read (e, c) and (e, c + L/2) with e even;
    with the twiddle omega**(e/2), its sum and difference are the residues
    mod x**(L/2) -+ omega**(e/2), so it writes (e/2, c) and (e/2 + N/2, c),
    and L halves over the stage.  At L = 1 a residue is a value, and
    pointwise multiplies the two operands' values at one storage index.
    An inverse fire must read (e, c) and (e + N/2, c); with the twiddle
    omega**-e, its sum and twiddled difference are twice coefficients c
    and c + L of the residue mod x**(2L) - omega**(2e), so it writes
    (2e, c) and (2e, c + L), and L doubles over the stage.  The walk
    tracks L itself rather than reading it from a column's ``per``, so a
    column whose fires per twiddle are wrong breaks a split where it
    stands.  Fire t's twiddle is entry t // per of its stage's table, and
    the fires that share an entry must need one exponent of it; a stage's
    needs are its entries in order.  Each step is an identity of
    polynomials over Z/M, so when storage index i ends as (0, i), which
    unweighting weighs by weight i, the inverse stages leave N times
    coefficient i of the weighted product mod x**N - 1.  A break raises
    :class:`PipelineAssertionError` naming the column, and the fire if it
    is a read."""
    h, m = n // 2, n.bit_length() - 1
    cell, L, needs = [(0, i) for i in range(n)], n, []
    for i, (label, hold, per) in enumerate(_columns(n)):
        if not per:
            continue        # a multiplier: weighting, pointwise, unweighting
        forward = i <= m
        k, out, need = hold or h, [None] * n, []
        for t in range(h):
            lo = h + t - k if t & k else t
            (e, c), (ey, cy) = cell[lo], cell[lo + k]
            if forward:
                f = e >> 1
                split = e == ey == 2 * f and cy == c + L // 2
                out[t], out[t + h] = (f, c), (f + h, c)
            else:
                f = -e % n
                split = ey == (e + h) % n and cy == c
                out[t], out[t + h] = (2 * e % n, c), (2 * e % n, c + L)
            if not t % per:
                need.append(f)
            if not split or need[-1] != f:
                raise PipelineAssertionError(
                    f"{label}: fire {t} reads {cell[lo]} and "
                    f"{cell[lo + k]} at L = {L} needing omega**{f} from "
                    f"twiddle {t // per}: not a CRT split with one "
                    "exponent per twiddle")
        cell, L = out, L // 2 if forward else 2 * L
        needs.append(tuple(need))
    # label is the last column's, unweighting's
    for i, x in enumerate(cell):
        if x != (0, i):
            raise PipelineAssertionError(
                f"{label}: storage index {i} ends as {x}, not {(0, i)}")
    return tuple(needs[:m]), tuple(needs[m:])


def _powers(x, first, n, M):
    """first * x**i mod M for i < n, first as given."""
    out = [first]
    for _ in range(n - 1):
        out.append(out[-1] * x % M)
    return tuple(out)


def _table_proof(params: NttParams):
    """Checks a table set against what :func:`_network_proof` needs, once
    per :class:`PipelineConfig`, when it is built: then the stages'
    network, between the weighting and unweighting multipliers, computes
    a*b mod x**N + 1 on these tables for every input.

    phi**N = -1 and omega = phi**2 give omega**N = 1 and omega**(N/2) = -1,
    which the CRT walk uses.  Each stage table must be the powers of omega
    the walk needs, and ``weights_fwd`` must be phi**i: the weighted
    operand is a(phi*x), whose product mod x**N - 1 is that of a*b mod
    x**N + 1 at phi*x, as (phi*x)**N = -x**N.  Coefficient i of it is
    phi**i*c_i, so ``weights_inv_scaled`` must be n_inv * phi_inv**i, where
    N * n_inv = 1 and phi * phi_inv = 1; and omega * omega_inv = 1.  The
    tables are read, never derived.  None of these identities needs M
    prime; primality is left to :func:`nttmul.params.ring_problem`.  A
    break raises :class:`PipelineAssertionError` naming the law or the
    table."""
    n, M, phi, omega = params.n, params.M, params.phi, params.omega
    for law, holds in (
            ("phi**N = -1", pow(phi, n, M) == M - 1),
            ("omega = phi**2", omega == phi * phi % M),
            ("phi * phi_inv = 1", phi * params.phi_inv % M == 1),
            ("omega * omega_inv = 1", omega * params.omega_inv % M == 1),
            ("N * n_inv = 1", n * params.n_inv % M == 1)):
        if not holds:
            raise PipelineAssertionError(f"tables: {law} fails")
    root = _powers(omega, 1, n, M)
    for key, want in (
            ("weights_fwd", _powers(phi, 1, n, M)),
            ("weights_inv_scaled", _powers(params.phi_inv, params.n_inv, n, M)),
            *((f"stage_twiddles_{d}", tuple(tuple(root[e] for e in stage)
                                            for stage in needs))
              for d, needs in zip(("fwd", "inv"), _network_proof(n)))):
        if getattr(params, key) != want:
            raise PipelineAssertionError(
                f"tables: {key} is not what the network needs")


def run_stream(pairs, config: PipelineConfig, *, trace_path=None):
    """Push polynomial pairs through the multiplier back to back.

    ``pairs`` is a sequence of (a, b) coefficient-domain polynomials.  Feeds
    two coefficients of each operand per cycle with no gaps and returns
    ``(products, CycleReport)``.  It proves nothing: the config was built,
    so :func:`_schedule_proof` has shown, once for its N, that every stage
    fires on the routing and timing laws at every latency and for every
    stream length, and :class:`PipelineConfig` has proved that the stages'
    network is a tree of CRT splits and that on its tables it computes
    a*b mod x**N + 1 for every input.  So the report is the law's for the
    config and the stream's length (:func:`_build_report`), and the
    products, :func:`~nttmul.polymul.naive_negacyclic_mul`'s in input
    order, one call each through the module, are the pipeline's.

    One row of forward stages routes both operands under their shared
    control; the report still counts registers for both hardware
    pipelines: ``total_regs = 2 * forward + inverse``.

    When ``trace_path`` is given, a per-cycle CSV of butterfly-stage
    activity (cycle, stage, sel, counter, emitted pair indices) is written
    there by :func:`write_trace`, from the closed forms of
    :func:`_schedule_law` and the column table of :func:`_columns`, in
    chunks of at most N/2 cycles, each written in one join of runs of field
    text, so memory holds one chunk's text and a table of decimal strings
    spanning at most the fill and N/2 cycles.  A traced and an untraced run
    give one report.
    """
    # through the module, so a wrapper of the oracle sees every call
    products = [polymul.naive_negacyclic_mul(a, b, config.params)
                for a, b in pairs]
    if trace_path is not None:
        write_trace(trace_path, config.n, config.butterfly_latency,
                    len(products))
    return products, _build_report(config, len(products))


def _moved(st):
    """The state a stage's proof reads moved down by its fire count t, as
    a value: the FIFO counter and banks, or None without a FIFO.  A FIFO
    holds nothing else, nor does a unit: its output follows from t and the
    cycle."""
    f, lab = st.fifo, 2 * st.t
    return f and (f.counter - st.t, [x - lab for x in f.block_i + f.block_ii])


def _schedule_law(n, butterfly_latency):
    """Every column's first fire, in :func:`_columns`'s dataflow order,
    and the first completion, in closed form; completion k comes k*N/2
    cycles after the first.  With L the butterfly latency and S = max(1,
    L - 2), a butterfly stage's unit has latency L and a multiplier's
    (weighting, pointwise, unweighting) S.

    The walk goes column by column.  Weighting's first arrival is the
    first feed, on cycle 1.  A column fires first ``hold`` cycles after its
    first arrival, once its fill is done, or on it without a FIFO; its fire
    leaves its unit latency - 1 cycles later and reaches the next column
    on the cycle after, so the next first arrival is the first fire plus
    the latency.  Inverse stage 1 takes its first block from the buffer on
    the cycle after pointwise's fire N/2 - 1 has left, when that block is
    complete: N/2 - 1 cycles later than a column's first arrival.
    Completion k is unweighting's fire (k + 1)*N/2 - 1 leaving, at its
    first fire + (k + 1)*N/2 - 1 + S - 1.  This is the model's one
    statement of the unit latencies and of the hand-over: :func:`_run_cycles`
    starts each stage on the first arrival it gives."""
    S = max(1, butterfly_latency - ADDSUB_CYCLES)
    firsts, arrival = [], 1                 # weighting's first arrival
    for label, hold, per in _columns(n):
        firsts.append(arrival + hold)
        arrival = firsts[-1] + (butterfly_latency if per else S)
        if label == "pointwise":    # inverse stage 1 reads whole blocks
            arrival += n // 2 - 1
    # unweighting's fire 0 leaves at arrival - 1, and completion 0, its
    # fire N/2 - 1, N/2 - 1 cycles later
    return tuple(firsts), arrival + n // 2 - 2


def write_trace(path, n, butterfly_latency, count, stop=None):
    """Writes the trace file ``path`` of ``count`` products at N = ``n``:
    the CSV header and the rows by their closed forms, each butterfly
    column's label, hold and fires per twiddle by :func:`_columns` and its
    first fire by :func:`_schedule_law`; the multipliers write no rows.
    It writes every cycle up to the first completion's cycle plus
    ``count - 1`` periods, or, with ``stop = (k, offset)``, k the failing
    column's place in tick order, up to that column's first arrival by law
    plus ``offset``: the cycles before it and its rows of the k columns a
    cycle ticks before the failing one, those after it in dataflow order.
    A stop past the last cycle keeps the whole trace.

    A stage with hold h, fires per twiddle ``per`` and first fire F fires
    t < T = count * N/2 at cycle F + t, and with tp = t mod N/2 and base =
    2tp - tp mod ``per`` emits the pair fields (base, base + ``per``).
    Behind a FIFO it writes a row on every cycle c from its first arrival,
    F - h, with the counter k = min(c - F + h + 1, T + h), the arrivals
    and then the drain's None arrivals it has counted, and sel 1 - (k // h
    mod 2); without one (stage 1) it writes a row only on the cycles it
    fires.  Within a cycle rows go in tick order, reverse dataflow order:
    inverse stages from the last to the first, then forward stages from
    the last to the first.

    So a column writes one run of rows, and between the cycles where a
    column starts, first fires or stops firing, each of its fields is a
    run too: ``cycle`` and ``counter`` go up one a cycle, or ``counter``
    stands at T + h once the column has stopped firing; ``label,sel``
    repeats with period 2h, which divides N/2, and ``pair_lo,pair_hi``
    with period N/2, empty outside the fires.  The cycles go in chunks of
    at most N/2, cut at those cycles, and in a chunk every field is a
    constant or a slice: of a tape of two periods of N/2, or of a table of
    the decimal strings of the ints from a - R to the chunk's last cycle,
    with a its first cycle and R the last first fire by the law.  That
    table holds every counter, c - (F - h - 1) on cycle c, and converts
    each int once over the run.  Between two cuts, every full chunk reads
    the same tape slices and constants, as it starts N/2 cycles after the
    last, and its cycles and counters from the same table offsets, as the
    table slides with the chunks.  So the fields of a segment's columns
    are interleaved, by strided slice assignment, into one list when the
    segment starts and again for its shorter last chunk, and each chunk
    assigns only its cycle and counter slices there and writes the list in
    one join: memory holds one chunk's fields and R + N/2 strings.  The
    text is what ``csv.writer`` writes, ``\r\n`` line ends included,
    because no field needs quoting: labels are ``[a-z0-9_]`` and every
    other field is an int or empty.  No products, no rows."""
    n_half, total = n // 2, count * n // 2
    firsts, done = _schedule_law(n, butterfly_latency)
    end, keep = done + total - n_half, len(firsts)
    cols, marks, blank = [], set(), [",,\r\n"] * n_half
    # tick order, the dataflow order reversed.  Both tapes run over two
    # periods of N/2 cycles: label,sel by the counter, as 2h divides N/2,
    # and the pair fields by the fire
    for (label, h, per), first in zip(_columns(n)[::-1], firsts[::-1]):
        heads = (([f",{label},1,"] * h + [f",{label},0,"] * h) * (n_half // h)
                 if h else [f",{label},,"] * n)
        pairs = [f",{2 * i - i % per},{2 * i - i % per + per}\r\n"
                 for i in range(n_half) if per]
        cols.append((h, per, first, heads, pairs + pairs))
        marks.update((first - h, first, first + total))
    if stop:    # column k in tick order, ``offset`` past its first arrival
        h, _, first, *_ = cols[stop[0]]
        end, keep = min((end, keep), (first - h + stop[1], stop[0]))
    marks = sorted(c for c in marks | {end} if c <= end)
    # no counter is below c - reach on cycle c: the table holds the strings
    # of the ints from a - reach to the chunk's end
    reach = max(firsts)
    table = list(map(str, range(marks[0] - reach, marks[0])))

    def layout(a, ln, cols):
        # the fields of the cycles a ... a + ln - 1 but the cycles and
        # counters, and the (field, table offset) pairs that fill those; a
        # chunk of ln = N/2 cycles later in the segment reads the same
        live = [(h, first, heads, pairs) for h, per, first, heads, pairs
                in cols if per and -h <= a - first and (a - first < total or h)]
        w = 4 * len(live)
        out, fill = [None] * (w * ln), []
        for i, (h, first, heads, pairs) in zip(range(0, w, 4), live):
            t, k = a - first, (a - first + h + 1) % n_half
            fill.append((i, reach))
            if t >= total:      # stopped firing: the counter stands
                out[i + 1::w] = [heads[h]] * ln
                out[i + 2::w] = [str(total + h)] * ln
            else:
                out[i + 1::w] = heads[k:k + ln]
                if h:           # c - (first - h - 1) on cycle c
                    fill.append((i + 2, reach - first + h + 1))
                else:
                    out[i + 2::w] = [""] * ln
            out[i + 3::w] = (pairs[t % n_half:t % n_half + ln]
                             if 0 <= t < total else blank[:ln])
        return out, w, fill

    def chunk(a, ln, out, w, fill):
        table.extend(map(str, range(a, a + ln)))
        for i, o in fill:
            out[i::w] = table[o:o + ln]
        del table[:ln]
        fh.write("".join(out))

    with open(path, "w", newline="") as fh:
        fh.write("cycle,stage,sel,counter,pair_lo,pair_hi\r\n")
        if count:
            for lo, hi in zip(marks, marks[1:]):
                for a in range(lo, hi, n_half):
                    ln = min(n_half, hi - a)
                    if a == lo or ln < n_half:  # a segment's first, or last
                        rows = layout(a, ln, cols)
                    chunk(a, ln, *rows)
            chunk(end, 1, *layout(end, 1, cols[:keep]))


def _run_cycles(n, butterfly_latency, count, repeat=False):
    """The per-stage proof of the schedule for ``count`` products at N =
    ``n``, position j of product p fed as the labels (pN + 2j, pN + 2j + 1)
    on cycle pN/2 + j + 1.  Returns None once every stage has fired on its
    law, or raises :class:`PipelineAssertionError`; it builds no report
    and writes no trace.  With ``repeat``, a stage that reaches its last
    fire before its state repeats raises too.

    It builds one stage per column of :func:`_columns`, with the column's
    label and hold, and proves them one at a time in that dataflow order:
    weighting, the forward stages, pointwise, the inverse stages,
    unweighting.  Each starts on its first arrival by law, F - hold with F
    its first fire by :func:`_schedule_law`, which states when each unit's
    fires leave it and when the buffer in front of inverse stage 1 hands a
    block over, and is ticked alone on its feeder's law output from there,
    arrival k the labels (2k, 2k + 1).  Cycles before a first arrival idle
    the stage and are never walked.  Its first fire is F: an earlier one
    breaks the routing law (:class:`_PipeStage`), and a stage that has
    not fired by F is short of its law there.

    The shift: moving a stage's state up P fires (t and a FIFO's counter
    up P, labels up 2P; :func:`_moved` moves them down by t) commutes
    with P cycles of ticks on arrivals moved up 2P, if P is a multiple of
    the stage's period: 2 * hold behind a FIFO, 1 without one.  A stage
    never reads a label's value: it moves labels, emits (2t, 2t + 1) at
    fire t and checks that fire t pairs 2t plus terms in ``hold`` and
    ``t & hold``.  So ``t & hold`` stays, and so do a FIFO's phase bit and
    tap ``counter mod hold``, which with != 0 and < hold (false past its
    first fire) are all it reads of ``counter``.  A stage reads ``t`` also
    against ``cycle`` in the timing law: ``first`` is fixed, and ``cycle``
    and ``t`` move together.

    Each stage is snapshot at its first fire by law, its first arrival +
    hold, and every P fires after, while t is below the total
    T = count * N/2: its state moved down by t.  Its input has no gap, so
    at a snapshot t must be its timing-law count, cycle - F + 1 (c); a
    stage behind it has stopped firing, is short of its law, and raises.
    The stage stops at the first snapshot equal to the one before, or else
    after its fire T - 1.  Past its last snapshot, a stage not done on the
    cycle after its fire T - 1's cycle by law, F + T - 1, is short of its
    law too.
    Proof that every stage fires T times by both laws, and so emits its
    law output on every cycle, by induction in dataflow order: the feed
    does.  Let a stage's feeder do so (for inverse stage 1, pointwise,
    through the buffer).  Its ticked fires were checked.  If it stopped at
    a repeat, its input is invariant under the shift from its first fire
    on, so with equal states P fires apart, both on its law by (c), the
    fires that follow are those P fires before, which met both laws,
    shifted, and the state comes back to the same, up to the end of the
    input.  T is a multiple of N/2 and so of P: a stream of whole
    transforms ends just as a drain phase starts, where a None arrival
    pairs the taps as a live one would, so the last fires repeat too, and
    the stage fires T times.  At t >= 1 a FIFO is past its fill, so every
    slot holds a live label.  So unweighting fires on its law, and
    completion k, its fire (k + 1)N/2 - 1 leaving, comes where
    :func:`_schedule_law` puts it, N/2 cycles after completion k - 1.

    Latency: a stage reads the cycle only against its own first fire by
    law, F: its feeder's output ``cycle - start`` (start = F - hold), a
    snapshot's ``cycle == due`` (due = F + jP) and t against
    ``cycle - first + 1``, the bound ``cycle >= first + total`` and the
    timing law's ``first + t``.  The latency moves only F, by
    :func:`_schedule_law`, so it translates each stage's walk: the same
    ticks, checks and errors, each at the same offset from the stage's
    first arrival, at every latency.

    Count: snapshots come P <= N/2 fires apart, at t = 1 + jP, and a
    snapshot is due only while t + P < T.  In a stream of two products,
    T = N, so a snapshot has t <= N - P + 1 and its tick reads arrival
    k = t - 1 + hold <= N - P + hold < N: every arrival a stage ticks up
    to a repeat there is live, and is the same, as are the dues and the
    checks, in every stream of two or more products.  So a walk of two
    products in which every stage stops at a repeat, and not at its last
    fire (``repeat``), is the walk of every such stream, which returns
    too; :func:`_schedule_proof` walks it, and one of one product, and a
    stream of no products has no fire.

    A break records where it stopped on the error, as ``stop = (k,
    offset)``: the place k of the column in the order a cycle ticks the
    columns, reverse dataflow order, and the offset from that column's
    first arrival by law of the tick that raises: an early first fire's
    own, or a late one's cycle by law.  By the translation above it names
    the same tick at every latency, and a traced ``nttmul sim`` writes, by
    :func:`write_trace`, the rows up to there.
    """
    if not count:
        return
    firsts, _ = _schedule_law(n, butterfly_latency)
    stages = [_PipeStage(label, hold, first) for (label, hold, _), first
              in zip(_columns(n), firsts)]
    total = count * n // 2
    try:
        for st in stages:
            first = st.first
            start = cycle = first - st.hold     # its first arrival by law
            due, snap = first, ()      # no snapshot yet: () is no state
            while True:
                k = cycle - start       # the feeder's law output: fire k
                st.tick(cycle, (2 * k, 2 * k + 1) if k < total else None)
                if st.t == total:
                    if repeat:
                        raise PipelineAssertionError(
                            f"{st.label}: fire {total - 1} at cycle "
                            f"{cycle}, its last, before a repeat")
                    break
                if cycle == due and st.t == cycle - first + 1:
                    moved = _moved(st)      # a snapshot on (c)
                    if moved == snap:
                        break
                    snap = moved
                    if st.t + st.d < total:
                        due += st.d
                elif cycle == due or cycle >= first + total:
                    raise PipelineAssertionError(
                        f"{st.label}: {st.t} of {total} fires by cycle "
                        f"{cycle}, short of its law")
                cycle += 1
    except PipelineAssertionError as e:
        e.stop = stages[::-1].index(st), cycle - start
        raise


@cache
def _schedule_proof(n):
    """The schedule proof at N = ``n`` for every butterfly latency and
    every number of products, run once per N in a process, when a
    :class:`PipelineConfig` is built: :func:`_run_cycles` at latency 1 on
    a stream of one product and on one of two, in which every stage must
    stop at a repeat.  By the latency and count arguments of
    :func:`_run_cycles`, every stream at every latency then walks as one of
    these, translated, and returns.  A call that raises is never kept, so
    building a config at an N whose proof fails raises every time."""
    _run_cycles(n, 1, 1)
    _run_cycles(n, 1, 2, repeat=True)


def _build_report(config, count):
    """The :class:`CycleReport` of ``count`` products, from the laws alone:
    a run whose proof returned (:func:`_run_cycles`) fired as the routing
    and timing laws state, each stage first firing on
    :func:`_schedule_law`'s cycle and so each product completing on it, so
    it is ``stall_free``.
    Each FIFO has two banks of ``hold`` slots (:func:`_columns`),
    which the fill loads before the first fire: it peaks at its capacity,
    2 * hold, whenever the stream has products.  The buffer in front of
    inverse stage 1 peaks at one whole block, N/2 pairs."""
    n, latency = config.n, config.butterfly_latency
    firsts, done = _schedule_law(n, latency)
    capacity = tuple(2 * hold for _, hold, _ in _columns(n))
    # the forward and the inverse stages, between the multipliers
    m = n.bit_length() - 1
    fwd, inv, fwd_caps, inv_caps = (seq[lo:hi] for seq in (firsts, capacity)
                                    for lo, hi in ((1, m + 1), (m + 2, -1)))
    fwd_peaks, inv_peaks = (caps if count else (0,) * len(caps)
                            for caps in (fwd_caps, inv_caps))
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
    if 0 < count < 4:
        notes.append("steady-state spacing needs at least 4 back-to-back "
                     "multiplications; not measured")
    first_ntt, first_mul = (_first_latencies(n, latency) if count
                            else (None, None))

    return CycleReport(
        n=n,
        mode=config.mode,
        butterfly_latency=latency,
        multiplications=count,
        first_ntt_latency=first_ntt,
        first_mul_latency=first_mul,
        # completion k is output (k+1)N/2 - 1 of unweight, whose fires the
        # timing law makes contiguous: every spacing is N/2
        steady_cycles_per_mul=n // 2 if count >= 4 else None,
        regs_per_stage=fwd_peaks,
        inv_regs_per_stage=inv_peaks,
        fifo_capacity_per_stage=fwd_caps,
        inv_fifo_capacity_per_stage=inv_caps,
        # the modelled forward pipeline stands for both hardware copies
        total_regs=2 * sum(fwd_peaks) + sum(inv_peaks),
        handoff_peak_pairs=n // 2 if count else 0,
        fwd_stage_first_fire=fwd if count else (None,) * len(fwd),
        inv_stage_first_fire=inv if count else (None,) * len(inv),
        butterfly_units=3 * config.params.num_stages,
        predicted_first_ntt=predicted_first_ntt_latency(n),
        predicted_first_mul=predicted_first_mul_latency(n),
        predicted_ntt_regs=predicted_ntt_regs(n),
        predicted_mul_regs=predicted_mul_regs(n),
        stall_free=True,
        completion_cycles=tuple(range(done, done + count * n // 2, n // 2)),
        notes=tuple(notes),
        schedule_deviations=(),
    )
