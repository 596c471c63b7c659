"""Negacyclic polynomial multiplication over Z_M with a cycle-accurate
model of a streaming FIFO-pipelined hardware multiplier.

The package splits into four layers:

* :mod:`nttmul.modarith` - Barrett reduction (generic and a shift-add form
  fixed to M = 1049089), one-level Karatsuba multiplication, constant
  derivation and the exact certificate every ``ModulusContext`` passes when
  it is built;
* :mod:`nttmul.params`  - ring validation (prime M below 2**64), root
  derivation, weight and per-stage twiddle tables, JSON table files;
* :mod:`nttmul.polymul` - reference transforms and the schoolbook oracle;
* :mod:`nttmul.pipesim` - the cycle-accurate pipeline simulator and its
  latency/register bookkeeping.
"""

from .modarith import (
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
from .params import (
    NttParams,
    bit_reverse_index,
    build_params,
    derive_roots,
    emit_tables,
    load_tables,
    params_from_dict,
    params_to_dict,
    ring_problem,
)
from .pipesim import (
    CycleReport,
    PipelineAssertionError,
    PipelineConfig,
    StageFifo,
    predicted_first_mul_latency,
    predicted_first_ntt_latency,
    predicted_mul_regs,
    predicted_ntt_regs,
    run_stream,
)
from .polymul import (
    Polynomial,
    naive_negacyclic_mul,
    negacyclic_mul_ntt,
    ntt_forward,
    ntt_inverse,
)

__version__ = "0.1.0"

__all__ = [
    "FIXED_K",
    "FIXED_M",
    "FIXED_U_MIN",
    "FIXED_U_SHORTCUT",
    "KARATSUBA_BITS",
    "BarrettConstantError",
    "ModulusContext",
    "barrett_first_failure",
    "barrett_reduce_fixed",
    "barrett_reduce_generic",
    "find_barrett_constants",
    "karatsuba_mul",
    "validate_barrett_constants",
    "NttParams",
    "bit_reverse_index",
    "build_params",
    "derive_roots",
    "emit_tables",
    "load_tables",
    "params_from_dict",
    "params_to_dict",
    "ring_problem",
    "CycleReport",
    "PipelineAssertionError",
    "PipelineConfig",
    "StageFifo",
    "predicted_first_mul_latency",
    "predicted_first_ntt_latency",
    "predicted_mul_regs",
    "predicted_ntt_regs",
    "run_stream",
    "Polynomial",
    "naive_negacyclic_mul",
    "negacyclic_mul_ntt",
    "ntt_forward",
    "ntt_inverse",
    "__version__",
]
