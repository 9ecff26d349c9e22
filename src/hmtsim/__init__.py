"""Cycle-level simulator of a hardware-multithreaded many-core: dataflow
scheduling from the register file, switch-hinted fetch, bulk thread creation
over adjacent cores, a control NoC, and eager vs bulk store coherency."""

from .isa import AsmError, Instruction, Opcode, Program, annotate_hints, assemble, validate
from .kernels import (
    KernelSpec,
    corpus,
    kernel_chain,
    kernel_heterogeneous,
    kernel_loaduse,
    kernel_regular,
    kernel_starvation,
)
from .memory import MemorySystem
from .noc import Noc
from .oracle import (OracleDeadlock, OracleFault, OracleResult,
                     sequential_oracle)
from .sim import ChipConfig, Metrics, Outcome, RunResult, detect_deadlock, format_trace, run
from .tmu import Family, SpanPool, distribute

__all__ = [
    "AsmError", "Instruction", "Opcode", "Program", "annotate_hints",
    "assemble", "validate", "KernelSpec", "corpus", "kernel_chain",
    "kernel_heterogeneous", "kernel_loaduse", "kernel_regular",
    "kernel_starvation", "MemorySystem", "Noc",
    "OracleDeadlock", "OracleFault", "OracleResult", "sequential_oracle",
    "ChipConfig", "Metrics", "Outcome", "RunResult", "detect_deadlock",
    "format_trace", "run", "Family", "SpanPool", "distribute",
]
