"""Benchmark corpus generators.

Five small kernels exercise the architectural claims: a regular data-parallel
kernel (disjoint writes), a heterogeneous bulk (work linear in the index), a
forward-dependent chain (prefix sums over the thread channels), a load-use
probe for the switch-hint machinery, and a resource-starvation probe. Every
expected memory image comes from the sequential oracle at generation time,
never from hand calculation.

Sources are emitted as assembly text so the corpus can be written to
kernels/<name>.masm and regenerated or diffed by the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .isa import Program, assemble
from .oracle import sequential_oracle

X_BASE = 0x1000
OUT_BASE = 0x4000


@dataclass
class KernelSpec:
    name: str
    source: str
    params: dict
    # filled by expected_image(); oracle output, bit-for-bit
    expected: bytes | None = None

    @cached_property
    def program(self) -> Program:
        """The source assembled once, on first use."""
        return assemble(self.source, name=self.name)

    def expected_image(self, mem_bytes: int = 1 << 20) -> bytes:
        if self.expected is None or len(self.expected) != mem_bytes:
            self.expected = sequential_oracle(self.program, mem_bytes).final_memory
        return self.expected


def _at_least(kernel: str, **sizes: tuple[int, int]):
    """Refuse a size below the smallest that builds a program which runs to
    completion: each keyword maps to (value, least)."""
    for name, (value, least) in sizes.items():
        if value < least:
            raise ValueError(f"{kernel}: {name} must be >= {least}, "
                             f"got {value}")


def _main_wrapper(body_of_main: str, workers: str) -> str:
    return f".body main\n{body_of_main}\n{workers}"


# Setup padding between the long-latency TMU requests in main: the allocate
# and create results take a few cycles to come back, and consuming them too
# early suspends main while it is the only thread on its core.
_MAIN_PAD_A = "\n".join(f"  addi r{14 + i}, r0, 0" for i in range(4))
_MAIN_PAD_B = "\n".join(f"  addi r{18 + i}, r0, 0" for i in range(3))
_MAIN_PAD_C = "\n".join(f"  addi r{21 + i}, r0, 0" for i in range(3))


def _create_sync_main(worker: str, body: str, n: int, size: int = 0,
                      setup: str = "") -> str:
    """A program whose main runs setup, then allocates size cores, creates n
    threads of body (indices 0..n-1) on them, syncs the family and releases
    the allocation; worker holds the thread bodies."""
    head = f"{setup}\n" if setup else ""
    return _main_wrapper(f"""{head}  allocate r1, {size}
{_MAIN_PAD_A}
  create r2, r1, {body}, 0, {n}, 1
{_MAIN_PAD_B}
  sync r3, r2
{_MAIN_PAD_C}
  add r0, r3, r0
  release r1
  halt""", worker)


def _init_array_loop(n: int, scale: int, offset: int, base: int = X_BASE) -> str:
    """Emit code for: for i in range(n): mem[base + 4*i] = scale*i + offset."""
    return f"""  addi r25, r0, 0
  addi r26, r0, {n}
  addi r27, r0, {base}
  beq r26, r0, initdone
initloop:
  addi r28, r0, {scale}
  mul r29, r25, r28
  addi r29, r29, {offset}
  st r29, 0(r27)
  addi r27, r27, 4
  addi r25, r25, 1
  bne r25, r26, initloop
initdone:"""


def kernel_regular(n: int = 256, a: int = 2, b: int = 1, x_scale: int = 7,
                   x_offset: int = 3) -> KernelSpec:
    """out[i] = a * x[i] + b over n threads with disjoint output slots."""
    _at_least("regular", n=(n, 0))
    if 4 * n > OUT_BASE - X_BASE:   # x[] would overlap out[], and race
        raise ValueError(f"regular: x[] of n={n} reaches out[]")
    worker = f""".body regwork
  getidx r1
  addi r4, r0, 4
  mul r5, r1, r4
  addi r6, r0, {X_BASE}
  add r6, r6, r5
  ld r7, 0(r6)
  addi r8, r0, {a}
  mul r9, r7, r8
  addi r9, r9, {b}
  addi r10, r0, {OUT_BASE}
  add r10, r10, r5
  st r9, 0(r10)
  halt"""
    return KernelSpec(
        "regular", _create_sync_main(
            worker, "regwork", n,
            setup=_init_array_loop(n, x_scale, x_offset)),
        {"n": n, "a": a, "b": b, "x_scale": x_scale, "x_offset": x_offset})


def kernel_heterogeneous(n: int = 64, scale: int = 16) -> KernelSpec:
    """Thread i spins scale*i arithmetic operations, then stores its index.

    Work is busy arithmetic, not memory traffic, so the imbalance of the
    contiguous even split is visible in per-core busy counters alone.
    """
    _at_least("heterogeneous", n=(n, 0), scale=(scale, 0))
    worker = f""".body hetwork
  getidx r1
  addi r2, r0, {scale}
  mul r3, r1, r2
  beq r3, r0, spun
spin:
  addi r3, r3, -1
  bne r3, r0, spin
spun:
  addi r4, r0, 4
  mul r5, r1, r4
  addi r6, r0, {OUT_BASE}
  add r6, r6, r5
  st r1, 0(r6)
  halt"""
    return KernelSpec(
        "heterogeneous", _create_sync_main(worker, "hetwork", n),
        {"n": n, "scale": scale})


def kernel_chain(n: int = 100) -> KernelSpec:
    """Thread i: out-channel = in-channel + i; prefix sums via the channels.

    Thread i stores its running prefix to its own output slot, and main
    stores the family tail (the total) just past the last slot.
    """
    _at_least("chain", n=(n, 0))
    main = f"""  allocate r1, 0
{_MAIN_PAD_A}
  addi r9, r0, 0
  create r2, r1, chainwork, 0, {n}, 1, r9
{_MAIN_PAD_B}
  getsh r4, r2
  sync r3, r2
{_MAIN_PAD_C}
  add r0, r3, r0
  addi r5, r0, {OUT_BASE + 4 * n}
  st r4, 0(r5)
  release r1
  halt"""
    worker = f""".body chainwork
  getsh r1
  getidx r2
  add r3, r1, r2
  putsh r3
  addi r4, r0, 4
  mul r5, r2, r4
  addi r6, r0, {OUT_BASE}
  add r6, r6, r5
  st r3, 0(r6)
  halt"""
    return KernelSpec("chain", _main_wrapper(main, worker), {"n": n})


def kernel_loaduse(threads: int = 4, iters: int = 8, fillers: int = 13) -> KernelSpec:
    """Each thread: a cold load, then an add of the loaded value, repeated.

    Every load walks to a fresh cache line, so the dependent add always
    chases an outstanding miss. The filler work sizes each thread's active
    burst so that with four threads the fill latency is fully covered by the
    other threads: a hinted switch then always finds somewhere to go, which
    is exactly the regime where the hint machinery should eliminate flushes.
    The default filler count keeps the loop body aligned so the whole run
    stays in that covered regime (the body length interacts with the
    4-instruction I-cache lines; shifting it by one can let a one-off
    convoy form during warm-up and cost a single flush).
    """
    _at_least("loaduse", threads=(threads, 0), iters=(iters, 1),
              fillers=(fillers, 0))
    stride = 16
    if threads * iters * stride > OUT_BASE - X_BASE:   # as in kernel_regular
        raise ValueError(f"loaduse: x[] of {threads}x{iters} lines reaches out[]")
    body_fill = "\n".join(f"  addi r{16 + i % 4}, r{16 + i % 4}, 1"
                          for i in range(fillers))
    worker = f""".body luwork
  getidx r1
  addi r3, r0, {iters}
  addi r4, r0, {stride}
  mul r5, r3, r4
  mul r2, r1, r5
  addi r6, r0, {X_BASE}
  add r2, r2, r6
  addi r2, r2, {-stride}
  addi r7, r0, {iters}
  addi r10, r0, 0
  addi r9, r0, 0
luloop:
  add r10, r10, r9
  addi r2, r2, {stride}
  addi r7, r7, -1
{body_fill}
  ld r8, 0(r2)
  add r9, r8, r8
  bne r7, r0, luloop
  add r10, r10, r9
  addi r11, r0, 4
  mul r12, r1, r11
  addi r13, r0, {OUT_BASE}
  add r13, r13, r12
  st r10, 0(r13)
  halt"""
    return KernelSpec(
        "loaduse", _create_sync_main(
            worker, "luwork", threads,
            setup=_init_array_loop(threads * iters * (stride // 4), 3, 5)),
        {"threads": threads, "iters": iters, "fillers": fillers})


def kernel_starvation(p: int = 2, satisfiable: bool = False) -> KernelSpec:
    """Resource starvation probe, built for a specific core count.

    Deadlocking shape (the default): two families each hold half the chip
    and spin re-requesting more cores than can ever be free. Satisfiable
    shape: both grabbers multiplex one core and take the other in turns,
    releasing it in between, so the same retry loop completes. p = 1
    degenerates to a single root that just stores a marker.
    """
    if p < 1:
        raise ValueError(f"starvation: core count must be >= 1, got {p}")
    name = "starvation_ok" if satisfiable else "starvation"
    params = {"p": p, "satisfiable": satisfiable}
    if p == 1:
        main = f"""  addi r1, r0, {OUT_BASE}
  addi r2, r0, 1
  st r2, 0(r1)
  halt"""
        return KernelSpec(name, f".body main\n{main}", params)
    half = (p + 1) // 2
    if satisfiable:
        grabber = f""".body grabber
  getidx r1
  addi r5, r0, 1
retry:
  allocate r6, 1, r5
  beq r6, r0, retry
  release r6
  addi r7, r0, 4
  mul r8, r1, r7
  addi r9, r0, {OUT_BASE}
  add r9, r9, r8
  addi r10, r1, 1
  st r10, 0(r9)
  halt"""
        return KernelSpec(name, _create_sync_main(grabber, "grabber", 2, 1),
                          params)
    main = f"""  allocate r1, {half}
{_MAIN_PAD_A}
  addi r5, r0, {half}
  allocate r2, {p - half}, r5
{_MAIN_PAD_B}
  create r3, r1, grabber, 0, 1, 1
{_MAIN_PAD_C}
  create r4, r2, grabber, 1, 2, 1
  addi r24, r0, 0
  addi r25, r0, 0
  addi r26, r0, 0
  sync r6, r3
  add r0, r6, r0
  sync r7, r4
  add r0, r7, r0
  release r1
  release r2
  halt"""
    grabber = f""".body grabber
retry:
  allocate r8, {half + 1}
  beq r8, r0, retry
  release r8
  halt"""
    return KernelSpec(name, _main_wrapper(main, grabber), params)


def corpus(p_for_starvation: int = 2) -> list[KernelSpec]:
    """The standard five-kernel corpus (starvation in its satisfiable shape,
    so every member completes and has an oracle image)."""
    return [
        kernel_regular(),
        kernel_heterogeneous(),
        kernel_chain(),
        kernel_loaduse(),
        kernel_starvation(p_for_starvation, satisfiable=True),
    ]


GENERATORS = {
    "regular": kernel_regular,
    "heterogeneous": kernel_heterogeneous,
    "chain": kernel_chain,
    "loaduse": kernel_loaduse,
    "starvation": kernel_starvation,
}
