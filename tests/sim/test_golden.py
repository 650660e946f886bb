"""Pinned result digests: the regression oracle for the one pipeline.

Each scenario runs one logical processor on the flat-ring pipeline (a
Reunion pair under TSO with a hardware TLB, except the cold-path runs
of ``COLD_RUNS``) and reduces everything
``tests.sim.test_replay_exec._observe`` covers — statistics, final
register files, retire and cycle counts, per-gate interval counters,
recovery logs — to one SHA-256 digest.  Every cell of the kernel
(naive, event) x execution (dual, replay) matrix must land on the same
pin, because both knobs carry bit-identity contracts; the pin itself
catches any behaviour change that moves all four cells together.

The config is spelled out here rather than taken from
``tests.core.helpers.SMALL``, which ``REPRO_COHERENCE`` rewrites, and
the options are explicit rather than resolved from the environment, so
every CI leg computes the same digests.

Re-pinning: a change that alters simulated behaviour on purpose updates
``PINS`` with the digests this test prints on failure, and its
CHANGES.md entry names the behaviour change that moved them.  A change
that claims to keep behaviour must leave every pin as it is.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.core.faults import FaultInjector
from repro.isa import assemble
from repro.isa.builder import ProgramBuilder
from repro.isa.opcodes import Op
from repro.sim.cmp import CMPSystem
from repro.sim.config import (
    Consistency,
    CoreConfig,
    L1Config,
    L2Config,
    MemoryConfig,
    Mode,
    PhantomStrength,
    RedundancyConfig,
    SystemConfig,
    TLBConfig,
    TLBMode,
    parse_policy,
)
from repro.sim.options import SimOptions
from repro.workloads.base import hashed_schedule
from repro.workloads.micro import MICRO_BASE, PointerChase
from tests.sim.test_replay_exec import MIXED, _observe

#: ``tests.core.helpers.SMALL`` before any environment retargeting.
GOLDEN_BASE = SystemConfig(
    n_logical=1,
    core=CoreConfig(width=4, rob_size=32, store_buffer_size=8, frontend_latency=3),
    l1=L1Config(size_bytes=1024, assoc=2, load_to_use=2, mshrs=4),
    l2=L2Config(size_bytes=16 * 1024, assoc=8, banks=2, hit_latency=8, mshrs=8),
    tlb=TLBConfig(itlb_entries=8, dtlb_entries=16, page_bits=10, hw_fill_latency=10),
    memory=MemoryConfig(latency=40),
    redundancy=RedundancyConfig(divergence_timeout=2000),
)

CHASE = PointerChase(nodes=48, chases_per_iteration=6)

PINS = {
    "mixed": "27a0f6f553d256356ee2f461bbb31e7b704d6094ea224a3909ebf41b082eddb3",
    "chase": "87fc96f73d7961a334a44d8fde28fb8e13e83b044dfa6038f4f63916aac360ec",
    "fault-result": "f8025cf7508a728c01642a6c28cd976416dc25ba28e2f9866d5d0f0627e0455d",
    "fault-store_addr": "cec3db19cbe7a5ea94a529fcd1ee692823134241776e0d01e4c2c96b28c95eba",
    "fault-branch_target": "a14616a2ba717f5c8eaf7e2597105cb0ee45c104d91a410479e5d8688969883e",
    "cold-0": "992dfd72d61d08fe7d5c6c74811f3774d2673fa4f47c4ca54106b707d61d239d",
    "cold-1": "6cc383b954118d6c895c4fc57b30d19ec39418124264d711ae99ddea5b193dc5",
    "cold-2": "783b862db0d0d437fc7c5c0a6166bc0b3119a61b50fa76a27da46432915f44bc",
    "strict": "efaf3f533e15cee502ad23fb1894750d189d32737f2e5a12ad5097f71e7ad0dd",
    "nonredundant": "2e54f6b4b995f9881d909ede78f65bebd3570aaa3b3d9426cd0c2c76b4caa392",
    "sc": "f1b67f54a24ba97c62894e619d44aafb83d3d52d2697de79dd5688cdfde5d61c",
    "swtlb": "e7c70eeadfb0cc8d97f44ed70edb0612cc7ef47cb0212bac2c85e22313c4cf0e",
    "swtlb-strict": "4c689ac9cd5bfd5b9b70d7b4e349f64c2295981350691a710cd1acf1836ffa1d",
    "dynamic": "9900e0ce18d2d206e692aaa0040b31c62be220758b97f0f71efdd673bda6e769",
    "swtlb-nonredundant": "63e3a74db06c33839daba66e34157e3f9dd841ed0ad1a6db9fa3c8afd35c612a",
    "swtlb-sc": "c209f4c35ae561547da1ce0ec62424c0e6016c6262d0f727185d4220c1063378",
}

#: Cold-path runs beyond the ``cold-N`` Reunion pairs, as ``name ->
#: (seed, _cold keyword arguments)``.  Strict's gate and the
#: non-redundant pipeline have no pair, and SC makes every store
#: serialize.  The software-TLB runs inject the miss handler into the
#: pipeline: its serializing instructions stall the retire gate, and a
#: synthetic ITLB miss squashes entries already offered to the gate.
#: The ``dynamic`` pair's backlog counts those dropped offers.
#: ``swtlb-nonredundant`` is Fig 7(b)'s baseline, whose ``ImmediateGate``
#: clears injected entries at offer; ``swtlb-sc`` adds SC's serializing
#: stores to the handler's serializing instructions.
COLD_RUNS = {
    "strict": (3, {"mode": Mode.STRICT}),
    "nonredundant": (4, {"mode": Mode.NONREDUNDANT}),
    "sc": (5, {"consistency": Consistency.SC}),
    "swtlb": (6, {"tlb": TLBMode.SOFTWARE}),
    "swtlb-strict": (7, {"mode": Mode.STRICT, "tlb": TLBMode.SOFTWARE}),
    "dynamic": (10, {"tlb": TLBMode.SOFTWARE, "policy": "dynamic:6,3,8"}),
    "swtlb-nonredundant": (11, {"mode": Mode.NONREDUNDANT, "tlb": TLBMode.SOFTWARE}),
    "swtlb-sc": (12, {"consistency": Consistency.SC, "tlb": TLBMode.SOFTWARE}),
}


def _config(
    fingerprint_interval: int = 8,
    mode: Mode = Mode.REUNION,
    consistency: Consistency = Consistency.TSO,
    tlb: TLBMode = TLBMode.HARDWARE,
    policy: str | None = None,
) -> SystemConfig:
    config = (
        GOLDEN_BASE.replace(consistency=consistency)
        .with_tlb(mode=tlb)
        .with_redundancy(
            mode=mode,
            comparison_latency=10,
            fingerprint_interval=fingerprint_interval,
            phantom=PhantomStrength.GLOBAL,
        )
    )
    if policy is not None:
        config = config.with_protection(parse_policy(policy))
    return config


def _digest(system: CMPSystem) -> str:
    payload = json.dumps(_observe(system), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def _run(program, options, *, injector=None, cycles=None) -> CMPSystem:
    system = CMPSystem(_config(), [program], options=options)
    if injector is not None:
        interval, seed, target = injector
        FaultInjector(interval=interval, seed=seed, target=target).attach(
            system.cores[1]
        )
    if cycles is None:
        system.run_until_idle(max_cycles=500_000)
    else:
        system.run(cycles)  # non-terminating workloads: fixed horizon
    return system


def _fuzz_program(seed: int):
    """A branchy, store-heavy, TLB-hostile loop for the cold-path scenarios.

    Loads pseudo-random memory words and branches on their low bit, so
    roughly half the conditional branches mispredict (squash path); the
    roving offset strides across a 32 KB footprint — double the config's
    16-entry x 1 KB DTLB reach — so loads keep missing the DTLB (software
    walks, with the injected handler, only under ``TLBMode.SOFTWARE``;
    hardware fills otherwise); the not-taken arms store, feeding the
    fingerprint store words and the ``store_addr`` fault target.
    """
    rng = random.Random(0xF022 ^ seed)
    words = 4096
    mask = (words * 8 - 1) & ~0x7
    builder = ProgramBuilder(name=f"coldpath-fuzz/{seed}")
    builder.reg(1, MICRO_BASE)  # footprint base
    builder.reg(2, 0)  # roving offset
    builder.reg(3, rng.randrange(1, 1 << 16) | 1)  # odd scramble constant
    builder.label("loop")
    for i in range(rng.randrange(6, 12)):
        builder.add(4, 1, 2)
        builder.load(5, 4)
        builder.alu(Op.XOR, 6, 6, 5)
        builder.alu(Op.MUL, 6, 6, 3)
        builder.alu(Op.ANDI, 7, 6, imm=1)
        skip = f"skip{i}"
        builder.bne(7, 0, skip)
        builder.store(6, 4)
        builder.label(skip)
        builder.addi(2, 2, rng.choice([8, 24, 1032, 2056]))
        builder.alu(Op.ANDI, 2, 2, imm=mask)
    builder.jump("loop")
    program = builder.build()
    program.memory_image.update(
        {MICRO_BASE + i * 8: rng.getrandbits(64) for i in range(words)}
    )
    return program


def _cold(
    seed: int,
    options: SimOptions,
    mode: Mode = Mode.REUNION,
    consistency: Consistency = Consistency.TSO,
    tlb: TLBMode = TLBMode.HARDWARE,
    policy: str | None = None,
) -> CMPSystem:
    """One run forcing every view-materializing cold path at once.

    Branch mispredicts (squash rollback), synthetic ITLB misses, DTLB
    misses, an external interrupt replicated mid-run (its handler is
    injected), and mid-interval fault injection on the mute with the
    resulting detections and recoveries (only where there is a mute).
    Under the default hardware TLB the misses stall fetch or fill in
    place; under ``TLBMode.SOFTWARE`` an ITLB miss squashes at
    retirement and both kinds inject the software miss handler.  The
    rng still draws a kernel and an execution mode, so the later draws
    keep their order; ``options`` overrides both.
    """
    rng = random.Random(0x5EED ^ seed)
    program = _fuzz_program(seed)
    itlb = hashed_schedule(rate_per_kinstr=rng.choice([10.0, 25.0]), seed=seed)
    interval = rng.choice([1, 4, 8])
    rng.choice(["naive", "event"])
    rng.choice(["dual", "replay"])
    interrupt_at = rng.randrange(2_000, 8_000)
    fault_interval = rng.randrange(25, 60)
    fault_seed = rng.randrange(2**16)
    fault_target = rng.choice(["result", "store_addr", "branch_target"])
    horizon = 20_000
    system = CMPSystem(
        _config(interval, mode, consistency, tlb, policy),
        [program],
        [itlb],
        options=options,
    )
    if system.pairs:
        FaultInjector(
            interval=fault_interval, seed=fault_seed, target=fault_target
        ).attach(system.cores[1])
    system.run(interrupt_at)
    system.post_interrupt(0)
    system.run(horizon - interrupt_at)
    return system


def _scenario(name: str, options: SimOptions) -> CMPSystem:
    if name == "mixed":
        return _run(assemble(MIXED), options)
    if name == "chase":
        return _run(CHASE.programs(1, seed=3)[0], options, cycles=30_000)
    if name.startswith("fault-"):
        target = name[len("fault-"):]
        system = _run(assemble(MIXED), options, injector=(40, 11, target))
        assert system.pairs[0].recoveries > 0  # the plan actually fired
        return system
    if name in COLD_RUNS:
        seed, kwargs = COLD_RUNS[name]
        system = _cold(seed, options, **kwargs)
    else:
        system = _cold(int(name[len("cold-"):]), options)
    # Prove each cold path fired: a scenario that silently stopped
    # reaching one would otherwise keep its pin on an easier run.
    vocal = system.cores[0]
    assert vocal.mispredicts > 0
    assert vocal.dtlb_misses > 0
    assert vocal.itlb_misses > 0
    assert vocal.interrupts_serviced == 1
    for pair in system.pairs:
        assert pair.recoveries > 0
    if system.config.tlb.mode is TLBMode.SOFTWARE:
        # More than the interrupt handler's 5: TLB handlers retired too.
        assert vocal.injected_retired > 5
    else:
        # A squash of the in-flight handler re-posts the interrupt, so
        # the handler retires exactly once per interrupt serviced.
        assert vocal.injected_retired == 5 * vocal.interrupts_serviced
    if name == "dynamic":
        assert system.pairs[0].protection_toggles > 0
    return system


@pytest.mark.parametrize("execution", ["dual", "replay"])
@pytest.mark.parametrize("kernel", ["naive", "event"])
@pytest.mark.parametrize("scenario", sorted(PINS))
def test_pinned_digest(scenario, kernel, execution):
    options = SimOptions(kernel=kernel, execution=execution)
    digest = _digest(_scenario(scenario, options))
    assert digest == PINS[scenario], f"{scenario}: {digest}"
