"""CMP system assembly: cores, pairs, shared cache, main memory.

Builds one simulated chip multiprocessor in any of the three execution
models the paper evaluates:

* ``Mode.NONREDUNDANT`` — `n_logical` plain cores (the baseline that
  every figure normalizes against);
* ``Mode.STRICT`` — `n_logical` cores, each checked against an ideally
  timed virtual partner (the strict-input-replication oracle);
* ``Mode.REUNION`` — `2 * n_logical` cores in vocal/mute pairs with
  relaxed input replication, phantom requests, and the re-execution
  protocol.

The paper assumes on-chip cache bandwidth scales with the core count
(Section 5), so Reunion systems double the shared-cache banks.
"""

from __future__ import annotations

import dataclasses
from bisect import insort
from heapq import heappop, heappush
from operator import attrgetter
from typing import Callable, Sequence

from repro.core.pair import LogicalPair
from repro.core.strict import StrictCheckGate
from repro.isa.program import Program
from repro.memory.main_memory import MainMemory
from repro.memory.directory import DirectoryBackend
from repro.memory.l2_controller import SharedL2Controller
from repro.memory.port import CoreMemPort
from repro.memory.snoopy import SnoopyBus
from repro.pipeline.gates import NEVER, ImmediateGate
from repro.pipeline.ooo_core import OoOCore
from repro.sim.config import (
    CacheStyle,
    CoherenceStyle,
    Mode,
    SystemConfig,
    resolve_pair_policies,
)
from repro.sim.options import SimOptions
from repro.sim.stats import Stats

#: Type of a synthetic instruction-TLB miss schedule: a *pure* function of
#: the retired user-instruction index, so the vocal and mute cores of a
#: pair (which share the schedule) trigger at identical program points.
ITLBSchedule = Callable[[int], bool]

#: Sort key keeping cores in ``CMPSystem.cores`` order.
_core_index = attrgetter("core_id")


class CMPSystem:
    """One simulated CMP running one program per logical processor."""

    def __init__(
        self,
        config: SystemConfig,
        programs: Sequence[Program],
        itlb_schedules: Sequence[ITLBSchedule | None] | None = None,
        options: SimOptions | None = None,
    ) -> None:
        if options is None:
            options = SimOptions.from_env()
        #: The resolved run options (see :class:`repro.sim.options.SimOptions`).
        self.options = options
        #: Simulation kernel: ``"event"`` skips cycles in which no
        #: component can act (bit-identical to per-cycle execution by the
        #: conservative next_event() contract); ``"naive"`` steps every
        #: cycle.
        self.kernel = options.kernel
        if len(programs) != config.n_logical:
            raise ValueError(
                f"need {config.n_logical} programs, got {len(programs)}"
            )
        if itlb_schedules is None:
            itlb_schedules = [None] * config.n_logical
        if len(itlb_schedules) != config.n_logical:
            raise ValueError("need one ITLB schedule (or None) per logical processor")

        self.config = config
        self.stats = Stats()
        self.now = 0
        #: Cycles actually stepped (vs. skipped).  Diagnostic only — the
        #: skip ratio ``1 - steps/now`` differs between kernels, so this
        #: must never be folded into :class:`Stats`.
        self.steps = 0

        mode = config.redundancy.mode
        self.memory = MainMemory(config.memory.latency, config.l2.line_bytes)
        merged_image: dict[int, int] = {}
        for program in programs:
            merged_image.update(program.memory_image)
        self.memory.load_image(merged_image)

        if config.cache_style is CacheStyle.SNOOPY:
            # Private caches: the bus snoops, the banked home-node
            # directories scale (see docs/ARCHITECTURE.md, "Memory
            # system backends").
            if config.bus.coherence is CoherenceStyle.DIRECTORY:
                self.controller = DirectoryBackend(
                    config.bus, self.memory, self.stats
                )
            else:
                self.controller = SnoopyBus(config.bus, self.memory, self.stats)
        else:
            l2_config = config.l2
            if mode is Mode.REUNION:
                # The paper assumes on-chip cache bandwidth scales with
                # the core count (Section 5).
                l2_config = dataclasses.replace(l2_config, banks=2 * l2_config.banks)
            self.controller = SharedL2Controller(l2_config, self.memory, self.stats)

        self.cores: list[OoOCore] = []
        self.pairs: list[LogicalPair] = []
        self.vocal_cores: list[OoOCore] = []

        #: Effective per-pair protection policies (REUNION only; empty
        #: otherwise): explicit ``config.pair_policies``, else ``full``.
        self.pair_policies = (
            resolve_pair_policies(config) if mode is Mode.REUNION else ()
        )

        n = config.n_logical
        for logical in range(n):
            port = CoreMemPort(
                logical,
                config.l1,
                config.tlb,
                self.controller,
                self.stats,
                is_mute=False,
                phantom=config.redundancy.phantom,
            )
            core = OoOCore(
                logical,
                config,
                programs[logical],
                port,
                synthetic_itlb=itlb_schedules[logical],
            )
            if mode is Mode.STRICT:
                # Sized from the core: its list covers the ring's intervals.
                core.gate = StrictCheckGate(config.redundancy, core._f_cap)
            self.cores.append(core)
            self.vocal_cores.append(core)

        if mode is Mode.REUNION:
            for logical in range(n):
                mute_id = n + logical
                port = CoreMemPort(
                    mute_id,
                    config.l1,
                    config.tlb,
                    self.controller,
                    self.stats,
                    is_mute=True,
                    phantom=config.redundancy.phantom,
                )
                mute = OoOCore(
                    mute_id,
                    config,
                    programs[logical],
                    port,
                    synthetic_itlb=itlb_schedules[logical],
                )
                self.cores.append(mute)
                policy = self.pair_policies[logical]
                if policy.mode == "little-mute":
                    mute.set_issue_width(policy.mute_width)
                pair = LogicalPair(
                    logical,
                    self.vocal_cores[logical],
                    mute,
                    self.controller,
                    config,
                    policy=policy,
                )
                self.pairs.append(pair)

        #: Armed telemetry (see :mod:`repro.obs`), or None when off.  The
        #: zero-cost-when-off contract: every emitting site holds this
        #: same reference (or None) and tests it once; a disarmed run
        #: allocates nothing and stays bit-identical.
        self.obs = None
        if options.telemetry_armed:
            from repro.obs.events import Telemetry

            self.obs = Telemetry(
                level=options.trace,
                capacity=options.trace_capacity,
                fingerprint_bits=config.redundancy.fingerprint_bits,
            )
            self.controller.obs = self.obs
            for core in self.cores:
                core.obs = self.obs
            for pair in self.pairs:
                pair.obs = self.obs
                for paired_core in (pair.vocal, pair.mute):
                    paired_core.gate.obs = self.obs
                    paired_core.gate.obs_source = f"core{paired_core.core_id}"

        if options.execution == "replay":
            # Replay opens a mirror window from reset: the mute is a
            # provably identical copy of the vocal until the first
            # asymmetry trigger, when its state is materialized and the
            # pair falls back to dual execution for good (see
            # repro.core.mirror); "dual" re-executes everything on the
            # mute.  A window covers only the symmetric prefix before the
            # pair's first memory access: in-window the pair touches no
            # shared structure at all, so skipping the mute is invisible
            # to every other pair under any coherence backend.  Arming is
            # therefore safe per-pair even on MANYCORE systems; each pair
            # falls back to dual execution at its own first trigger.
            # Every pair arms, unless its mute is not the vocal's
            # automaton (little-mute) or is parked (unprotected);
            # enable_replay checks.
            for pair in self.pairs:
                pair.enable_replay()

    # -- simulation loop ----------------------------------------------------
    def step(self) -> None:
        """Advance exactly one cycle (the public per-cycle API)."""
        self.steps += 1
        now = self.now
        for core in self.cores:
            if core.mirror_passive:
                # A mirrored mute is a virtual copy of its vocal; its
                # state is materialized by the pair at window exit, and
                # its close events are its vocal's, echoed in its slot.
                if self.obs is not None:
                    core.pair.echo_mute()
                continue
            core.step(now)
        for pair in self.pairs:
            pair.step(now)
        self.now = now + 1

    def _observe_step(self) -> None:
        """Post-step telemetry bookkeeping (armed runs only).

        Keeps :attr:`Telemetry.last_cycle` current for emitters below
        the timing layer, and cuts a metrics row whenever ``now``
        crosses the sampler's next interval boundary.  Read-only with
        respect to simulator state — armed runs stay bit-identical.
        """
        obs = self.obs
        obs.last_cycle = self.now
        if self.now >= obs.metrics.next_sample_at:
            obs.metrics.sample(self, self.now)

    def run(self, cycles: int) -> None:
        """Advance the system by exactly ``cycles`` cycles."""
        end = self.now + cycles
        if self.kernel == "naive":
            observing = self.obs is not None
            while self.now < end:
                self.step()
                if observing:
                    self._observe_step()
        elif self.now < end:
            self._event_loop(end, until_idle=False)
        self._mirror_sync()

    def run_until_idle(self, max_cycles: int | None = None) -> int:
        """Run until every logical processor has halted; returns cycles.

        ``max_cycles`` defaults to ``options.max_cycles``.  The event
        kernel never skips past the bound, so the timeout fires at the
        identical cycle count as the naive per-cycle loop.
        """
        if max_cycles is None:
            max_cycles = self.options.max_cycles
        if self.kernel == "naive":
            observing = self.obs is not None
            while not self.idle and self.now < max_cycles:
                self.step()
                if observing:
                    self._observe_step()
        elif not self.idle and self.now < max_cycles:
            self._event_loop(max_cycles, until_idle=True)
        if not self.idle:
            raise RuntimeError(f"system did not halt within {max_cycles} cycles")
        self._mirror_sync()
        return self.now

    def _event_loop(self, end: int, until_idle: bool) -> None:
        """The event kernel: step only the cores and pairs that are due.

        Runs from ``now`` to ``end``, or, with ``until_idle``, until the
        system is idle after a stepped cycle.  Each stepped cycle visits
        the due components in :meth:`step`'s order, cores by index (which
        is core-id order), then pairs; every other cycle is skipped.  By
        the conservative ``next_event`` contract the result is
        bit-identical to calling :meth:`step` once per cycle.

        A core is *awake* (``_skip_until == 0``) while it is due on the
        next cycle: awake cores wait in a plain ordered list, so a core
        that steps every cycle never touches a heap.  A core whose
        horizon lies later *sleeps* until it (``_skip_until``), on a
        heap.  Its skipped cycles go into its ``cycles`` when it wakes,
        when its pair steps on its own horizon or re-arms it, and when
        control returns.  Mirrored and parked mutes are never stepped:
        their counters come from the vocal (``LogicalPair.mirror_sync``).

        A pair is due when one of its cores steps, and at its own
        ``next_event`` horizon, which is computed only while both its
        cores sleep: an awake core's step brings the pair along anyway.
        During a run, only a pair's step changes a core from outside
        that core's own step, and it flags each core it touched
        (``OoOCore._rearm``).  A flagged sleeping core's horizon is
        recomputed right after that pair step; an awake core steps on
        the next cycle regardless.  Callers may change anything between
        runs, so every horizon is computed afresh on entry.
        """
        cores = self.cores
        pairs = self.pairs
        now = self.now
        steps = self.steps
        # (cycle, core id) and (cycle, pair bit) entries; an entry is live
        # while its component's ``_skip_until`` still equals its cycle.
        heap: list[tuple[int, int]] = []
        pair_heap: list[tuple[int, int]] = []
        # First cycle missing from each sleeping core's ``cycles``; NEVER
        # for a mute whose counters its vocal supplies.
        synced = [now] * len(cores)
        for core in cores:
            core._rearm = False
            if core.mirror_passive:
                core._skip_until = NEVER  # until a mirror exit re-arms it
                synced[core.core_id] = NEVER
                continue
            core._skip_until = t = max(core.next_event(now), now)
            if t < NEVER:
                heappush(heap, (t, core.core_id))
        # A set of pairs is an int with one bit per pair, in ``pairs`` order.
        bit_of = dict.fromkeys(cores, 0)  # a core's pair bit (0: unpaired)
        pair_of_bit = {}
        for index, pair in enumerate(pairs):
            bit = 1 << index
            bit_of[pair.vocal] = bit_of[pair.mute] = bit
            pair_of_bit[bit] = pair
            pair._skip_until = t = max(pair.next_event(now), now)
            if t < NEVER:
                heappush(pair_heap, (t, bit))
        # Armed telemetry only: a mirrored mute echoes its vocal's close
        # events at its own slot in the core order.
        observing = self.obs is not None
        echo_of = {}
        if observing:
            echo_of = {p.vocal: p.mute for p in pairs if p.mute.mirror_passive}

        def rearm(core: OoOCore, following: int, awake: list[OoOCore]) -> None:
            """Recompute a flagged sleeping core's horizon after its pair
            stepped at ``following - 1``."""
            core._rearm = False
            if core.mirror_passive:
                return  # a parked mute never steps
            index = core.core_id
            lag = following - synced[index]
            if lag > 0:  # negative for a mute materialized from its vocal
                core.cycles += lag
            synced[index] = following
            t = core.next_event(following)
            if t <= following:
                core._skip_until = 0
                insort(awake, core, key=_core_index)
            elif t != core._skip_until:
                core._skip_until = t
                if t < NEVER:
                    heappush(heap, (t, index))

        due: list[OoOCore] = []  # cores due at ``now``, by index
        own = 0  # pairs due at ``now`` on their own horizon
        last_due = None
        pair_due: list[LogicalPair] = []
        try:
            while True:
                if not due and not own:
                    # Nothing awake: skip to the earliest live horizon.
                    while heap and cores[heap[0][1]]._skip_until != heap[0][0]:
                        heappop(heap)
                    while (
                        pair_heap
                        and pair_of_bit[pair_heap[0][1]]._skip_until != pair_heap[0][0]
                    ):
                        heappop(pair_heap)
                    now = heap[0][0] if heap else NEVER
                    if pair_heap and pair_heap[0][0] < now:
                        now = pair_heap[0][0]
                if now >= end:
                    now = end
                    break
                following = now + 1
                if heap and heap[0][0] == now:
                    woken = []
                    while heap and heap[0][0] == now:
                        index = heappop(heap)[1]
                        core = cores[index]
                        if core._skip_until == now:
                            core._skip_until = 0
                            core.cycles += now - synced[index]
                            woken.append(core)
                    if woken:
                        due = sorted(due + woken, key=_core_index) if due else woken
                while pair_heap and pair_heap[0][0] == now:
                    bit = heappop(pair_heap)[1]
                    pair = pair_of_bit[bit]
                    if pair._skip_until == now:
                        own |= bit
                        # Its step may read its sleeping cores' counters:
                        # a mirror exit copies the vocal's to the mute.
                        for core in (pair.vocal, pair.mute):
                            if core._skip_until and not core.mirror_passive:
                                core.cycles += following - synced[core.core_id]
                                synced[core.core_id] = following
                if echo_of:
                    mutes = [
                        echo_of[core]
                        for core in due
                        if core in echo_of and echo_of[core].mirror_passive
                    ]
                    if mutes:
                        due = sorted(due + mutes, key=_core_index)
                if own or due != last_due:
                    # The due pairs: every stepping core's, plus those
                    # on their own horizon.  Unchanged while the same
                    # cores step cycle after cycle.
                    bits = own
                    for core in due:
                        bits |= bit_of[core]
                    pair_due = []
                    while bits:
                        low = bits & -bits
                        pair_due.append(pair_of_bit[low])
                        bits ^= low
                    last_due = None if own else due
                    own = 0

                steps += 1
                awake = []
                for core in due:
                    if core.mirror_passive:
                        core.pair.echo_mute()
                        continue
                    core.step(now)
                    t = core.next_event(following)
                    if t <= following:
                        awake.append(core)
                    else:
                        core._skip_until = t
                        core._rearm = False
                        synced[core.core_id] = following
                        if t < NEVER:
                            heappush(heap, (t, core.core_id))
                for pair in pair_due:
                    pair.step(now)
                    mute = pair.mute
                    if mute._skip_until and mute._rearm:
                        rearm(mute, following, awake)
                    vocal = pair.vocal
                    if vocal._skip_until:
                        if vocal._rearm:
                            rearm(vocal, following, awake)
                        if vocal._skip_until and mute._skip_until:
                            t = pair.next_event(following)
                            pair._skip_until = t
                            if t < NEVER:
                                heappush(pair_heap, (t, bit_of[vocal]))
                now = following
                due = awake
                if observing:
                    self.now = now
                    self._observe_step()
                if until_idle and self.idle:
                    break
        finally:
            self.now = now
            self.steps = steps
            for core in cores:
                if core._skip_until and not core.mirror_passive:
                    core.cycles += now - synced[core.core_id]

    def _mirror_sync(self) -> None:
        """Bring mirrored mute cores' observable counters up to date.

        Called whenever control returns to the caller, who may read
        per-core statistics or architectural state directly while a
        mirror window is still open.
        """
        for pair in self.pairs:
            pair.mirror_sync()

    @property
    def idle(self) -> bool:
        if any(pair.failed for pair in self.pairs):
            return True
        return all(core.idle for core in self.vocal_cores)

    @property
    def failed(self) -> bool:
        return any(pair.failed for pair in self.pairs)

    # -- external interrupts -----------------------------------------------------
    def post_interrupt(self, logical_id: int, handler=None) -> int:
        """Deliver an external interrupt to one logical processor.

        In Reunion mode the request is replicated to both cores of the
        pair and aligned on a fingerprint-interval boundary; otherwise
        the single core services it after its in-flight window drains.
        """
        for pair in self.pairs:
            if pair.pair_id == logical_id:
                return pair.post_interrupt(handler)
        from repro.core.pair import default_interrupt_handler

        core = self.vocal_cores[logical_id]
        target = core.user_retired + self.config.core.rob_size
        if handler is None:
            handler = default_interrupt_handler()
        core.schedule_interrupt(target, handler)
        return target

    # -- dual-use reconfiguration -------------------------------------------------
    def decouple(self, logical_id: int, program: Program) -> OoOCore:
        """Split a Reunion pair into two independent logical processors.

        The paper's introduction motivates a dual-use design: "a single
        design can provide a dual-use capability by supporting both
        redundant and non-redundant execution."  The pair is quiesced at
        its last compared instruction; the vocal continues its program
        without checking, and the freed mute core is promoted to vocal,
        its (potentially incoherent) L1 discarded, and started on
        ``program``.  Returns the promoted core.
        """
        pair = self._pair_for(logical_id)
        pair.disable_replay()
        now = self.now
        vocal, mute = pair.vocal, pair.mute
        # Quiesce at the last compared instruction (safe state).
        vocal.drain_cleared(now)
        mute.drain_cleared(now)
        resume = vocal.next_retire_pc()
        penalty = self.config.redundancy.rollback_penalty
        vocal.flush_for_recovery(resume, now, penalty)

        # The vocal becomes a plain, unchecked core.
        vocal.gate = ImmediateGate()
        vocal.pair_sync_atomics = False

        # The mute is promoted: wipe incoherent cache state, rejoin the
        # coherence protocol, and start the new program.  Undo any
        # policy shaping: a parked (unprotected) mute re-enters the step
        # loop, a little mute gets its full issue width back.
        mute.mirror_passive = False
        mute.set_issue_width(self.config.core.width)
        mute.port.l1.clear()
        mute.port.mshrs.clear()
        mute.port.is_mute = False
        self.controller.set_role(mute.core_id, is_mute=False)
        self.controller.install_image(program.memory_image)
        mute.hard_reset(program, now)
        mute.gate = ImmediateGate()
        mute.pair_sync_atomics = False
        mute.synthetic_itlb = None  # the new program has its own TLB character

        vocal.pair = None
        mute.pair = None
        self.pairs.remove(pair)
        self.vocal_cores.append(mute)
        return mute

    def couple(self, logical_id: int, partner: OoOCore) -> LogicalPair:
        """Re-form a logical pair: ``partner`` becomes the mute again.

        The partner's current work is abandoned; it is demoted out of the
        coherence protocol (dirty lines written back first), initialized
        from the vocal's architectural state, and redundant execution
        resumes from the vocal's next instruction.
        """
        vocal = self.vocal_cores[logical_id]
        if partner is vocal or any(p.vocal is partner or p.mute is partner for p in self.pairs):
            raise ValueError("partner core is not available for coupling")
        now = self.now

        # Demote the partner: leave the directory cleanly.
        for line_addr in partner.port.l1.resident_lines():
            line = partner.port.l1.invalidate(line_addr)
            self.controller.vocal_evict(
                partner.core_id, line_addr, line.data, line.dirty
            )
        partner.port.mshrs.clear()
        partner.port.is_mute = True
        self.controller.set_role(partner.core_id, is_mute=True)

        # Quiesce the vocal and initialize the mute from its safe state.
        vocal.drain_cleared(now)
        resume = vocal.next_retire_pc()
        penalty = (
            self.config.redundancy.rollback_penalty
            + self.config.redundancy.arf_copy_latency
        )
        vocal.flush_for_recovery(resume, now, penalty)
        partner.hard_reset(vocal.program, now)
        partner.arf.copy_from(vocal.arf)
        partner.pc = resume
        partner.synthetic_itlb = vocal.synthetic_itlb
        partner.stall_fetch_until = max(partner.stall_fetch_until, now + penalty)

        # A re-formed pair stays in dual execution: mirror windows only
        # arm from pristine reset state (see LogicalPair.enable_replay),
        # and this pair resumes mid-program.  It re-adopts the logical
        # slot's resolved protection policy (little-mute narrowing
        # included).
        policy = (
            self.pair_policies[logical_id]
            if logical_id < len(self.pair_policies)
            else None
        )
        if policy is not None and policy.mode == "little-mute":
            partner.set_issue_width(policy.mute_width)
        pair = LogicalPair(
            logical_id, vocal, partner, self.controller, self.config, policy=policy
        )
        if partner in self.vocal_cores:
            self.vocal_cores.remove(partner)
        self.pairs.append(pair)
        return pair

    def _pair_for(self, logical_id: int) -> LogicalPair:
        for pair in self.pairs:
            if pair.pair_id == logical_id:
                return pair
        raise KeyError(f"no active pair for logical processor {logical_id}")

    # -- metrics ---------------------------------------------------------------
    def user_instructions(self) -> int:
        """Aggregate user instructions committed (the paper's throughput metric)."""
        return sum(core.user_retired for core in self.vocal_cores)

    def ipc(self) -> float:
        return self.user_instructions() / self.now if self.now else 0.0

    def recoveries(self) -> int:
        return sum(pair.recoveries for pair in self.pairs)

    def tlb_misses(self) -> int:
        """Data + (synthetic) instruction TLB misses on the vocal cores."""
        return sum(core.dtlb_misses + core.itlb_misses for core in self.vocal_cores)

    def collect_stats(self) -> Stats:
        """Fold per-core counters into the shared Stats bag and return it.

        :class:`Stats` is the *architectural* record: every counter in it
        must be bit-identical across simulation strategies (naive/event
        kernel, dual/replay execution, telemetry on/off), because the
        differential tests compare whole snapshots.  Strategy-dependent
        diagnostics — :attr:`steps`, ``pair.mirror_cycles``, anything in
        :mod:`repro.obs` — must therefore never be folded in here.
        ``tests/sim/test_stats_diagnostics.py`` asserts the exclusion.
        """
        self._mirror_sync()
        for core in self.cores:
            prefix = f"core{core.core_id}."
            self.stats.set(prefix + "cycles", core.cycles)
            self.stats.set(prefix + "user_retired", core.user_retired)
            self.stats.set(prefix + "total_retired", core.total_retired)
            self.stats.set(prefix + "injected_retired", core.injected_retired)
            self.stats.set(prefix + "dtlb_misses", core.dtlb_misses)
            self.stats.set(prefix + "itlb_misses", core.itlb_misses)
            self.stats.set(prefix + "mispredicts", core.mispredicts)
            self.stats.set(prefix + "serializing_retired", core.serializing_retired)
        for pair in self.pairs:
            pair.collect_stats(self.stats)
        self.stats.set("system.cycles", self.now)
        self.stats.set("system.user_instructions", self.user_instructions())
        return self.stats
