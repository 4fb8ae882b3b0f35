"""The Spatula simulation engine.

Cycle-accurate discrete-event simulation of a whole factorization on the
machine of :class:`~repro.arch.config.SpatulaConfig`.  Components (PEs,
cache banks, NoC ports, HBM channels, the dispatcher, the supernode
scheduler) are modeled as reservation resources at single-cycle
resolution; PEs execute tasks at task granularity with fixed systolic
latencies, exactly the granularity the paper's own simulator uses
(Section 6).

The engine enforces the architecture's correctness rules and asserts them
at runtime: tasks dispatch only when their scoreboard dependences are
resolved, generators dispatch in-order (unless the dataflow ablation
widens the window), and supernodes launch only after all children are
fully factored.

Host cost per event does not grow with the machine: the dispatcher keeps
incremental state instead of rescanning generators and PEs after every
retired task (docs/SIMULATOR.md, "Host-side state").
"""

from __future__ import annotations

import heapq
import logging
import math

import numpy as np

from repro.arch.cache import BankedCache
from repro.arch.config import SpatulaConfig
from repro.arch.generator import Generator
from repro.arch.memory import HBMModel
from repro.arch.noc import CrossbarPort
from repro.arch.pe import PE, PendingTask
from repro.arch.scheduler import SupernodeScheduler
from repro.arch.stats import SimReport
from repro.arch.systolic import task_latency
from repro.arch.trace import TraceEvent
from repro.obs import MetricsRegistry, span
from repro.symbolic.tiling import front_tile_footprint_bytes
from repro.tasks.plan import FactorizationPlan
from repro.tasks.task import TaskType, TileRef

logger = logging.getLogger(__name__)

_A_ENTRY_BYTES = 12  # 8-byte value + 4-byte packed coordinate

# Event kinds: indices into the handler tuple run() binds.
_PE_TRY, _EXEC_DONE, _TASK_FINAL, _PUMP = range(4)

# A PE's dispatch rank is slots_free * _RANK_SCALE - array_free: one
# integer ordered like (slots_free, -array_free), as no cycle count
# reaches the scale.
_RANK_SCALE = 1 << 62


class SimulationStuck(AssertionError):
    """A simulation that cannot make progress, or ran past a ``run()``
    limit.  ``report`` is the stuck scoreboard: what each live generator,
    PE and the supernode scheduler were waiting on."""

    def __init__(self, why: str, report: dict) -> None:
        super().__init__(f"{why}: {report}")
        self.report = report


class SpatulaSim:
    """One simulation run: construct, then :meth:`run` once."""

    def __init__(
        self,
        plan: FactorizationPlan,
        config: SpatulaConfig | None = None,
        matrix_name: str = "",
        executor=None,
        trace: bool = False,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        """Args:
            plan: tiled execution plan (see repro.tasks.plan.build_plan).
            config: hardware configuration; defaults to the paper machine.
            matrix_name: label stamped into the report.
            executor: optional repro.arch.functional.TileExecutor; when
                given, every retired task also runs its numeric kernel so
                the simulation computes the real factorization (checkable
                with executor.verify()).
            trace: record a per-task execution trace in ``self.trace``
                (see repro.arch.trace for renderers/exporters).
            metrics: registry to export component counters into at end of
                run (a fresh one is created otherwise); the run costs the
                same either way — components count into plain slots during
                the run and are folded into the registry exactly once.
        """
        self.plan = plan
        self.config = config or SpatulaConfig.paper()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if self.config.tile != plan.tile:
            raise ValueError(
                f"plan tiled at T={plan.tile} but config tile is "
                f"{self.config.tile}; rebuild the plan"
            )
        self.matrix_name = matrix_name
        self.executor = executor
        self.trace: list | None = [] if trace else None

        cfg = self.config
        self.hbm = HBMModel(cfg)
        self.cache = BankedCache(cfg, self.hbm)
        self.cache.classify_store = self._classify_store
        self.pes = [
            PE(index=i, n_slots=cfg.task_slots,
               port=CrossbarPort(cfg.pe_port_bytes_per_cycle),
               wport=CrossbarPort(cfg.pe_port_bytes_per_cycle))
            for i in range(cfg.n_pes)
        ]
        self.snsched = SupernodeScheduler(
            tree=plan.symbolic.tree, config=cfg
        )
        # Derived config quantities, read once instead of once per access.
        self._tile_cycles = cfg.tile_transfer_cycles
        self._max_in_flight = self.snsched.max_in_flight

        # Tile address space, numbered (and classified result/spill) in
        # first-touch order.
        self._addr_of: dict[TileRef, int] = {}
        self._addr_is_result: list[bool] = []

        # Active generators, keyed by supernode index.
        self.gens: dict[int, Generator] = {}
        self._free_pe_bindings = list(range(cfg.n_pes - 1, -1, -1))

        # Incremental dispatch state: the generators that may have a
        # dispatchable task (touched only where readiness can change),
        # the machine-wide count of free task slots, one rank per PE.
        self._ready: set[int] = set()
        self._slots_free = cfg.n_pes * cfg.task_slots
        self._pe_rank = [cfg.task_slots * _RANK_SCALE] * cfg.n_pes

        # Event queue.
        self._events: list[tuple[int, int, int, object]] = []
        self._seq = 0
        self._now = 0
        # Earliest outstanding pe_try wakeup per PE (dedupe guard).
        self._pe_wake: list[int | None] = [None] * cfg.n_pes

        # Resources with busy-until semantics.
        self._dispatcher_free = 0
        self._next_activation = 0

        # Statistics.
        self._machine_flops = 0
        self._n_tasks_done = 0
        self._n_tasks_total = 0
        self._sn_started: dict[int, int] = {}
        self._sn_intervals: list[tuple[int, int]] = []
        self._gen_peak_outstanding: list[int] = []
        self._last_cycle = 0
        # Live-data footprint tracking (Section 5.2's memory argument):
        # active fronts plus update matrices produced but not yet consumed
        # by their parent (the component post-order traversal minimizes).
        self._live_front_bytes = 0
        self._live_update_bytes = 0
        self.peak_live_front_bytes = 0

        # Compulsory input-traffic bytes per supernode.
        self._comp_bytes = self._compulsory_bytes()

    # -- setup helpers -----------------------------------------------------

    def _compulsory_bytes(self) -> list[int]:
        """Bytes of A read when assembling each supernode's front."""
        permuted = self.plan.symbolic.permuted
        col_nnz = np.diff(permuted.indptr)
        if self.plan.kind == "lu":
            col_nnz = col_nnz + np.diff(permuted.transpose().indptr)
        # Supernodes partition the columns in index order.
        first_cols = [sn.first_col
                      for sn in self.plan.symbolic.tree.supernodes]
        return (_A_ENTRY_BYTES
                * np.add.reduceat(col_nnz, first_cols)).tolist()

    def _new_addr(self, ref: TileRef) -> int:
        """First touch of a tile: the next address, classified once."""
        addr = self._addr_of[ref] = len(self._addr_is_result)
        plan = self.plan.supernodes[ref.sn]
        lead = ref.block_col if plan.symmetric \
            else min(ref.block_row, ref.block_col)
        self._addr_is_result.append(lead < plan.grid.n_pivot_blocks)
        return addr

    def _classify_store(self, addr: int) -> str:
        return "store_result" if self._addr_is_result[addr] \
            else "store_spill"

    # -- event machinery -----------------------------------------------------

    def _schedule(self, cycle: int, kind: int, payload: object) -> None:
        self._seq += 1
        heapq.heappush(self._events, (cycle, self._seq, kind, payload))

    def _schedule_pe_try(self, pe_index: int, cycle: int) -> None:
        """Schedule a PE wakeup, keeping at most one live wakeup per PE
        (the earliest); redundant later wakeups are never enqueued and
        superseded ones are dropped when they fire."""
        current = self._pe_wake[pe_index]
        if current is not None and current <= cycle:
            return
        self._pe_wake[pe_index] = cycle
        self._seq += 1
        heapq.heappush(self._events, (cycle, self._seq, _PE_TRY, pe_index))

    # -- supernode activation ---------------------------------------------------

    def _activate(self, sn_index: int, cycle: int) -> None:
        graph = self.plan.task_graph(sn_index, order=self.config.order)
        gen = Generator(
            sn=sn_index, graph=graph, window=self.config.dataflow_window
        )
        if self.config.policy == "inter":
            gen.pe_binding = self._free_pe_bindings.pop()
        self.gens[sn_index] = gen
        self._ready.add(sn_index)
        self._n_tasks_total += graph.n_tasks
        self._sn_started[sn_index] = cycle
        self._live_front_bytes += self._front_bytes(sn_index)
        self._track_peak_footprint()
        if self.executor is not None:
            self.executor.init_front(sn_index)
        # Compulsory read of A's entries for this front.
        self.hbm.read_bulk(self._comp_bytes[sn_index], cycle, "comp_load")
        if graph.n_tasks == 0:
            # Degenerate empty supernode (cannot occur for n_cols >= 1, but
            # keep the engine total): complete immediately.
            self._finish_supernode(gen, cycle)

    def _front_bytes(self, sn_index: int) -> int:
        plan = self.plan.supernodes[sn_index]
        return front_tile_footprint_bytes(plan.grid, plan.symmetric)

    def _update_bytes(self, sn_index: int) -> int:
        sn = self.plan.symbolic.tree.supernodes[sn_index]
        u = sn.n_update_rows
        entries = u * (u + 1) // 2 if self.plan.kind == "cholesky" \
            else u * u
        return entries * 8

    def _track_peak_footprint(self) -> None:
        self.peak_live_front_bytes = max(
            self.peak_live_front_bytes,
            self._live_front_bytes + self._live_update_bytes,
        )

    def _finish_supernode(self, gen: Generator, cycle: int) -> None:
        self._live_front_bytes -= self._front_bytes(gen.sn)
        # This supernode's update matrix stays live until the parent
        # consumes it; its children's updates are now consumed.
        self._live_update_bytes += self._update_bytes(gen.sn)
        for child in self.plan.symbolic.tree.supernodes[gen.sn].children:
            self._live_update_bytes -= self._update_bytes(child)
        self._track_peak_footprint()
        self._gen_peak_outstanding.append(gen.peak_outstanding)
        del self.gens[gen.sn]  # and with it the graph's per-task tables
        self._ready.discard(gen.sn)
        if gen.pe_binding >= 0:
            self._free_pe_bindings.append(gen.pe_binding)
        self._sn_intervals.append((self._sn_started[gen.sn], cycle))
        self.snsched.complete(gen.sn)

    # -- dispatch --------------------------------------------------------------

    def _pick_pe(self, gen: Generator) -> PE | None:
        """The PE with the most free slots, then the earliest-free array,
        then the lowest index (index() takes the first of equal ranks)."""
        if gen.pe_binding >= 0:
            pe = self.pes[gen.pe_binding]
            return pe if len(pe.pending) < pe.n_slots else None
        if not self._slots_free:
            return None
        return self.pes[self._pe_rank.index(max(self._pe_rank))]

    def _dispatch(self, gen: Generator, task_index: int, pe: PE,
                  now: int) -> None:
        t0 = max(now, self._dispatcher_free)
        self._dispatcher_free = t0 + self.config.dispatch_interval
        task = gen.graph.tasks[task_index]
        gen.mark_dispatched(task_index)

        miss_kind = (
            "gather_load" if task.ttype is TaskType.GATHER else "factor_load"
        )
        addr_of, load = self._addr_of, self.cache.load
        reserve_port, tile_cycles = pe.port.reserve_cycles, self._tile_cycles
        done_times: list[int] = []
        for ref in gen.graph.fetch[task_index]:
            addr = addr_of.get(ref)
            if addr is None:
                addr = self._new_addr(ref)
            done_times.append(
                reserve_port(load(addr, t0, miss_kind), tile_cycles)
            )
        # Runnable once the destination tile and the first input pair have
        # arrived; the remaining inputs stream through the FIFO.  (The one
        # PE port serializes the transfers, so done_times is increasing.)
        lead = done_times[min(3, len(done_times)) - 1]
        pe.add_pending(PendingTask(
            gen.sn, task_index, op_ready=lead, stream_done=done_times[-1],
            latency=task_latency(task, self.config), dispatched_at=t0,
        ))
        self._slots_free -= 1
        self._pe_rank[pe.index] -= _RANK_SCALE
        self._schedule_pe_try(pe.index, max(lead, pe.array_free))

    def _pump(self, now: int) -> None:
        # Launch ready supernodes onto free generators.
        while (
            len(self.gens) < self._max_in_flight
            and self.snsched.has_ready()
        ):
            if now < self._next_activation:
                self._schedule(self._next_activation, _PUMP, None)
                break
            sn = self.snsched.pop_ready()
            self._activate(sn, now)
            self._next_activation = now + self.config.activation_interval

        # Dispatch, biased toward older (smaller-index) supernodes: always
        # the first ready task of the oldest generator with both a ready
        # task and a PE to take it.  One ascending pass equals restarting
        # from the oldest after each dispatch, because a dispatch never
        # helps an older generator: it resolves no dependence (only a
        # retire does, and every retire pumps) and only takes a slot away.
        if not self._slots_free:
            return
        for sn in sorted(self._ready):
            gen = self.gens[sn]
            while True:
                task_index = gen.first_ready()
                if task_index < 0:
                    self._ready.discard(sn)
                    break
                pe = self._pick_pe(gen)
                if pe is None:
                    break
                self._dispatch(gen, task_index, pe, now)

    # -- event handlers -----------------------------------------------------------

    def _on_pe_try(self, pe_index: int, now: int) -> None:
        if self._pe_wake[pe_index] != now:
            return  # superseded by an earlier wakeup
        self._pe_wake[pe_index] = None
        pe = self.pes[pe_index]
        if pe.array_free > now:
            if pe.pending:
                self._schedule_pe_try(pe_index, pe.array_free)
            return
        item = pe.pick_runnable(now)
        if item is None:
            wake = pe.next_wakeup()
            if wake is not None and wake > now:
                self._schedule_pe_try(pe_index, wake)
            return
        ttype = self.gens[item.gen_sn].graph.tasks[item.task_index].ttype
        end = pe.start_execution(item, now, ttype)
        self._slots_free += 1
        self._pe_rank[pe_index] = (
            (pe.n_slots - len(pe.pending)) * _RANK_SCALE - end
        )
        if self.trace is not None:
            self.trace.append(TraceEvent(
                pe=pe_index, start=now, end=end, ttype=ttype.value,
                sn=item.gen_sn, task_index=item.task_index,
                dispatch=item.dispatched_at, op_ready=item.op_ready,
            ))
        self._schedule(end, _EXEC_DONE,
                       (pe_index, item.gen_sn, item.task_index))
        if pe.pending:
            self._schedule_pe_try(pe_index, max(end, pe.next_wakeup()))

    def _on_exec_done(self, payload: tuple, now: int) -> None:
        pe_index, gen_sn, task_index = payload
        pe = self.pes[pe_index]
        dest = self.gens[gen_sn].graph.tasks[task_index].dest
        # Write the destination tile (fetched, so addressed, at dispatch)
        # back to the cache (write direction).
        port_done = pe.reserve_write_port(now, self._tile_cycles)
        wb_done = self.cache.store(self._addr_of[dest], port_done)
        self._schedule(wb_done, _TASK_FINAL, payload)
        # The array is free: try the next runnable task.
        if pe.pending:
            self._schedule_pe_try(pe_index, now)

    def _on_task_final(self, payload: tuple, now: int) -> None:
        _pe_index, gen_sn, task_index = payload
        gen = self.gens[gen_sn]
        task = gen.graph.tasks[task_index]
        self._machine_flops += task.flops
        self._n_tasks_done += 1
        if self.executor is not None:
            self.executor.execute(task)
        if gen.on_complete(task_index):
            self._ready.add(gen_sn)
        if gen.done:
            self._finish_supernode(gen, now)
        self._pump(now)

    # -- main loop --------------------------------------------------------------

    def _stuck(self, why: str) -> SimulationStuck:
        sched = self.snsched
        return SimulationStuck(why, {
            "cycle": self._now,
            "generators": [
                {"sn": g.sn, "head": g.head, "done": f"{g.n_done}/{g.n_tasks}",
                 "head_indegree":
                     g.indegree[g.head] if g.head < g.n_tasks else None}
                for g in self.gens.values()],
            "pe_pending": [len(pe.pending) for pe in self.pes],
            "supernodes": {"ready": sched.n_ready, "completed":
                           f"{sched.n_completed}/{self.plan.n_supernodes}"},
        })

    def run(self, max_cycles: int | None = None,
            max_events: int | None = None) -> SimReport:
        """Execute the simulation and return the report.  Going past a
        ``max_cycles`` / ``max_events`` watchdog limit (none by default),
        like ending with supernodes unfinished, raises SimulationStuck."""
        logger.debug(
            "simulating %s: %d supernodes on %d PEs",
            self.matrix_name or "<unnamed>", self.plan.n_supernodes,
            self.config.n_pes,
        )
        cycle_limit = math.inf if max_cycles is None else max_cycles
        event_limit = math.inf if max_events is None else max_events
        # Bound here, not in __init__: tests wrap handlers on the instance.
        handlers = (self._on_pe_try, self._on_exec_done,
                    self._on_task_final,
                    lambda _payload, now: self._pump(now))
        events = self._events
        with span("sim.run"):
            self._pump(0)
            n_events = 0
            while events:
                cycle, _seq, kind, payload = heapq.heappop(events)
                n_events += 1
                if cycle > cycle_limit or n_events > event_limit:
                    raise self._stuck(
                        f"watchdog: event {n_events} at cycle {cycle} past "
                        f"max_cycles={max_cycles} / max_events={max_events}")
                if cycle > self._now:
                    self._now = cycle
                handlers[kind](payload, cycle)
            if not self.snsched.all_done:
                raise self._stuck("events drained, supernodes unfinished")
            end = self.cache.flush_results(
                self._now, self._addr_is_result.__getitem__)
            end = max(end, self.hbm.drain_cycle(), self._now)
            self._last_cycle = int(end)
            report = self._report()
        logger.info("simulated %s", report.summary())
        return report

    def _export_metrics(self, registry: MetricsRegistry) -> None:
        """Fold every component's raw counters into the registry.

        Runs exactly once, at end of run — the hierarchical names here
        (``sim.*``, ``pe.*``, ``noc.*``, ``cache.*``, ``hbm.*``,
        ``scheduler.*``, ``generator.*``) are the registry namespace
        documented in docs/OBSERVABILITY.md.
        """
        registry.gauge("sim.cycles").set(self._last_cycle)
        registry.gauge("sim.n").set(self.plan.symbolic.n)
        registry.counter("sim.tasks").inc(self._n_tasks_done)
        registry.counter("sim.supernodes").inc(self.plan.n_supernodes)
        registry.counter("sim.machine_flops").inc(self._machine_flops)
        registry.counter("sim.algorithmic_flops").inc(
            self.plan.symbolic.flops
        )
        registry.gauge("sim.peak_live_front_bytes").set(
            self.peak_live_front_bytes
        )

        busy: dict[TaskType, int] = {t: 0 for t in TaskType}
        port_stalls = wport_stalls = 0
        port_busy = wport_busy = 0
        for pe in self.pes:
            registry.counter(f"pe.{pe.index}.busy_cycles").inc(
                pe.busy_total
            )
            registry.counter(f"pe.{pe.index}.port_stall_cycles").inc(
                pe.port.stall_cycles
            )
            registry.counter(f"pe.{pe.index}.wport_stall_cycles").inc(
                pe.wport.stall_cycles
            )
            for ttype, cycles in pe.busy_by_type.items():
                busy[ttype] += cycles
            port_stalls += pe.port.stall_cycles
            wport_stalls += pe.wport.stall_cycles
            port_busy += pe.port.busy_cycles
            wport_busy += pe.wport.busy_cycles
        for ttype, cycles in busy.items():
            registry.counter(f"pe.busy_cycles.{ttype.value}").inc(cycles)
        registry.counter("noc.port.stall_cycles").inc(port_stalls)
        registry.counter("noc.port.busy_cycles").inc(port_busy)
        registry.counter("noc.wport.stall_cycles").inc(wport_stalls)
        registry.counter("noc.wport.busy_cycles").inc(wport_busy)

        self.cache.stats.export_metrics(registry)
        self.hbm.export_metrics(registry)
        self.snsched.export_metrics(registry)
        gen_hist = registry.histogram("generator.peak_outstanding_tasks")
        for peak in self._gen_peak_outstanding:
            gen_hist.observe(peak)

    def attribution(self) -> dict:
        """Performance attribution for this finished run (schema-v2
        ``RunArtifact.attribution``): per-PE cycle accounting, what-if
        estimates, the critical path, and the utilization timeline.

        Requires ``trace=True`` — the decomposition walks the executed
        timeline's gaps (see :mod:`repro.obs.attribution`).
        """
        from repro.arch.trace import utilization_timeline
        from repro.obs.attribution import attribute_cycles, critical_path

        if self.trace is None:
            raise ValueError(
                "attribution needs the execution trace; construct the sim "
                "with trace=True"
            )
        accounting = attribute_cycles(
            self.trace, self._last_cycle, self.config.n_pes,
            self._sn_intervals, self.metrics,
        )
        path = critical_path(self.trace, self.plan,
                             order=self.config.order)
        return {
            "cycles": accounting.to_dict(),
            "critical_path": path.to_dict(),
            "utilization_timeline": [
                round(float(u), 4)
                for u in utilization_timeline(self.trace,
                                              self.config.n_pes)
            ],
        }

    def _report(self) -> SimReport:
        self._export_metrics(self.metrics)
        return SimReport.from_registry(
            self.metrics,
            config=self.config,
            matrix_name=self.matrix_name,
            kind=self.plan.kind,
            sn_intervals=list(self._sn_intervals),
        )


def simulate(
    matrix,
    kind: str = "cholesky",
    config: SpatulaConfig | None = None,
    ordering: str = "amd",
    matrix_name: str = "",
    symbolic=None,
    plan: FactorizationPlan | None = None,
    check_numerics: bool = False,
    metrics: MetricsRegistry | None = None,
) -> SimReport:
    """Convenience one-call simulation of factoring ``matrix`` on Spatula.

    Args:
        matrix: a :class:`repro.sparse.CSCMatrix` (ignored if ``plan`` is
            given).
        kind: "cholesky" or "lu".
        config: hardware configuration (paper config by default).
        ordering: fill-reducing ordering for the symbolic phase.
        matrix_name: label stamped into the report.
        symbolic: reuse an existing symbolic factorization.
        plan: reuse an existing tiled plan (fastest path for sweeps).
        check_numerics: execute every task's numeric kernel during the
            simulation and assert the computed factor reconstructs the
            matrix (slower; a deep end-to-end check of the scheduler).
        metrics: registry to collect component counters into (see
            :class:`SpatulaSim`).
    """
    from repro.symbolic.analyze import symbolic_factorize
    from repro.tasks.plan import build_plan

    config = config or SpatulaConfig.paper()
    if plan is None:
        if symbolic is None:
            symbolic = symbolic_factorize(matrix, kind=kind,
                                          ordering=ordering)
        plan = build_plan(symbolic, tile=config.tile,
                          supertile=config.supertile)
    executor = None
    if check_numerics:
        from repro.arch.functional import TileExecutor

        executor = TileExecutor(plan, matrix)
    report = SpatulaSim(plan, config, matrix_name=matrix_name,
                        executor=executor, metrics=metrics).run()
    if executor is not None:
        executor.verify()
    return report
