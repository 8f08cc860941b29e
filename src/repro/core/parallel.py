"""Parallel campaign execution: shard experiments over worker processes.

The paper's fault-injection phase (Figure 7) is a serial loop of thousands
of experiments. With a simulated target the campaign is embarrassingly
parallel: every experiment reinitialises the target
(``init_test_card``) and draws its fault from an index-keyed RNG
substream, so experiment *i* produces the same result no matter which
process runs it or in which order. This module exploits that:

* each worker process builds its **own** Framework/simulator instance from
  a picklable factory (:func:`repro.core.framework.worker_factory`) and
  adopts the parent's golden run instead of redoing the reference run
  — nothing mutable is shared;
* experiments are dispatched **by index** in shards; workers execute them
  through the reentrant
  :meth:`~repro.core.algorithms.FaultInjectionAlgorithms.run_single_experiment`
  building block, so parallel results are bit-identical to a serial run
  (asserted by a property test and canonicalised by
  :func:`canonical_experiment_rows`);
* a per-experiment **watchdog** with bounded retry handles hung or crashed
  workers; an experiment that exhausts its retries is logged with a
  ``worker-failure`` termination — never silently dropped;
* results stream back to the parent, which reorders them into index order
  and preserves the Figure-7 semantics: ordered progress snapshots,
  pause/resume/end, and resume-from-sink via ``completed_indices``;
* the parent logs each result in the sink as the serial loop does; the
  sink's own flush policy batches the commits
  (:meth:`repro.db.database.GoofiDatabase.flush`).

Determinism contract: given the same campaign (name, seed, workload,
locations, fault model, trigger) and a deterministic port, the *set* of
logged experiment rows is byte-identical between serial and parallel runs
once the single nondeterministic field — per-experiment wall-clock time —
is canonicalised. The parent verifies each worker's reference-run
fingerprint against its own and refuses to proceed on mismatch.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as _mpc
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.algorithms import (
    ExperimentSchedule,
    FaultInjectionAlgorithms,
    StopCampaign,
    _flush_sink,
    _ListSink,
    _NullControl,
)
from repro.core.campaign import CampaignData
from repro.core.controller import CampaignController
from repro.core.experiment import ExperimentResult, Termination
from repro.observability import (
    Observability,
    ObservabilityConfig,
    configure_worker,
    current_config,
    get_observability,
)
from repro.observability.health import (
    NULL_HEALTH,
    CampaignHealthMonitor,
    set_health,
)
from repro.util.errors import CampaignError

__all__ = [
    "ParallelConfig",
    "ParallelCampaignController",
    "run_parallel_campaign",
    "canonical_experiment_rows",
]

#: Poll interval of the parent event loop (also the pause/stop latency).
_POLL_SECONDS = 0.05


@dataclass
class ParallelConfig:
    """Tuning knobs of the parallel campaign runner."""

    #: Worker processes to fan experiments out over.
    n_workers: int = max(1, os.cpu_count() or 1)
    #: Experiment indices dispatched to a worker per task message.
    shard_size: int = 8
    #: Watchdog: seconds a worker may spend on one experiment before it is
    #: presumed hung and killed. ``None`` disables the watchdog.
    timeout_seconds: Optional[float] = 120.0
    #: How often a failed (hung/crashed/raised) experiment is retried on a
    #: fresh worker before being logged as a ``worker-failure``.
    max_retries: int = 1
    #: multiprocessing start method; ``None`` picks ``fork`` when the
    #: platform offers it (cheap worker start) and ``spawn`` otherwise.
    start_method: Optional[str] = None
    #: Observability shipped to workers (sibling trace files, per-worker
    #: metric deltas). ``None`` inherits the process-global configuration
    #: (:func:`repro.observability.current_config`).
    observability: Optional[ObservabilityConfig] = None
    #: Fraction of statically-derived experiments (equivalence mode) that
    #: are re-executed for real and compared against their derivation;
    #: any divergence aborts the campaign.
    verify_equivalence: float = 0.0
    #: The liveness exit of the parent's schedule (the parallel face of
    #: ``goofi run --no-early-exit``): False derives no row from the
    #: golden run, so every index executes on a worker.
    early_exit: bool = True

    def validate(self) -> None:
        if self.n_workers < 1:
            raise CampaignError("ParallelConfig.n_workers must be >= 1")
        if self.shard_size < 1:
            raise CampaignError("ParallelConfig.shard_size must be >= 1")
        if self.max_retries < 0:
            raise CampaignError("ParallelConfig.max_retries must be >= 0")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise CampaignError(
                "ParallelConfig.timeout_seconds must be positive or None"
            )
        if not 0.0 <= self.verify_equivalence <= 1.0:
            raise CampaignError(
                "ParallelConfig.verify_equivalence must be in [0, 1]"
            )

    def context(self) -> Any:
        method = self.start_method
        if method is None:
            methods = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in methods else "spawn"
        return multiprocessing.get_context(method)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def _reference_fingerprint(reference: Any) -> Tuple[int, int, str]:
    return (
        int(reference.duration_cycles),
        int(reference.duration_instructions),
        str(reference.termination.kind),
    )


def _worker_main(
    conn: Any,
    factory: Any,
    campaign_json: str,
    worker_id: int,
    obs_config: Optional[ObservabilityConfig],
    golden: Any,
) -> None:
    """Worker process entry point.

    Builds an isolated port via ``factory``, binds the campaign (adopting
    the parent's golden run, or redoing the reference run when the port
    cannot adopt it), announces the reference run as a determinism
    fingerprint, then serves ``("run", [indices])`` task messages until
    ``("quit",)``. Every index executes; a verification of a derived row
    is an index like any other.

    With observability enabled, the worker installs its *own* fresh
    instrumentation (a ``.workerN`` sibling trace file, an empty metrics
    registry — never the parent's inherited state) and ships a metrics
    *delta* with every shard's ``("done", delta)`` message; the parent
    merges the deltas under a ``worker<N>.`` prefix so per-worker
    experiment counts stay attributable and sum to the campaign
    totals."""
    obs: Optional[Observability] = None
    if obs_config is not None and obs_config.enabled:
        obs = configure_worker(obs_config, worker_id)
    try:
        campaign = CampaignData.from_json(campaign_json)
        port = factory()
        # Derivation is the parent's schedule's: a worker executes every
        # index it is sent, so it builds no reference-trace oracle.
        port.early_exit = False
        reference = port.prepare_run(campaign, golden=golden)
        conn.send(("ready", _reference_fingerprint(reference)))
        while True:
            message = conn.recv()
            if message[0] == "quit":
                break
            for index in message[1]:
                try:
                    result = port.run_single_experiment(index)
                    conn.send(("result", index, result))
                except Exception as exc:  # reported upstream as an error
                    conn.send(
                        ("error", index, f"{type(exc).__name__}: {exc}")
                    )
            delta = (
                obs.metrics.drain()
                if obs is not None and obs.metrics.enabled
                else None
            )
            conn.send(("done", delta))
    except (EOFError, OSError, KeyboardInterrupt):  # parent went away
        pass
    except Exception as exc:  # init failure, reported upstream as fatal
        try:
            conn.send(("fatal", f"{type(exc).__name__}: {exc}"))
        except (OSError, ValueError):
            pass
    finally:
        if obs is not None:
            obs.close()
        try:
            conn.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

class _Worker:
    """Parent-side view of one worker process and its duplex pipe — what
    the event loop schedules shards against."""

    def __init__(self, worker_id: int, conn: Any, process: Any) -> None:
        self.worker_id = worker_id
        #: Parent end of the pipe speaking the worker protocol.
        self.conn = conn
        self.process = process
        self.ready = False
        self.dead = False
        #: True from shard dispatch until the worker's "done" message —
        #: results alone do not make a worker idle, otherwise a stale
        #: "done" could race a fresh dispatch and disarm the watchdog.
        self.busy = False
        #: Indices of the current shard still awaiting a result; the
        #: leftmost entry is the experiment presumed in flight.
        self.shard: Deque[int] = deque()
        self.deadline: Optional[float] = None

    @property
    def idle(self) -> bool:
        return self.ready and not self.dead and not self.busy

    def dispatch(self, indices: Sequence[int], timeout: Optional[float]) -> None:
        self.busy = True
        self.shard = deque(indices)
        self.conn.send(("run", list(indices)))
        self.touch(timeout)

    def touch(self, timeout: Optional[float]) -> None:
        """Reset the watchdog deadline (on dispatch and on every result)."""
        self.deadline = (
            None if timeout is None else time.perf_counter() + timeout
        )

    def overdue(self) -> bool:
        return (
            bool(self.shard)
            and self.deadline is not None
            and time.perf_counter() > self.deadline
        )

    def kill(self) -> None:
        self.dead = True
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5.0)

    def request_quit(self) -> None:
        try:
            self.conn.send(("quit",))
        except (OSError, ValueError, BrokenPipeError):
            pass


class _ParallelRun:
    """One parallel campaign execution (the parent event loop)."""

    #: Which indices execute and which row each logs (built once the
    #: parent's reference run exists).
    schedule: ExperimentSchedule

    def __init__(
        self,
        campaign: CampaignData,
        factory: Any,
        sink: Any,
        control: Any,
        config: ParallelConfig,
        skip_indices: Optional[Set[int]],
    ) -> None:
        config.validate()
        self.campaign = campaign
        self.factory = factory
        self.sink = sink
        self.control = control
        self.config = config
        skip = frozenset(skip_indices or ())
        #: Index order in which results are reported and logged — the same
        #: order the serial loop would produce.
        self.order: List[int] = [
            i for i in range(campaign.n_experiments) if i not in skip
        ]
        #: Dispatch queue of the schedule's execution units: lists of
        #: indices that must land in the same shard, so an equivalence
        #: class never spans shards.
        self.queue: Deque[List[int]] = deque()
        self.retry_queue: Deque[int] = deque()
        self.retries: Dict[int, int] = {}
        self.reported = 0
        self.workers: List[_Worker] = []
        self.fingerprint: Optional[Tuple[int, int, str]] = None
        self.campaign_json = ""
        #: Parent golden-run bundle shipped to every worker.
        self.golden: Any = None
        self.failures = 0
        self.obs = get_observability()
        self.obs_config = (
            config.observability
            if config.observability is not None
            else current_config()
        )
        self._next_worker_id = 0
        # Health monitoring: reuse the controller's monitor when running
        # under a CampaignController (it already called begin()); as a
        # bare run_parallel_campaign with observability on, install a
        # fresh one so the exporter's /healthz still has live state.
        health = getattr(control, "health", None)
        #: True when this run created the monitor itself (bare
        #: run_parallel_campaign); the run then also feeds results into
        #: it — under a controller, ``control.report`` already does.
        self._owns_health = False
        if isinstance(health, CampaignHealthMonitor) and health.enabled:
            self.health = health
        elif self.obs.enabled:
            self.health = CampaignHealthMonitor()
            self.health.begin(
                campaign.campaign_name,
                len(self.order),
                n_workers=config.n_workers,
            )
            set_health(self.health)
            self._owns_health = True
        else:
            self.health = NULL_HEALTH

    # -- lifecycle ---------------------------------------------------------

    def execute(self) -> Any:
        with self.obs.profile(
            "campaign",
            campaign=self.campaign.campaign_name,
            technique=self.campaign.technique,
            n_experiments=self.campaign.n_experiments,
            mode="parallel",
            n_workers=self.config.n_workers,
        ):
            self._execute_inner()
        self.obs.flush()
        return self.sink

    def _execute_inner(self) -> None:
        parent_port = self.factory()
        if not isinstance(parent_port, FaultInjectionAlgorithms):
            raise CampaignError(
                "worker factory must build a FaultInjectionAlgorithms port"
            )
        # Before prepare_run, which reads it: with early exit off the
        # schedule derives no row from the golden run.
        parent_port.early_exit = self.config.early_exit
        reference = parent_port.prepare_run(self.campaign)
        self.fingerprint = _reference_fingerprint(reference)
        self.sink.log_reference(self.campaign, reference)
        # Bundle the parent's golden run (reference + checkpoint store)
        # once; every worker adopts it instead of redoing the reference
        # execution (free under ``fork``: copy-on-write).
        from repro.core.goldencache import GoldenRun, campaign_golden_key

        self.golden = GoldenRun(
            config_hash=campaign_golden_key(self.campaign),
            target_name=self.campaign.target_name,
            reference=reference,
            checkpoints=parent_port._checkpoints,
        )
        # Serialise *after* prepare_run: campaign binding resolves
        # trigger addresses and iteration limits that workers must share.
        self.campaign_json = self.campaign.to_json()
        parent_port.verify_equivalence = self.config.verify_equivalence
        self.schedule = ExperimentSchedule(parent_port, reference, self.order)
        self.queue = deque(self.schedule.units())
        if not self.order:
            return
        n_workers = min(self.config.n_workers, len(self.order))
        self._set_progress_workers(n_workers)
        context = self.config.context()
        # Flush the parent's trace buffer before forking: a child must
        # not inherit (and later flush) buffered parent records.
        self.obs.flush()
        try:
            self.workers = [
                self._spawn_worker(context) for _ in range(n_workers)
            ]
            try:
                self._event_loop()
                self._await_worker_done()
            except StopCampaign:
                self._drain_after_stop()
        finally:
            self._flush_ordered(final=True)
            self._shutdown()

    def _spawn_worker(self, context: Any) -> _Worker:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        self.obs.tracer.event("worker-spawn", worker=worker_id)
        parent_conn, child_conn = context.Pipe(duplex=True)
        process = context.Process(
            target=_worker_main,
            args=(
                child_conn,
                self.factory,
                self.campaign_json,
                worker_id,
                self.obs_config,
                self.golden,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(worker_id, parent_conn, process)

    # -- event loop --------------------------------------------------------

    def _event_loop(self) -> None:
        while self.reported < len(self.order):
            self._wait_while_paused()
            self._dispatch_ready()
            self._pump_messages()
            self._check_watchdog()
            self._replace_dead_workers()
            self._flush_ordered()
            if self.health.enabled:
                # The event loop keeps spinning even while every worker
                # is wedged, so stall alerts fire from here long before
                # the watchdog's (much larger) per-experiment timeout.
                self.health.check()

    def _await_worker_done(self, timeout: float = 2.0) -> None:
        """After the last result arrived, give still-busy workers a brief
        window to deliver their trailing ``"done"`` message — it carries
        the final per-worker metrics delta (skipped when metrics are off:
        the deltas would be empty)."""
        if not self.obs.metrics.enabled:
            return
        deadline = time.perf_counter() + timeout
        while (
            any(w.busy and not w.dead for w in self.workers)
            and time.perf_counter() < deadline
        ):
            self._pump_messages()

    def _wait_while_paused(self) -> None:
        """Cooperative pause: stop dispatching and reporting, but keep
        draining worker pipes so in-flight shards cannot back up. Pause
        time is credited back to the controller so it never pollutes the
        throughput figure."""
        if not bool(getattr(self.control, "paused", False)):
            self._checkpoint()
            return
        # A paused campaign may be inspected or killed: land its rows.
        _flush_sink(self.sink)
        pause_started = time.perf_counter()
        try:
            while bool(getattr(self.control, "paused", False)):
                self._pump_messages()
                time.sleep(_POLL_SECONDS)
        finally:
            add_pause = getattr(self.control, "add_pause_time", None)
            if callable(add_pause):
                add_pause(time.perf_counter() - pause_started)
        self._checkpoint()

    def _checkpoint(self) -> None:
        next_index = (
            self.order[self.reported]
            if self.reported < len(self.order)
            else self.campaign.n_experiments
        )
        self.control.checkpoint(next_index)

    def _dispatch_ready(self) -> None:
        for worker in self.workers:
            if not worker.idle:
                continue
            shard = self._next_shard()
            if not shard:
                return
            worker.dispatch(shard, self.config.timeout_seconds)

    def _next_shard(self) -> List[int]:
        shard: List[int] = []
        while len(shard) < self.config.shard_size:
            if self.retry_queue:
                shard.append(self.retry_queue.popleft())
            elif self.queue:
                # A unit (equivalence class) is never split across
                # shards; a large class may push the shard past
                # shard_size, which is harmless.
                shard.extend(self.queue.popleft())
            else:
                break
        return shard

    def _pump_messages(self) -> None:
        conns = [worker.conn for worker in self.workers if not worker.dead]
        if not conns:
            time.sleep(_POLL_SECONDS)
            return
        for conn in _mpc.wait(conns, timeout=_POLL_SECONDS):
            worker = self._worker_for(conn)
            if worker is None:
                continue
            try:
                message = conn.recv()
            except (EOFError, OSError):
                self._handle_worker_death(worker, "worker process crashed")
                continue
            self._handle_message(worker, message)

    def _worker_for(self, conn: Any) -> Optional[_Worker]:
        for worker in self.workers:
            if worker.conn is conn:
                return worker
        return None

    def _handle_message(self, worker: _Worker, message: Tuple) -> None:
        kind = message[0]
        if self.health.enabled:
            # Any message is a sign of life, not just results — a worker
            # grinding through a slow shard still refreshes its heartbeat.
            self.health.heartbeat(worker.worker_id)
        if kind == "ready":
            worker.ready = True
            if message[1] != self.fingerprint:
                raise CampaignError(
                    "worker reference run diverged from the parent's "
                    f"({message[1]} != {self.fingerprint}); the port is not "
                    "deterministic — parallel execution would corrupt results"
                )
        elif kind == "result":
            index, result = message[1], message[2]
            self._discard_from_shard(worker, index)
            worker.touch(self.config.timeout_seconds)
            self.schedule.accept(index, result)
        elif kind == "error":
            index, reason = message[1], message[2]
            self._discard_from_shard(worker, index)
            worker.touch(self.config.timeout_seconds)
            self._record_failure(index, reason)
        elif kind == "done":
            worker.busy = False
            worker.shard.clear()
            worker.deadline = None
            delta = message[1]
            if delta:
                # Per-worker metric shipping: the delta merges under a
                # worker-scoped prefix, so the per-worker experiment
                # counts remain attributable (and sum to the totals).
                self.obs.metrics.merge(
                    delta, prefix=f"worker{worker.worker_id}."
                )
        elif kind == "fatal":
            raise CampaignError(f"parallel worker failed to start: {message[1]}")

    @staticmethod
    def _discard_from_shard(worker: _Worker, index: int) -> None:
        try:
            worker.shard.remove(index)
        except ValueError:
            pass

    # -- failure handling --------------------------------------------------

    def _check_watchdog(self) -> None:
        for worker in self.workers:
            if worker.dead:
                continue
            if worker.overdue():
                timeout = self.config.timeout_seconds or 0.0
                self.obs.metrics.counter("parallel.watchdog_total").inc()
                self._handle_worker_death(
                    worker, f"watchdog: experiment exceeded {timeout:.1f}s"
                )
            elif not worker.process.is_alive():
                self._handle_worker_death(worker, "worker process crashed")

    def _replace_dead_workers(self) -> None:
        """Respawn replacements for killed workers while undispatched work
        remains (a stopped pool with a non-empty queue would deadlock)."""
        work_remains = bool(self.queue or self.retry_queue)
        for position, worker in enumerate(self.workers):
            if worker.dead and work_remains:
                self.workers[position] = self._respawn()

    def _handle_worker_death(self, worker: _Worker, reason: str) -> None:
        self.obs.tracer.event(
            "worker-death", worker=worker.worker_id, reason=reason
        )
        if self.obs.flightrec.enabled:
            # Post-mortem from the parent's vantage point: the worker's
            # own SIGTERM dump (configure_worker) covers the child side,
            # this dump preserves the parent's recent event ring.
            self.obs.flightrec.dump(
                "worker-death",
                campaign=self.campaign.campaign_name,
                worker=worker.worker_id,
                detail=reason,
            )
        worker.kill()
        self._fail_worker_shard(worker, reason)

    def _fail_worker_shard(self, worker: _Worker, reason: str) -> None:
        """The leftmost shard entry was in flight when the worker died —
        charge the failure to it; later entries were never started and are
        requeued without a retry penalty."""
        if worker.shard:
            in_flight = worker.shard.popleft()
            self._record_failure(in_flight, reason)
        while worker.shard:
            self.retry_queue.appendleft(worker.shard.pop())
        worker.deadline = None

    def _respawn(self) -> _Worker:
        self.obs.metrics.counter("parallel.respawns_total").inc()
        return self._spawn_worker(self.config.context())

    def _record_failure(self, index: int, reason: str) -> None:
        attempts = self.retries.get(index, 0)
        if attempts < self.config.max_retries:
            self.retries[index] = attempts + 1
            self.retry_queue.append(index)
            self.obs.metrics.counter("parallel.retries_total").inc()
            return
        self.failures += 1
        self.obs.metrics.counter("parallel.worker_failures_total").inc()
        if self.obs.flightrec.enabled:
            self.obs.flightrec.dump(
                "worker-failure",
                campaign=self.campaign.campaign_name,
                index=index,
                detail=reason,
                attempts=attempts + 1,
            )
        # A failed representative's members run for real instead, each
        # as its own unit.
        self.queue.extend(
            [member]
            for member in self.schedule.fail(
                index, self._failure_result(index, reason, attempts)
            )
        )

    def _failure_result(
        self, index: int, reason: str, attempts: int
    ) -> ExperimentResult:
        """A logged placeholder for an experiment no worker could finish:
        failed experiments surface in the database and the progress
        breakdown instead of being silently dropped."""
        return ExperimentResult(
            name=FaultInjectionAlgorithms.experiment_name(
                self.campaign.campaign_name, index
            ),
            index=index,
            campaign_name=self.campaign.campaign_name,
            termination=Termination(
                kind="worker-failure",
                trap_detail=f"{reason} (after {attempts + 1} attempt(s))",
            ),
        )

    # -- ordered reporting ---------------------------------------------------

    def _flush_ordered(self, final: bool = False) -> None:
        while self.reported < len(self.order):
            index = self.order[self.reported]
            result = self.schedule.row(index)
            if result is None:
                break
            self.sink.log_experiment(self.campaign, result)
            self.reported += 1
            self.control.report(index, result)
            if self._owns_health:
                # Bare-run path: no controller feeds the monitor, so the
                # run does (controller.report covers the other path).
                termination = result.termination
                self.health.record_result(
                    termination.kind if termination is not None else None
                )
        if final:
            # A stop may leave non-contiguous ready rows (later indices
            # finished while an earlier one was still running); log them
            # too so a resume can skip them. A derived row that never ran
            # is left to the resume, which derives it again: logging
            # every one would carry a stopped campaign to its end.
            try:
                for index in self.order[self.reported:]:
                    if not self.schedule.executes(index):
                        continue
                    result = self.schedule.row(index)
                    if result is not None:
                        self.sink.log_experiment(self.campaign, result)
                        self.reported += 1
                        self.control.report(index, result)
            finally:
                _flush_sink(self.sink)

    # -- teardown ----------------------------------------------------------

    def _drain_after_stop(self) -> None:
        """Best-effort pickup of results already in the pipes when the End
        button stopped the campaign (matches the serial guarantee that
        every completed experiment is logged, and so are the metric
        deltas of shards that finished). A drained error only leaves its
        shard: the index stays unlogged, so a resume re-runs it."""
        for worker in self.workers:
            while True:
                try:
                    if not worker.conn.poll(0):
                        break
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    break
                if message[0] in ("result", "done"):
                    self._handle_message(worker, message)
                elif message[0] == "error":
                    self._discard_from_shard(worker, message[1])
                else:  # pragma: no cover - ready/fatal during stop
                    break

    def _shutdown(self) -> None:
        for worker in self.workers:
            worker.request_quit()
        for worker in self.workers:
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                worker.kill()
            else:
                try:
                    worker.conn.close()
                except OSError:
                    pass

    def _set_progress_workers(self, n_workers: int) -> None:
        progress = getattr(self.control, "progress", None)
        if progress is not None and hasattr(progress, "n_workers"):
            progress.n_workers = n_workers
        if self.health.enabled:
            self.health.set_workers(n_workers)


def run_parallel_campaign(
    campaign: CampaignData,
    factory: Any,
    sink: Any = None,
    control: Any = None,
    config: Optional[ParallelConfig] = None,
    skip_indices: Optional[Set[int]] = None,
) -> Any:
    """Run ``campaign`` sharded over a worker-process pool.

    Drop-in counterpart of
    :meth:`~repro.core.algorithms.FaultInjectionAlgorithms.run_campaign`:
    same sink protocol, same control hooks (``checkpoint`` / ``report``),
    same ``skip_indices`` resume contract, same return value. ``factory``
    must be a picklable zero-argument callable building a fresh port —
    use :func:`repro.core.framework.worker_factory`."""
    sink = sink if sink is not None else _ListSink()
    control = control if control is not None else _NullControl()
    run = _ParallelRun(
        campaign,
        factory,
        sink,
        control,
        config if config is not None else ParallelConfig(),
        skip_indices,
    )
    return run.execute()


class ParallelCampaignController(CampaignController):
    """A :class:`~repro.core.controller.CampaignController` whose
    experiment loop runs on a multiprocessing pool.

    Inherits every Figure-7 affordance — progress listeners,
    pause/resume/end, resume-from-sink with counter rebuild, the
    ``"failed"`` state — and swaps only the executor. The progress
    window renders it unchanged."""

    def __init__(
        self,
        factory: Any,
        sink: Any = None,
        config: Optional[ParallelConfig] = None,
    ) -> None:
        super().__init__(algorithm=None, sink=sink)
        self.factory = factory
        self.config = config if config is not None else ParallelConfig()

    def _planned_workers(self) -> int:
        """The worker count the health monitor and RunMeta row start
        with (trimmed later if fewer experiments than workers)."""
        return self.config.n_workers

    def _execute(self, campaign: CampaignData, skip_indices: Any) -> Any:
        return run_parallel_campaign(
            campaign,
            self.factory,
            sink=self.sink,
            control=self,
            config=self.config,
            skip_indices=skip_indices,
        )


# ---------------------------------------------------------------------------
# Determinism canonicalisation
# ---------------------------------------------------------------------------

def canonical_experiment_rows(
    db: Any, campaign_name: str
) -> List[Tuple[str, bytes, bytes]]:
    """Byte-exact canonical form of a campaign's ``LoggedSystemState``
    experiment rows, for serial-vs-parallel comparison.

    The only legitimately nondeterministic field — per-experiment
    wall-clock time — is zeroed; everything else (injections, termination,
    outputs, state vector blob) must match bit for bit between a serial
    and a parallel run of the same campaign."""
    import json

    rows = db.query(
        "SELECT experimentName, experimentData, stateVector "
        "FROM LoggedSystemState "
        "WHERE campaignName = ? AND isReference = 0 "
        "ORDER BY experimentName",
        (campaign_name,),
    )
    canonical: List[Tuple[str, bytes, bytes]] = []
    for row in rows:
        data = json.loads(row["experimentData"])
        data["wall_seconds"] = 0.0
        canonical.append(
            (
                row["experimentName"],
                json.dumps(data, sort_keys=True).encode("utf-8"),
                bytes(row["stateVector"]),
            )
        )
    return canonical
