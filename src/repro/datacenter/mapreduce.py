"""MapReduce-like batch framework — the Ganapathi et al. workload.

Jobs split an input into map tasks (read + compute + intermediate
write), shuffle intermediate data over the network, and run reduce
tasks (compute + output write).  Per-task subsystem records and spans
use the canonical stage names, and each completed job reports its
execution time and phase byte counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..simulation import AllOf, Environment, RandomStreams
from ..tracing import READ, WRITE, RequestRecord, Tracer
from .machine import Machine, MachineSpec

__all__ = ["JobResult", "MapReduceCluster", "MapReduceJob", "MapReduceSpec"]

MIB = 1024 * 1024


@dataclass(frozen=True)
class MapReduceSpec:
    """Framework configuration and per-byte processing costs."""

    workers: int = 4
    map_cpu_per_byte: float = 2e-9  # core-seconds per input byte
    reduce_cpu_per_byte: float = 3e-9
    task_overhead: float = 1e-3  # scheduling/startup per task (s)
    intermediate_ratio: float = 0.4  # map output / map input
    output_ratio: float = 0.5  # reduce output / reduce input
    memory_fraction: float = 0.1  # buffer footprint vs bytes processed

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"need >= 1 worker, got {self.workers}")


@dataclass(slots=True)
class MapReduceJob:
    """One job: input size and task parallelism."""

    name: str
    input_bytes: int
    n_map: int
    n_reduce: int

    def __post_init__(self) -> None:
        if self.input_bytes <= 0 or self.n_map < 1 or self.n_reduce < 1:
            raise ValueError(f"invalid job {self!r}")


@dataclass(slots=True)
class JobResult:
    """Outcome and phase byte counts of a completed job."""

    job: MapReduceJob
    submit_time: float
    completion_time: float
    map_bytes: int
    shuffle_bytes: int
    output_bytes: int

    @property
    def execution_time(self) -> float:
        return self.completion_time - self.submit_time


class MapReduceCluster:
    """Workers executing map/shuffle/reduce phases of submitted jobs."""

    def __init__(
        self,
        env: Environment,
        spec: MapReduceSpec,
        streams: RandomStreams,
        tracer: Tracer,
        machine_spec: MachineSpec | None = None,
        machines: list[Machine] | None = None,
    ):
        if machines is not None and len(machines) != spec.workers:
            raise ValueError(
                f"got {len(machines)} machines for {spec.workers} workers"
            )
        machine_spec = machine_spec or MachineSpec()
        self.env = env
        self.spec = spec
        self.tracer = tracer
        self.rng = streams.get("mapreduce/placement")
        # Workers can share machines with a serving tenant (pass
        # ``machines``) for colocation/interference studies.
        self.workers = machines or [
            Machine(env, f"worker-{i}", machine_spec, streams, tracer)
            for i in range(spec.workers)
        ]
        self.results: list[JobResult] = []
        self._next_task = 0

    def _worker_for(self, task_index: int) -> Machine:
        return self.workers[task_index % len(self.workers)]

    def _task(
        self,
        machine: Machine,
        request_class: str,
        read_bytes: int,
        write_bytes: int,
        cpu_per_byte: float,
        lbn: int,
    ):
        """Process generator for one map or reduce task."""
        # Device calls run inline (yield from); only _shuffle keeps
        # child processes, see there.
        env = self.env
        tracer = self.tracer
        spec = self.spec
        request_id = tracer.new_request_id()
        record = RequestRecord(
            request_id=request_id,
            request_class=request_class,
            server=machine.name,
            arrival_time=env.now,
            network_bytes=max(read_bytes, write_bytes),
            memory_bytes=max(4096, int((read_bytes + write_bytes)
                                       * spec.memory_fraction)),
            memory_op=READ if request_class == "map" else WRITE,
            storage_bytes=read_bytes + write_bytes,
            storage_op=READ if read_bytes >= write_bytes else WRITE,
        )
        root = tracer.start_span(request_id, "request", machine.name, env.now)
        yield env.timeout(spec.task_overhead)

        if read_bytes > 0:
            span = tracer.start_span(request_id, "storage", machine.name,
                                     env.now, root)
            yield from machine.disk.io(request_id, lbn, read_bytes, READ)
            tracer.end_span(span, env.now)

        span = tracer.start_span(request_id, "memory", machine.name, env.now, root)
        yield from machine.memory.access(
            request_id, lbn * 4096 % (1 << 26), record.memory_bytes,
            record.memory_op,
        )
        tracer.end_span(span, env.now)

        span = tracer.start_span(request_id, "cpu_lookup", machine.name,
                                 env.now, root)
        busy = yield from machine.cpu.compute(
            request_id, cpu_per_byte * max(read_bytes, write_bytes), "lookup"
        )
        record.cpu_busy_seconds += busy
        tracer.end_span(span, env.now)

        if write_bytes > 0:
            span = tracer.start_span(request_id, "storage", machine.name,
                                     env.now, root)
            yield from machine.disk.io(
                request_id, lbn + (1 << 20), write_bytes, WRITE
            )
            tracer.end_span(span, env.now)

        record.completion_time = env.now
        tracer.end_span(root, env.now)
        tracer.record_request(record)
        return record

    def _shuffle(self, request_id: int, src: Machine, dst: Machine, size: int):
        # Child processes on purpose: simultaneous shuffles driven inline
        # reorder the link queues and move the mapreduce-jsonl golden store.
        yield self.env.process(src.nic.transfer(request_id, size, "tx"))
        yield self.env.process(dst.nic.transfer(request_id, size, "rx"))

    def run_job(self, job: MapReduceJob):
        """Process generator: execute a job; returns its JobResult."""
        env = self.env
        spec = self.spec
        submit = env.now
        split = job.input_bytes // job.n_map

        # Map phase (parallel across workers).
        map_tasks = []
        for m in range(job.n_map):
            machine = self._worker_for(self._next_task)
            self._next_task += 1
            lbn = int(self.rng.integers(0, 1 << 24))
            map_tasks.append(
                env.process(
                    self._task(
                        machine,
                        "map",
                        read_bytes=split,
                        write_bytes=int(split * spec.intermediate_ratio),
                        cpu_per_byte=spec.map_cpu_per_byte,
                        lbn=lbn,
                    )
                )
            )
        yield AllOf(env, map_tasks)

        # Shuffle: all-to-all transfer of intermediate data.
        shuffle_bytes = int(job.input_bytes * spec.intermediate_ratio)
        per_pair = max(1, shuffle_bytes // (job.n_map * job.n_reduce))
        shuffle_id = self.tracer.new_request_id()
        transfers = []
        for m in range(job.n_map):
            for r in range(job.n_reduce):
                src = self._worker_for(m)
                dst = self._worker_for(job.n_map + r)
                transfers.append(
                    env.process(self._shuffle(shuffle_id, src, dst, per_pair))
                )
        yield AllOf(env, transfers)

        # Reduce phase.
        reduce_input = shuffle_bytes // job.n_reduce
        reduce_tasks = []
        for r in range(job.n_reduce):
            machine = self._worker_for(self._next_task)
            self._next_task += 1
            reduce_tasks.append(
                env.process(
                    self._task(
                        machine,
                        "reduce",
                        read_bytes=0,
                        write_bytes=max(
                            1, int(reduce_input * spec.output_ratio)
                        ),
                        cpu_per_byte=spec.reduce_cpu_per_byte,
                        lbn=int(self.rng.integers(0, 1 << 24)),
                    )
                )
            )
        yield AllOf(env, reduce_tasks)

        result = JobResult(
            job=job,
            submit_time=submit,
            completion_time=env.now,
            map_bytes=job.input_bytes,
            shuffle_bytes=shuffle_bytes,
            output_bytes=int(shuffle_bytes * spec.output_ratio),
        )
        self.results.append(result)
        return result
