"""Adapters for external public trace formats.

The trace-driven studies the paper surveys (Kavalanekar et al.'s
production Windows-server traces, grid/cluster job logs) distribute
traces in simple text formats.  Two adapters let those feed this
repository's models directly:

* **SPC-style block I/O traces** — the Storage Performance Council
  format used by UMass/MSR trace repositories: one I/O per line,
  ``ASU,LBA,Size,Opcode,Timestamp`` — mapped to
  :class:`StorageRecord`.
* **Cluster job tables** — CSV of ``job_id,submit_time,duration,
  cpu_seconds,memory_bytes`` (the shape of Google cluster-usage and
  Parallel Workloads Archive logs after normalization) — mapped to
  :class:`RequestRecord` so the fitting/clustering stack applies.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable

from .records import READ, WRITE, RequestRecord, StorageRecord

__all__ = [
    "read_cluster_jobs",
    "read_spc_trace",
    "write_cluster_jobs",
    "write_spc_trace",
]


def read_spc_trace(path: str | Path, block_size: int = 512) -> list[StorageRecord]:
    """Parse an SPC-format block trace into storage records.

    SPC lines are ``ASU,LBA,Size,Opcode,Timestamp`` with size in bytes,
    LBA in ``block_size`` units, opcode R/W (case-insensitive).
    Malformed lines raise with the offending line number.
    """
    records = []
    path = Path(path)
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) < 5:
                raise ValueError(
                    f"{path}:{lineno}: expected 5 fields, got {len(parts)}"
                )
            asu, lba, size, opcode, timestamp = parts[:5]
            opcode = opcode.lower()
            if opcode not in ("r", "w"):
                raise ValueError(
                    f"{path}:{lineno}: opcode must be R or W, got {opcode!r}"
                )
            records.append(
                StorageRecord(
                    request_id=lineno,
                    server=f"asu-{asu}",
                    timestamp=float(timestamp),
                    # Normalize LBA to this repository's 4 KiB blocks.
                    lbn=int(lba) * block_size // 4096,
                    size_bytes=int(size),
                    op=READ if opcode == "r" else WRITE,
                )
            )
    records.sort(key=lambda r: r.timestamp)
    return records


def write_spc_trace(
    records: Iterable[StorageRecord],
    path: str | Path,
    block_size: int = 512,
) -> Path:
    """Write storage records as an SPC-format trace (the inverse)."""
    path = Path(path)
    with path.open("w") as fh:
        for record in records:
            asu = record.server.rsplit("-", 1)[-1]
            if not asu.isdigit():
                asu = "0"
            opcode = "R" if record.op == READ else "W"
            lba = record.lbn * 4096 // block_size
            fh.write(
                f"{asu},{lba},{record.size_bytes},{opcode},"
                f"{record.timestamp:.6f}\n"
            )
    return path


_JOB_FIELDS = ("job_id", "submit_time", "duration", "cpu_seconds",
               "memory_bytes")


def read_cluster_jobs(path: str | Path) -> list[RequestRecord]:
    """Parse a normalized cluster job table into request records.

    Expects a CSV with a header containing at least the columns
    ``job_id, submit_time, duration, cpu_seconds, memory_bytes``.
    Each job becomes a RequestRecord (class "job"), so interarrival
    fitting and clustering apply unchanged.
    """
    path = Path(path)
    records = []
    with path.open() as fh:
        reader = csv.DictReader(fh)
        missing = [f for f in _JOB_FIELDS if f not in (reader.fieldnames or [])]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}")
        for row in reader:
            submit = float(row["submit_time"])
            duration = float(row["duration"])
            if duration < 0:
                raise ValueError(
                    f"{path}: job {row['job_id']} has negative duration"
                )
            records.append(
                RequestRecord(
                    request_id=int(row["job_id"]),
                    request_class="job",
                    server="cluster",
                    arrival_time=submit,
                    completion_time=submit + duration,
                    cpu_busy_seconds=float(row["cpu_seconds"]),
                    memory_bytes=int(float(row["memory_bytes"])),
                )
            )
    records.sort(key=lambda r: r.arrival_time)
    return records


def write_cluster_jobs(
    records: Iterable[RequestRecord], path: str | Path
) -> Path:
    """Write request records as a normalized cluster job table."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_JOB_FIELDS)
        for record in records:
            writer.writerow(
                [
                    record.request_id,
                    f"{record.arrival_time:.6f}",
                    f"{record.latency:.6f}",
                    f"{record.cpu_busy_seconds:.6f}",
                    record.memory_bytes,
                ]
            )
    return path
