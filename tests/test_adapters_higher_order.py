"""Tests for trace-format adapters."""

import numpy as np
import pytest

from repro.breadth import StorageModel, StorageProfile
from repro.queueing import fit_distribution
from repro.tracing import (
    READ,
    WRITE,
    RequestRecord,
    StorageRecord,
    read_cluster_jobs,
    read_spc_trace,
    write_cluster_jobs,
    write_spc_trace,
)

# -- SPC adapter -----------------------------------------------------------

SPC_SAMPLE = """\
# ASU,LBA,Size,Opcode,Timestamp
0,1000,4096,R,0.000000
0,1008,4096,R,0.001200
1,500000,65536,W,0.002500
0,1016,8192,r,0.004100
"""


def test_read_spc_trace(tmp_path):
    path = tmp_path / "trace.spc"
    path.write_text(SPC_SAMPLE)
    records = read_spc_trace(path)
    assert len(records) == 4
    assert records[0].op == READ
    assert records[2].op == WRITE
    assert records[2].server == "asu-1"
    assert records[0].lbn == 1000 * 512 // 4096
    timestamps = [r.timestamp for r in records]
    assert timestamps == sorted(timestamps)


def test_spc_round_trip(tmp_path):
    path = tmp_path / "trace.spc"
    path.write_text(SPC_SAMPLE)
    records = read_spc_trace(path)
    out = tmp_path / "copy.spc"
    write_spc_trace(records, out)
    restored = read_spc_trace(out)
    assert [(r.lbn, r.size_bytes, r.op) for r in restored] == [
        (r.lbn, r.size_bytes, r.op) for r in records
    ]


def test_spc_rejects_malformed(tmp_path):
    path = tmp_path / "bad.spc"
    path.write_text("0,1000,4096\n")
    with pytest.raises(ValueError, match="expected 5 fields"):
        read_spc_trace(path)
    path.write_text("0,1000,4096,X,0.0\n")
    with pytest.raises(ValueError, match="opcode"):
        read_spc_trace(path)


def test_spc_trace_feeds_storage_model(tmp_path):
    """An external trace drops straight into the in-breadth stack."""
    rng = np.random.default_rng(0)
    lines = ["# header"]
    lba, t = 0, 0.0
    for i in range(200):
        if rng.random() < 0.3:
            lba = int(rng.integers(0, 1 << 20))
        size = int(rng.choice([4096, 65536]))
        op = "R" if rng.random() < 0.7 else "W"
        t += float(rng.exponential(0.005))
        lines.append(f"0,{lba},{size},{op},{t:.6f}")
        lba += size // 512
    path = tmp_path / "ext.spc"
    path.write_text("\n".join(lines) + "\n")
    records = read_spc_trace(path)
    profile = StorageProfile.characterize(records)
    assert 0.55 < profile.read_fraction < 0.85
    model = StorageModel().fit(records)
    assert model.chain.n_states > 1


# -- cluster job adapter ----------------------------------------------------


def _job_records():
    return [
        RequestRecord(
            request_id=i,
            request_class="job",
            server="cluster",
            arrival_time=i * 10.0,
            completion_time=i * 10.0 + 5.0 + i,
            cpu_busy_seconds=2.0 + i,
            memory_bytes=1 << 30,
        )
        for i in range(20)
    ]


def test_cluster_jobs_round_trip(tmp_path):
    path = write_cluster_jobs(_job_records(), tmp_path / "jobs.csv")
    restored = read_cluster_jobs(path)
    assert len(restored) == 20
    assert restored[3].latency == pytest.approx(8.0)
    assert restored[3].cpu_busy_seconds == pytest.approx(5.0)
    assert restored[0].memory_bytes == 1 << 30


def test_cluster_jobs_feed_fitting(tmp_path):
    rng = np.random.default_rng(1)
    records = []
    t = 0.0
    for i in range(300):
        t += float(rng.exponential(5.0))
        records.append(
            RequestRecord(
                request_id=i,
                request_class="job",
                server="cluster",
                arrival_time=t,
                completion_time=t + float(rng.lognormal(3.0, 1.0)),
                cpu_busy_seconds=1.0,
                memory_bytes=1 << 20,
            )
        )
    path = write_cluster_jobs(records, tmp_path / "jobs.csv")
    restored = read_cluster_jobs(path)
    gaps = np.diff([r.arrival_time for r in restored])
    fit = fit_distribution(gaps)
    assert fit.mean == pytest.approx(5.0, rel=0.2)


def test_cluster_jobs_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("job_id,submit_time\n1,0.0\n")
    with pytest.raises(ValueError, match="missing columns"):
        read_cluster_jobs(path)
    path.write_text(
        "job_id,submit_time,duration,cpu_seconds,memory_bytes\n"
        "1,0.0,-5.0,1.0,100\n"
    )
    with pytest.raises(ValueError, match="negative duration"):
        read_cluster_jobs(path)

