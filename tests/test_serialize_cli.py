"""Tests for model persistence and the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.cli import main
from repro.core import (
    KoozaConfig,
    KoozaTrainer,
    ReplayHarness,
    compare_workloads,
    extract_request_features,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from repro.datacenter import run_gfs_workload
from repro.tracing import save_traces


@pytest.fixture(scope="module")
def gfs_run():
    return run_gfs_workload(n_requests=400, seed=61)


@pytest.fixture(scope="module")
def model(gfs_run):
    return KoozaTrainer().fit(gfs_run.traces)


# -- serialization -------------------------------------------------------


def test_model_round_trip_is_json_safe(model):
    data = model_to_dict(model)
    json.dumps(data)  # must not raise
    restored = model_from_dict(data)
    assert restored.n_training_requests == model.n_training_requests
    assert restored.n_parameters == model.n_parameters


def test_round_trip_preserves_chains(model):
    restored = model_from_dict(model_to_dict(model))
    assert restored.storage_chain.states == model.storage_chain.states
    assert np.allclose(
        restored.storage_chain.transition_matrix,
        model.storage_chain.transition_matrix,
    )
    assert restored.dependency_queue.default == model.dependency_queue.default


def test_round_trip_generates_identical_workload(model):
    restored = model_from_dict(model_to_dict(model))
    a = model.synthesize(50, np.random.default_rng(5))
    b = restored.synthesize(50, np.random.default_rng(5))
    assert [r.arrival_time for r in a] == [r.arrival_time for r in b]
    assert [r.stage_order() for r in a] == [r.stage_order() for r in b]


def test_restored_model_validates_like_original(gfs_run, model, tmp_path):
    path = save_model(model, tmp_path / "model.json")
    restored = load_model(path)
    synthetic = restored.synthesize(400, np.random.default_rng(7))
    replayed = ReplayHarness(seed=9).replay(synthetic)
    report = compare_workloads(gfs_run.traces, replayed)
    assert report.worst_feature_deviation_pct < 1.0


def test_hierarchical_model_round_trip(gfs_run, tmp_path):
    model = KoozaTrainer(KoozaConfig(hierarchical_storage=True)).fit(
        gfs_run.traces
    )
    restored = load_model(save_model(model, tmp_path / "h.json"))
    assert restored.storage_hierarchy is not None
    assert (
        restored.storage_hierarchy.n_parameters
        == model.storage_hierarchy.n_parameters
    )


def test_unfitted_model_rejected():
    from repro.core import KoozaModel

    with pytest.raises(ValueError):
        model_to_dict(KoozaModel(KoozaConfig()))


def test_unknown_format_version_rejected(model):
    data = model_to_dict(model)
    data["format_version"] = 999
    with pytest.raises(ValueError):
        model_from_dict(data)


# -- CLI -----------------------------------------------------------------


def test_cli_collect_train_validate(tmp_path, capsys):
    traces_dir = tmp_path / "traces"
    model_path = tmp_path / "model.json"
    assert main(
        ["collect", "--app", "gfs", "--requests", "300", "--out",
         str(traces_dir)]
    ) == 0
    assert main(["train", str(traces_dir), "--model", str(model_path)]) == 0
    assert model_path.exists()
    assert main(["describe", str(model_path)]) == 0
    out = capsys.readouterr().out
    assert "DependencyQueue" in out
    assert main(["validate", str(traces_dir), "--model", str(model_path)]) == 0


def test_cli_characterize(gfs_run, tmp_path, capsys):
    traces_dir = tmp_path / "traces"
    save_traces(gfs_run.traces, traces_dir)
    assert main(["characterize", str(traces_dir)]) == 0
    out = capsys.readouterr().out
    assert "storage:" in out
    assert "network:" in out


def test_cli_validate_trains_when_no_model(gfs_run, tmp_path):
    traces_dir = tmp_path / "traces"
    save_traces(gfs_run.traces, traces_dir)
    assert main(["validate", str(traces_dir)]) == 0


def test_cli_validate_prints_the_table2_report(gfs_run, tmp_path, capsys):
    # `repro validate` and the Table-2 bench grade a model the same way:
    # its table is compare_workloads over the replayed synthetic run.
    traces_dir = tmp_path / "traces"
    save_traces(gfs_run.traces, traces_dir)
    model_path = save_model(KoozaTrainer().fit(gfs_run.traces), tmp_path / "m.json")
    seed = 7
    capsys.readouterr()
    argv = ["validate", "--in", str(traces_dir), "--model", str(model_path),
            "--seed", str(seed)]
    assert main(argv) == 0
    *table, summary = capsys.readouterr().out.splitlines()
    assert summary.startswith("worst feature deviation: ")
    n = len(extract_request_features(gfs_run.traces))
    synthetic = load_model(model_path).synthesize(n, np.random.default_rng(seed))
    replayed = ReplayHarness(seed=seed + 1).replay(synthetic)
    assert "\n".join(table) == compare_workloads(gfs_run.traces, replayed).to_table()


def _exit_message(argv) -> str:
    """The message of a command that must exit nonzero without a traceback."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    message = excinfo.value.code
    assert isinstance(message, str) and "\n" not in message
    return message


def test_cli_train_and_validate_reject_too_few_requests(tmp_path):
    # MapReduce traces carry no complete per-request feature vectors.
    traces_dir = tmp_path / "mr"
    assert main(["collect", "--app", "mapreduce", "--out", str(traces_dir)]) == 0
    model_path = tmp_path / "model.json"
    train = ["train", "--in", str(traces_dir), "--model", str(model_path)]
    validate = ["validate", "--in", str(traces_dir)]
    for argv in (train, validate):
        assert "need >= 16 complete requests" in _exit_message(argv)
    assert not model_path.exists()


@pytest.mark.parametrize("replicas", ["1", "2"], ids=["flat", "store"])
def test_cli_per_class_skips_classes_without_complete_requests(
    tmp_path, capsys, replicas
):
    # Every mapreduce class completes requests but none has a complete
    # feature vector: per-class commands skip them all, cleanly.
    traces_dir = tmp_path / "mr"
    collect = ["collect", "--app", "mapreduce", "--replicas", replicas]
    assert main(collect + ["--out", str(traces_dir)]) == 0
    model_path = tmp_path / "model.json"
    train = ["train", "--in", str(traces_dir), "--model", str(model_path)]
    message = _exit_message(train + ["--per-class"])
    assert "no request class reached the trainable minimum" in message
    assert "'map': 0" in message and "'reduce': 0" in message
    assert not model_path.exists()
    capsys.readouterr()
    assert main(["validate", "--in", str(traces_dir), "--per-class"]) == 1
    assert "no request class could be compared" in capsys.readouterr().out


def test_cli_per_class_fits_complete_classes_of_a_mixed_store(tmp_path, capsys):
    store = tmp_path / "mixed"
    assert main(
        ["collect", "--app", "gfs", "--requests", "150", "--replicas", "2",
         "--out", str(store)]
    ) == 0
    assert main(
        ["append", "--app", "mapreduce", "--replicas", "2", "--out", str(store)]
    ) == 0
    model_path = tmp_path / "classes.json"
    capsys.readouterr()
    argv = ["train", "--in", str(store), "--per-class", "--model", str(model_path)]
    assert main(argv) == 0
    assert "skipped ['map', 'reduce']" in capsys.readouterr().out
    classes = json.loads(model_path.read_text())["classes"]
    assert sorted(classes) == ["read_64K", "write_4M"]
    argv = ["validate", "--in", str(store), "--per-class", "--no-cache"]
    assert main(argv) == 0
    assert "classes validated: 2/2" in capsys.readouterr().out


def test_cli_validate_missing_model_file(gfs_run, tmp_path):
    traces_dir = tmp_path / "traces"
    save_traces(gfs_run.traces, traces_dir)
    missing = tmp_path / "missing.json"
    argv = ["validate", "--in", str(traces_dir), "--model", str(missing)]
    assert str(missing) in _exit_message(argv)
    assert str(missing) in _exit_message(argv + ["--per-class"])


def test_cli_describe_bad_path_exits_with_one_line(tmp_path):
    missing = tmp_path / "no-such-dir"
    assert _exit_message(["describe", str(missing)]) == (
        f"cannot load model {missing}: "
        f"[Errno 2] No such file or directory: '{missing}'"
    )
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text('{"broken')
    assert _exit_message(["describe", str(corrupt)]) == (
        f"cannot load model {corrupt}: "
        "Unterminated string starting at: line 1 column 2 (char 1)"
    )


def test_cli_exits_quietly_when_the_stdout_reader_goes_away(gfs_run, tmp_path):
    """``repro characterize ... | head`` must not end in a traceback."""
    traces_dir = save_traces(gfs_run.traces, tmp_path / "traces")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).resolve().parents[1])]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "characterize", str(traces_dir)],
        cwd=tmp_path,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # the reader is gone before the first line
    _, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert b"Traceback" not in stderr and b"BrokenPipeError" not in stderr, stderr


def test_cli_unknown_app_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["collect", "--app", "nope", "--out", str(tmp_path / "x")])


def test_cli_collect_replicas_identical_across_workers(tmp_path, capsys):
    # Determinism contract of `repro collect --replicas N`: the sharded
    # store and its stitched merge are byte-identical for any --workers
    # value.
    args = ["collect", "--app", "gfs", "--requests", "60", "--replicas", "3"]
    d1 = tmp_path / "w1"
    d2 = tmp_path / "w2"
    assert main(args + ["--workers", "1", "--out", str(d1)]) == 0
    assert main(args + ["--workers", "2", "--out", str(d2)]) == 0
    out = capsys.readouterr().out
    assert "3 replicas" in out
    for shard in ("shard-00000000", "shard-00000001", "shard-00000002"):
        names1 = sorted(p.name for p in (d1 / shard).iterdir())
        assert names1 == sorted(p.name for p in (d2 / shard).iterdir())
        for name in names1:
            f1 = (d1 / shard / name).read_bytes()
            f2 = (d2 / shard / name).read_bytes()
            assert f1 == f2, f"{shard}/{name} differs between worker counts"
    assert main(["merge", str(d1)]) == 0
    assert main(["merge", str(d2), "--out", str(d2 / "merged")]) == 0
    for stream in ("network", "cpu", "memory", "storage", "requests", "spans"):
        f1 = (d1 / "merged" / f"{stream}.jsonl").read_bytes()
        f2 = (d2 / "merged" / f"{stream}.jsonl").read_bytes()
        assert f1 == f2, f"merged {stream}.jsonl differs between worker counts"
    # 3 replicas x 60 requests on one monotonic timeline (+ header line).
    lines = (d1 / "merged" / "requests.jsonl").read_bytes().splitlines()
    assert len(lines) == 181


def test_cli_collect_mapreduce(tmp_path):
    out = tmp_path / "mr"
    assert main(["collect", "--app", "mapreduce", "--out", str(out)]) == 0
    assert (out / "requests.jsonl").exists()


def test_cli_collect_rejects_nonpositive_replicas(tmp_path):
    with pytest.raises(SystemExit):
        main(["collect", "--replicas", "0", "--out", str(tmp_path / "x")])
