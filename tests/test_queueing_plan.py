"""Tests for the capacity-planning subsystem (repro plan)."""

import json
import math

import pytest

from repro.cli import main
from repro.datacenter import FleetSpec, collect_fleet_to_store
from repro.queueing import (
    cross_validate,
    fit_cluster_model,
    parse_multipliers,
    plan_sweep,
    solve_point,
)
from repro.store import (
    characterize_source,
    load_per_class_models,
    save_per_class_models,
    train_per_class,
)


@pytest.fixture(scope="module")
def tiny_store(tmp_path_factory):
    directory = tmp_path_factory.mktemp("plan-store") / "store"
    spec = FleetSpec(app="gfs", replicas=2, seed=7, n_requests=200)
    result = collect_fleet_to_store(spec, directory=directory, workers=1)
    return result.store(), spec


@pytest.fixture(scope="module")
def cluster(tiny_store):
    store, _ = tiny_store
    return fit_cluster_model(store, seed=42, max_per_class=64)


# -- multiplier grids --------------------------------------------------------


def test_parse_multipliers_geometric_grid():
    grid = parse_multipliers("0.5:100:17")
    assert len(grid) == 17
    assert grid[0] == pytest.approx(0.5)
    assert grid[-1] == pytest.approx(100.0)
    ratios = [b / a for a, b in zip(grid, grid[1:])]
    assert all(r == pytest.approx(ratios[0]) for r in ratios)


def test_parse_multipliers_explicit_list_sorted_deduped():
    assert parse_multipliers("5,1,2,2") == [1.0, 2.0, 5.0]


def test_parse_multipliers_rejects_garbage():
    for bad in ("", "bogus", "1:2", "1:2:3:4", "0:10:5", "-1,2", "5:1:4",
                "1:10:1"):
        with pytest.raises(ValueError):
            parse_multipliers(bad)


@pytest.mark.parametrize(
    "text",
    [
        "inf", "nan", "1,nan", "1,inf", "-inf,2",
        "1:inf:3", "nan:10:3", "1:nan:3", "-inf:1:3", "inf:inf:2",
    ],
)
def test_parse_multipliers_rejects_non_finite(text):
    with pytest.raises(ValueError, match="finite"):
        parse_multipliers(text)


# -- fitting -----------------------------------------------------------------


def test_fit_cluster_model_from_store(cluster):
    assert cluster.fit_source == "store"
    assert cluster.base_rate > 0
    assert [name for name, _ in cluster.stations] == [
        "cpu", "memory", "disk", "nic",
    ]
    demands = cluster.aggregate_demands()
    # A GFS workload exercises every device.
    assert all(demands[name] > 0 for name in ("cpu", "disk", "nic"))
    assert cluster.bottleneck in demands
    assert math.isfinite(cluster.saturation_rate)
    for cls in cluster.classes:
        assert cls.arrival_rate > 0
        assert cls.n_fit >= 1
        assert cls.replay_latency > 0
        assert cls.observed_latency is not None


def test_fit_cluster_model_is_deterministic(tiny_store):
    store, _ = tiny_store
    a = fit_cluster_model(store, seed=42, max_per_class=64)
    b = fit_cluster_model(store, seed=42, max_per_class=64)
    assert a == b


def test_fit_cluster_model_from_bare_models(tiny_store, tmp_path):
    store, _ = tiny_store
    fit = train_per_class(store)
    path = tmp_path / "classes.json"
    save_per_class_models(fit.models, path)
    cluster = fit_cluster_model(
        models=load_per_class_models(path), base_rate=25.0, max_per_class=64
    )
    assert cluster.fit_source == "model"
    assert cluster.base_rate == pytest.approx(25.0)
    # Rates split by training mix, no observations to report.
    assert all(c.observed_latency is None for c in cluster.classes)
    assert sum(c.arrival_rate for c in cluster.classes) == pytest.approx(25.0)


def test_fit_cluster_model_requires_rate_with_bare_models(tiny_store):
    store, _ = tiny_store
    fit = train_per_class(store)
    with pytest.raises(ValueError):
        fit_cluster_model(models=fit.models)


def test_fit_cluster_model_requires_some_input():
    with pytest.raises(ValueError):
        fit_cluster_model()


# -- sweeping ----------------------------------------------------------------


def test_sweep_crossing_saturation_completes(cluster):
    plan = plan_sweep(cluster, parse_multipliers("0.5:100:9"))
    assert len(plan.points) == 9
    assert plan.points[0].feasible
    assert not plan.points[-1].feasible
    knee = plan.knee_multiplier
    assert knee is not None
    assert plan.bottleneck == cluster.bottleneck
    # The knee splits the grid: feasible strictly before, infeasible after.
    for point in plan.points:
        assert point.feasible == (point.multiplier < knee)
    saturated = [p for p in plan.points if not p.feasible]
    assert all(math.isinf(p.mean_latency) for p in saturated)
    # Utilization is reported truthfully past the knee (>= 1, not clamped).
    assert all(p.bottleneck_utilization >= 1.0 for p in saturated)
    # Grid knee brackets the exact demand-bound knee.
    assert plan.max_feasible_multiplier < plan.exact_knee_multiplier <= knee


def test_sweep_latency_monotone_while_feasible(cluster):
    plan = plan_sweep(cluster, parse_multipliers("0.5:100:9"))
    feasible = [p.mean_latency for p in plan.points if p.feasible]
    assert all(b > a for a, b in zip(feasible, feasible[1:]))


def test_sweep_mva_solver_self_throttles(cluster):
    plan = plan_sweep(
        cluster,
        [1.0, 8.0, 64.0],
        solver="mva",
        customers=4,
        think_time=0.05,
    )
    # Closed networks never produce infinite latency; saturation shows
    # as throughput pinned at the bottleneck bound.
    assert all(math.isfinite(p.mean_latency) for p in plan.points)
    assert plan.points[0].n_customers == 4
    assert plan.points[-1].n_customers == 256
    rates = [p.arrival_rate for p in plan.points]
    assert all(b >= a for a, b in zip(rates, rates[1:]))
    assert rates[-1] <= cluster.saturation_rate * (1 + 1e-9)
    assert plan.knee_multiplier is not None


def test_sweep_mva_solver_requires_population(cluster):
    with pytest.raises(ValueError):
        plan_sweep(cluster, [1.0], solver="mva")


def test_solve_point_rejects_bad_inputs(cluster):
    with pytest.raises(ValueError):
        solve_point(cluster, 0.0)
    with pytest.raises(ValueError):
        solve_point(cluster, 1.0, solver="petri-net")


def test_plan_to_dict_json_round_trips(cluster):
    plan = plan_sweep(cluster, parse_multipliers("0.5:100:5"))
    payload = json.loads(json.dumps(plan.to_dict()))
    assert payload["bottleneck"] == cluster.bottleneck
    assert len(payload["points"]) == 5
    # Infinite latencies serialize as null, not as Infinity.
    assert payload["points"][-1]["mean_latency"] is None
    assert payload["points"][-1]["feasible"] is False


def test_plan_text_is_byte_stable(cluster):
    grid = parse_multipliers("0.5:100:9")
    first = plan_sweep(cluster, grid).to_text()
    second = plan_sweep(cluster, grid).to_text()
    assert first == second
    assert "knee: first infeasible multiplier" in first
    assert "SATURATED" in first


# -- cross-validation --------------------------------------------------------


def test_cross_validate_reports_relative_error(tiny_store, cluster):
    _, spec = tiny_store
    points = cross_validate(cluster, [1.0], spec, workers=1)
    assert len(points) == 1
    point = points[0]
    assert point.analytic_feasible
    assert point.simulated_latency > 0
    assert math.isfinite(point.relative_error_pct)
    # The analytic model should land within Table-2-style bounds of the
    # simulation at the fitted operating point.
    assert point.relative_error_pct < 50.0
    payload = json.loads(json.dumps(point.to_dict()))
    assert payload["relative_error_pct"] == pytest.approx(
        point.relative_error_pct
    )


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("seed", [3, 7, 11])
@pytest.mark.parametrize("app", ["gfs", "webapp"])
def test_cross_validate_equals_characterized_store(
    cluster, tmp_path, app, seed, workers
):
    # The in-memory mean is the figure the store round trip reads: the
    # same completed-request latencies, reduced in the same order.
    spec = FleetSpec(app=app, replicas=2, seed=seed, n_requests=150)
    multipliers = [1.0, 2.0]
    points = cross_validate(cluster, multipliers, spec, workers=workers)
    base_rate = spec.replica(0).arrival_rate
    for i, multiplier in enumerate(multipliers):
        result = collect_fleet_to_store(
            spec.at_rate(base_rate * multiplier),
            directory=tmp_path / f"point-{i}",
            workers=workers,
        )
        profile = characterize_source(result.store())
        assert points[i].simulated_latency == profile.requests.mean_latency


def test_cross_validate_rejects_rateless_app(cluster):
    spec = FleetSpec(app="mapreduce", replicas=1, seed=3)
    with pytest.raises(ValueError):
        cross_validate(cluster, [1.0], spec)


# -- CLI ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def cli_store(tmp_path_factory):
    directory = tmp_path_factory.mktemp("plan-cli") / "store"
    spec = FleetSpec(app="gfs", replicas=2, seed=7, n_requests=200)
    collect_fleet_to_store(spec, directory=directory, workers=1)
    return directory


def test_cli_plan_sweep_with_validation(cli_store, capsys):
    assert main([
        "plan", "--in", str(cli_store), "--scale", "0.5:10:5",
        "--validate-at", "1", "--max-per-class", "64",
    ]) == 0
    out = capsys.readouterr().out
    assert "knee:" in out
    assert "cross-validation" in out
    assert "rel err%" in out


def test_cli_plan_json_parses_and_is_byte_stable(cli_store, capsys):
    argv = [
        "plan", "--in", str(cli_store), "--scale", "0.5:10:5",
        "--max-per-class", "64", "--json",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    payload = json.loads(first)
    assert payload["plan"]["knee_multiplier"] is not None
    assert payload["validation"] == []
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_cli_plan_model_file_needs_rate(cli_store, tmp_path, capsys):
    model_path = tmp_path / "classes.json"
    assert main([
        "train", "--in", str(cli_store), "--per-class",
        "--model", str(model_path),
    ]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["plan", "--in", str(model_path), "--scale", "1,2"])
    assert main([
        "plan", "--in", str(model_path), "--rate", "25",
        "--scale", "1,2,50", "--max-per-class", "64",
    ]) == 0
    assert "fit from model" in capsys.readouterr().out


def test_cli_plan_corrupt_model_exits_nonzero(tmp_path):
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text('{"not": "a model"}')
    with pytest.raises(SystemExit) as excinfo:
        main(["plan", "--in", str(corrupt), "--rate", "25"])
    assert excinfo.value.code != 0
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"format": "kooza-per-class", "classes"')
    with pytest.raises(SystemExit):
        main(["plan", "--in", str(truncated), "--rate", "25"])


@pytest.mark.parametrize(
    "flag,grid",
    [
        ("--validate-at", "nan"),
        ("--validate-at", "inf"),
        ("--scale", "nan"),
        ("--scale", "1,nan"),
        ("--scale", "1:inf:3"),
    ],
)
def test_cli_plan_rejects_non_finite_grid_before_simulating(
    cli_store, monkeypatch, flag, grid
):
    import repro.queueing.plan as plan_module

    def no_simulation(*args, **kwargs):
        raise AssertionError("a non-finite grid reached the simulation")

    monkeypatch.setattr(plan_module, "fit_cluster_model", no_simulation)
    monkeypatch.setattr(plan_module, "cross_validate", no_simulation)
    with pytest.raises(SystemExit) as excinfo:
        main(["plan", "--in", str(cli_store), flag, grid])
    message = excinfo.value.code
    assert isinstance(message, str) and "\n" not in message
    assert "finite" in message


def test_cli_plan_rejects_bad_grid(cli_store):
    with pytest.raises(SystemExit):
        main(["plan", "--in", str(cli_store), "--scale", "bogus"])
