"""Experiment S10 — scenario campaign throughput and coverage saturation.

The campaign engine's cost model has two axes: how fast scenarios move
through the differential oracles (scenarios/sec, batch-family vectorised
path vs the sequential reference it is checked against), and how fast
the steered campaign saturates its coverage universes (the whole point
of steering: fewer scenarios to the same coverage).  Both land in
``BENCH_S10.json``.
"""

import time

from benchmarks.conftest import pid_plant_diagram
from repro.core.batch import BatchSimulator, simulate_sequential
from repro.scenarios.campaign import (
    CampaignConfig,
    CampaignRunner,
    execute_scenario,
)
from repro.scenarios.coverage import DIMENSIONS

T_END = 0.1
BACKENDS = ["compiled-python"]


def _config(**overrides):
    base = dict(
        seed=0, t_end=T_END, backends=BACKENDS, workers=4,
        round_size=16,
    )
    base.update(overrides)
    return CampaignConfig(**base)


def test_s10_batch_vs_sequential_path(report, bench_json):
    """One batch-family workload: vectorised vs N interpreter loops."""
    n = 32
    sim = BatchSimulator(
        pid_plant_diagram(0), n, solver="rk4", h=1.0 / 512.0,
        records=["plant.out"],
    )
    sim.run(0.01)  # warm the compiled program

    start = time.perf_counter()
    sim.run(0.5)
    batch_wall = time.perf_counter() - start

    start = time.perf_counter()
    simulate_sequential(
        lambda: pid_plant_diagram(0), n, 0.5, solver="rk4",
        h=1.0 / 512.0, records=["plant.out"],
    )
    sequential_wall = time.perf_counter() - start

    report("S10: batch vs sequential scenario path (N=32 instances)", [
        f"sequential: {sequential_wall * 1e3:8.1f} ms "
        f"({n / sequential_wall:6.1f} instances/s)",
        f"batch     : {batch_wall * 1e3:8.1f} ms "
        f"({n / batch_wall:6.1f} instances/s)",
        f"ratio     : {sequential_wall / batch_wall:8.1f}x",
    ])
    bench_json("s10", {
        "batch_path": {
            "n_instances": n,
            "sequential_wall_ms": sequential_wall * 1e3,
            "batch_wall_ms": batch_wall * 1e3,
            "speedup": sequential_wall / batch_wall,
        },
    })


def test_s10_campaign_throughput(report, bench_json):
    """Scenarios/sec through the runner's fan-out, parallel vs serial."""
    count = 32
    walls = {}
    for workers in (1, 4):
        runner = CampaignRunner(_config(count=count, workers=workers))
        start = time.perf_counter()
        result = runner.run()
        walls[workers] = time.perf_counter() - start
        assert result.ok, result.divergences

    report(f"S10: campaign throughput ({count} scenarios, steered)", [
        f"workers=1: {walls[1]:6.2f} s "
        f"({count / walls[1]:6.1f} scenarios/s)",
        f"workers=4: {walls[4]:6.2f} s "
        f"({count / walls[4]:6.1f} scenarios/s)",
        f"parallel speedup: {walls[1] / walls[4]:5.2f}x",
    ])
    bench_json("s10", {
        "campaign_throughput": {
            "count": count,
            "serial_wall_s": walls[1],
            "parallel_wall_s": walls[4],
            "serial_scenarios_per_s": count / walls[1],
            "parallel_scenarios_per_s": count / walls[4],
        },
    })


def test_s10_coverage_saturation(report, bench_json):
    """Coverage fraction per dimension after each steered round."""
    rounds, round_size = 6, 16
    config = _config(count=rounds * round_size)
    runner = CampaignRunner(config)
    curve = []
    index = 0
    for __ in range(rounds):
        specs, index = runner._select_round(index, round_size)
        for spec in specs:
            outcome = execute_scenario(spec, config)
            assert outcome.ok, outcome.detail
            runner.ledger.merge_outcome(outcome.coverage)
        curve.append({
            dim: round(runner.ledger.fraction(dim), 4)
            for dim in DIMENSIONS
        })

    # saturation is monotone: the ledger only ever grows
    for dim in DIMENSIONS:
        fractions = [point[dim] for point in curve]
        assert fractions == sorted(fractions)

    report("S10: coverage saturation over steered rounds "
           f"({rounds} x {round_size} scenarios)", [
        f"round {i + 1}: " + "  ".join(
            f"{dim}={point[dim]:.0%}" for dim in DIMENSIONS
        )
        for i, point in enumerate(curve)
    ])
    bench_json("s10", {
        "coverage_saturation": {
            "rounds": rounds,
            "round_size": round_size,
            "curve": curve,
        },
    })
