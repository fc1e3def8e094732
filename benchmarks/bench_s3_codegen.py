"""Experiment S3 — code generation round trip.

The paper's workflow ends "until generation code".  This bench measures
generation cost for both backends and proves the Python round trip: the
generated module (no ``repro`` import) reproduces the library simulation
of the same diagram exactly, on a continuous PID loop and on a sampled
probe (zero-order hold and unit delay on a sample grid that is not a
multiple of the step).
"""

import numpy as np

from benchmarks.conftest import pid_plant_diagram
from repro.codegen import generate_c, generate_python
from repro.core.backend import CompileRequest, compile_program
from repro.core.model import HybridModel
from repro.dataflow import FirstOrderLag, Sine, UnitDelay, ZeroOrderHold
from repro.dataflow.diagram import Diagram


def test_s3_python_generation_cost(benchmark):
    source = benchmark(
        lambda: generate_python(pid_plant_diagram(8),
                                records=["plant.out"])
    )
    assert "def simulate" in source


def test_s3_c_generation_cost(benchmark):
    source = benchmark(
        lambda: generate_c(pid_plant_diagram(8), records=["plant.out"])
    )
    assert "int main(void)" in source
    assert source.count("{") == source.count("}")


def test_s3_round_trip_fidelity(benchmark, report, bench_json):
    h = 0.002
    results = {}

    def round_trip():
        source = generate_python(
            pid_plant_diagram(0), records=["plant.out"], default_h=h
        )
        namespace = {}
        exec(compile(source, "<gen>", "exec"), namespace)
        generated = namespace["simulate"](4.0, h=h)
        results["generated"] = generated["plant.out"][-1]
        results["loc"] = len(source.splitlines())

    benchmark(round_trip)

    diagram = pid_plant_diagram(0)
    diagram.finalise()
    model = HybridModel("ref")
    model.default_thread.h = h
    model.add_streamer(diagram)
    model.add_probe("y", diagram.port_at("plant.out"))
    model.run(until=4.0, sync_interval=0.05)
    reference = model.probe("y").y_final[0]

    diff = abs(results["generated"] - reference)
    report("S3: generated-code round trip (PID loop)", [
        f"library simulation final : {reference:.8f}",
        f"generated module final   : {results['generated']:.8f}",
        f"difference               : {diff:.2e}",
        f"generated Python         : {results['loc']} lines, "
        "stdlib-only",
    ])
    assert diff == 0.0
    bench_json("s3", {
        "round_trip_difference": diff,
        "generated_python_loc": results["loc"],
    })


def sampled_probe(ts):
    """Sine -> ZeroOrderHold(ts) -> UnitDelay(ts) -> FirstOrderLag."""
    d = Diagram("probe")
    d.add(Sine("src", amplitude=1.0))
    d.add(ZeroOrderHold("zoh", ts=ts))
    d.add(UnitDelay("delay", ts=ts))
    d.add(FirstOrderLag("lag", tau=0.2))
    d.connect("src.out", "zoh.in")
    d.connect("zoh.out", "delay.in")
    d.connect("delay.out", "lag.in")
    return d


def test_s3_sampled_round_trip(report, bench_json):
    """The sampled probe at ts = 0.013, h = 0.01 for 10 s: the generated
    module takes the simulation's samples, so every record matches."""
    ts, h, t_end = 0.013, 0.01, 10.0
    records = ["zoh.out", "delay.out", "lag.out"]
    namespace = {}
    exec(compile(
        generate_python(sampled_probe(ts), records=records, default_h=h),
        "<gen>", "exec",
    ), namespace)
    generated = namespace["simulate"](t_end)
    reference = compile_program(CompileRequest(
        diagram=sampled_probe(ts), records=records, solver="rk4", h=h,
    ), "interpreter").run(t_end)

    assert np.array_equal(generated["t"], reference.t)
    diffs = {
        label: float(np.max(np.abs(
            np.asarray(generated[label]) - reference.series[label]
        )))
        for label in records
    }
    report("S3: generated-code round trip (sampled probe)", [
        f"ts = {ts}, h = {h}, {t_end:g} s, {len(reference.t)} records",
        *(f"max |difference| {label:<9}: {diff:.2e}"
          for label, diff in diffs.items()),
    ])
    assert all(diff == 0.0 for diff in diffs.values()), diffs
    bench_json("s3", {"sampled_round_trip_difference": max(diffs.values())})


def test_s3_generated_code_speed(benchmark, report, bench_json):
    """The generated flat loop outruns the reflective simulator — the
    reason code generation is the deployment path."""
    import time

    h = 0.002
    source = generate_python(pid_plant_diagram(0),
                             records=["plant.out"], default_h=h)
    namespace = {}
    exec(compile(source, "<gen>", "exec"), namespace)
    simulate = namespace["simulate"]

    benchmark(lambda: simulate(2.0, h=h, record_every=100))

    start = time.perf_counter()
    simulate(2.0, h=h, record_every=100)
    generated_wall = time.perf_counter() - start

    diagram = pid_plant_diagram(0)
    diagram.finalise()
    model = HybridModel("ref")
    model.default_thread.h = h
    model.add_streamer(diagram)
    start = time.perf_counter()
    model.run(until=2.0, sync_interval=0.05)
    library_wall = time.perf_counter() - start

    report("S3: generated code vs in-library simulation (2 sim-s)", [
        f"generated module: {generated_wall * 1e3:8.1f} ms",
        f"library         : {library_wall * 1e3:8.1f} ms",
        f"speedup         : {library_wall / generated_wall:8.1f}x",
    ])
    assert generated_wall < library_wall
    bench_json("s3", {
        "generated_wall_ms": generated_wall * 1e3,
        "library_wall_ms": library_wall * 1e3,
        "speedup": library_wall / generated_wall,
    })
