"""The cluster: sharded workers, live migration, HTTP front-end.

This demo stands up the whole distributed story in one process tree:

* a 3-worker :class:`repro.cluster.WorkerPool` over a shared
  content-addressed artifact/checkpoint store;
* the threaded HTTP front-end (one thread per connection) and its
  socket client — every job below travels as JSON over a real socket;
* a mixed workload: a fan of cruise-control runs (one streamed live as
  NDJSON telemetry) plus a pendulum batch sweep;
* a mid-run **SIGKILL** of a busy worker: the victim's job migrates to
  a survivor, resumes from the shared spool's newest checkpoint, and
  its CRC-32 probe digests are compared against an uninterrupted rerun
  of the same request — bitwise-identical is the contract;
* the closing pool status: steals, migrations, worker deaths, and the
  merged cross-process metrics.

Run:  python examples/cluster_demo.py
"""

import json
import tempfile
import time

from repro.cluster import (
    ClusterClient,
    ClusterConfig,
    ClusterHTTPServer,
    ClusterJobRequest,
    WorkerPool,
)


def build_cruise_model():
    """The demo's workhorse, from the cluster's model catalogue —
    also what ``python -m repro.check`` lints in this file."""
    from repro.cluster.models import cruise

    return cruise(setpoint=28.0)


def cruise_request(index: int) -> ClusterJobRequest:
    return ClusterJobRequest(
        kind="single_run", model="cruise",
        params={
            "t_end": 2.0, "sync_interval": 0.01,
            "checkpoint_every_steps": 40,
        },
        model_args={"setpoint": 20.0 + 2.0 * index},
        client=f"demo-{index % 2}", name=f"cruise-{index}",
    )


def digests(summary: dict) -> dict:
    return {
        name: (probe["times_crc32"], probe["states_crc32"])
        for name, probe in summary["probes"].items()
    }


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-demo-") as root:
        with WorkerPool(root, ClusterConfig(workers=3)) as pool:
            with ClusterHTTPServer(pool) as server:
                client = ClusterClient(server.url)
                client.wait_ready()
                print(f"cluster up: 3 workers behind {server.url}")
                print(f"models: {', '.join(client.models())}\n")

                # -- a fan of runs + one live NDJSON stream ------------
                jobs = [client.submit(cruise_request(i)) for i in range(6)]
                print(f"submitted {len(jobs)} cruise runs over HTTP")
                streamed = 0
                for event in client.stream(jobs[0]):
                    streamed += 1
                    if event["kind"] == "progress":
                        payload = event["payload"]
                        print(
                            f"  [{jobs[0]}] t={event['t']:5.2f}  "
                            f"v={payload['probes'].get('v', 0.0):6.2f}"
                        )
                print(f"  …{streamed} NDJSON events streamed\n")

                # -- SIGKILL a busy worker: live migration -------------
                victim_job = client.submit(cruise_request(6))
                while True:
                    status = client.job(victim_job)
                    if status["worker"] is not None and \
                            pool.store.checkpoints(victim_job):
                        break
                    time.sleep(0.01)
                victim = status["worker"]
                print(f"SIGKILL worker {victim} (running {victim_job})")
                pool.kill_worker(victim)
                migrated = client.result(victim_job, timeout=120)
                print(
                    f"  job finished anyway: state={migrated['state']} "
                    f"worker={migrated['worker']} "
                    f"attempts={migrated['attempts']} "
                    f"migrations={migrated['migrations']}"
                )

                # the migration contract: bitwise vs an uninterrupted run
                rerun_id = client.submit(cruise_request(6))
                rerun = client.result(rerun_id, timeout=120)
                same = digests(migrated["result"]) == digests(rerun["result"])
                print(f"  CRC-32 probe digests vs uninterrupted rerun: "
                      f"{'identical' if same else 'MISMATCH'}\n")

                # -- a batch sweep rides the same wire -----------------
                sweep_id = client.submit(ClusterJobRequest(
                    kind="batch", model="pendulum",
                    params={
                        "n": 48, "t_end": 0.5, "h": 1e-3,
                        # one gain per instance: 48-point kp sweep
                        "sweeps": {"pid.kp": [
                            20.0 + 30.0 * i / 47.0 for i in range(48)
                        ]},
                    },
                    checkpoint=False, name="kp-sweep",
                ))
                sweep = client.result(sweep_id, timeout=120)["result"]
                print(f"batch sweep: n={sweep['n']}, "
                      f"{sweep['rows']} recorded rows\n")

                for handle_id in jobs:
                    client.result(handle_id, timeout=120)

                snapshot = client.status()
                print("pool status:")
                print(json.dumps({
                    "jobs": snapshot["jobs"],
                    "steals": snapshot["steals"],
                    "migrations": snapshot["migrations"],
                    "worker_deaths": sum(
                        w["deaths"] for w in snapshot["workers"]
                    ),
                }, indent=2, sort_keys=True))
                counters = pool.metrics.snapshot()["counters"]
                print(f"\nmerged worker metrics: "
                      f"{counters.get('cluster.submitted', 0)} submitted, "
                      f"{counters.get('jobs.resumed', 0)} resumed, "
                      f"{counters.get('cluster.steals', 0)} stolen")
                print("OK" if same else "FAILED: probe digest mismatch")
                return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
