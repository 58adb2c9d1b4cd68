"""Experiment RB2 — self-healing: recovery time and goodput under overload.

Two measurements, one claim: the serving tier keeps earning its
latency budget while broken things fix themselves.

**Part A — coverage through a kill→respawn cycle.**  A live cluster
(health monitor heartbeating into each node's breaker, supervisor
sweeping) serves a steady query stream while one node is killed
mid-run.  Every answer's coverage is recorded against the wall clock,
tracing the full arc: full coverage → degraded once the dead node's
legs fail and its breaker opens (fan-outs then skip it, no budget
burned discovering it) → full coverage again once the supervisor
respawns it and a good probe half-opens its breaker for the trial
leg that readmits it.
Reported: seconds from kill to first degraded answer (detection) and
from kill to coverage restored (recovery).  The run *must* recover —
a cluster that stays degraded fails the benchmark in any mode.

**Part B — goodput under overload, fixed vs adaptive admission.**
A single node faces an *open-loop* stream of deadline-carrying
searches offered faster than it can sweep — the fan-in of many
independent users, who keep arriving no matter how the server is
doing — twice: once with the static ``max_inflight`` bound, once
with the AIMD :class:`~repro.service.guard.AdaptiveLimiter` plus p90
deadline shedding.  Under the static bound the dispatch queue fills
with requests whose budgets drain while they wait; the head of the
queue is perpetually almost-expired and board passes are burned on
answers nobody is waiting for.  The adaptive limit shrinks admission
to the node's real concurrency, sheds budgets the observed sweep
time cannot cover before sweeping them, and spends the board on
requests that can still make their deadline.  Goodput = on-time
answers per second; the full run asserts adaptive >= fixed.

``python benchmarks/bench_selfheal.py --tiny`` runs a seconds-scale
smoke of both parts for CI; results land in ``BENCH_selfheal.json``.
"""

import asyncio
import os
import time

from repro.analysis.report import render_table
from repro.analysis.results import write_bench_json
from repro.io.generate import random_dna
from repro.service import CircuitBreaker, DatabaseIndex, QueryOptions, ServiceError
from repro.service.cache import ResultCache
from repro.service.client import AsyncSearchClient
from repro.service.cluster import ClusterSupervisor, LocalCluster
from repro.service.engine import SearchEngine
from repro.service.net import ServerConfig, ServerThread

QUERY_BP = 48
OPTIONS = QueryOptions(top=5, min_score=1)
QUERY_POOL = [random_dna(QUERY_BP, seed=300 + i) for i in range(6)]


def _percentile(values, q):
    ranked = sorted(values)
    if not ranked:
        return 0.0
    rank = min(len(ranked) - 1, max(0, round(q * (len(ranked) - 1))))
    return ranked[rank]


def _build_workload(n_records=24, record_bp=3_000, label="selfheal-bench", shards=None):
    """``shards=1`` makes each sweep atomic — no mid-sweep deadline
    abort — which is the honest model of the paper's board pass and
    the regime where admission policy actually decides what burns."""
    records = [
        (f"rec{i}", random_dna(record_bp, seed=4_000 + i)) for i in range(n_records)
    ]
    return DatabaseIndex.build(records, shards=shards, source=label)


# ----------------------------------------------------------------------
# Part A: coverage over time through kill -> respawn
# ----------------------------------------------------------------------
def run_heal_timeline(
    index,
    nodes=3,
    mode="process",
    requests=60,
    kill_after=8,
    heartbeat=0.15,
    recovery_budget_s=30.0,
):
    """Kill a node under live traffic; time detection and recovery."""
    timeline = []
    with LocalCluster(index, nodes=nodes, mode=mode, batch_window=0.0) as cluster:
        victim = cluster.topology().active_nodes[-1].node_id
        with cluster.client(
            gather_timeout=5.0,
            breaker_factory=lambda node_id: CircuitBreaker(
                failure_threshold=2, name=f"node-{node_id}"
            ),
        ) as client:
            monitor = client.start_health_monitor(interval=heartbeat)
            supervisor = ClusterSupervisor(
                cluster,
                coordinators=[client],
                poll_interval=heartbeat,
                obs=client.obs,
            )
            supervisor.start()
            try:
                t0 = time.perf_counter()
                t_kill = None
                recovered = False
                for i in range(requests):
                    if i == kill_after:
                        cluster.kill_node(victim)
                        t_kill = time.perf_counter() - t0
                    query = QUERY_POOL[i % len(QUERY_POOL)]
                    response = client.search(query, OPTIONS)
                    now = time.perf_counter() - t0
                    timeline.append({"t": now, "coverage": response.coverage})
                    # Once degraded coverage has come back to 1.0, the
                    # arc is complete; a short tail confirms stability.
                    if (
                        t_kill is not None
                        and response.coverage == 1.0
                        and any(p["coverage"] < 1.0 for p in timeline)
                    ):
                        recovered = True
                        if i >= kill_after + 3:
                            break
                    if t_kill is not None and now - t_kill > recovery_budget_s:
                        break
                    time.sleep(heartbeat / 3)
            finally:
                supervisor.stop()
                monitor.stop()
            health = dict(client.health())
    assert t_kill is not None, "the kill point was never reached"
    degraded_ts = [p["t"] for p in timeline if p["coverage"] < 1.0]
    healed_ts = [
        p["t"]
        for p in timeline
        if p["coverage"] == 1.0 and degraded_ts and p["t"] > degraded_ts[0]
    ]
    detect_s = (degraded_ts[0] - t_kill) if degraded_ts else None
    recover_s = (healed_ts[0] - t_kill) if healed_ts else None
    assert recovered and recover_s is not None, (
        f"cluster never healed within {recovery_budget_s}s of the kill "
        f"(mode={mode}, victim={victim})"
    )
    return {
        "nodes": nodes,
        "mode": mode,
        "victim": victim,
        "heartbeat_s": heartbeat,
        "kill_at_s": t_kill,
        "detect_s": detect_s,
        "recover_s": recover_s,
        "requests": len(timeline),
        "degraded_answers": len(degraded_ts),
        "final_status": health.get("status"),
        "timeline": timeline,
    }


# ----------------------------------------------------------------------
# Part B: goodput under overload, fixed vs adaptive admission
# ----------------------------------------------------------------------
async def _open_loop(host, port, offered_rps, duration_s, deadline_ms, conns):
    """Fire deadline-carrying searches at a fixed offered rate.

    Open loop, deliberately: a closed loop of N clients self-regulates
    (each waits for its last answer before issuing the next, so queue
    depth can never exceed N), which hides exactly the failure mode
    admission control exists for.  Real overload is the fan-in of many
    independent users who keep arriving no matter how the server is
    doing.  Requests are paced on a fixed schedule over ``conns``
    pipelined connections; each either answers on time (ok), or fails
    — rejected at admission, shed, or expired (error)."""
    defaults = QueryOptions(top=5, min_score=1, deadline_ms=deadline_ms)
    clients = [
        await AsyncSearchClient.connect(host, port, defaults=defaults)
        for _ in range(conns)
    ]
    loop = asyncio.get_running_loop()
    counts = {"ok": 0, "late": 0, "errors": 0}
    latencies = []
    budget_s = deadline_ms / 1e3

    async def one(i):
        t0 = loop.time()
        try:
            await asyncio.wait_for(
                clients[i % conns].search(QUERY_POOL[i % len(QUERY_POOL)]),
                timeout=30.0,
            )
        except (ServiceError, ConnectionError, OSError, asyncio.TimeoutError):
            counts["errors"] += 1
        else:
            # Goodput counts answers the caller was still waiting for.
            # A success that lands after the budget is wasted work —
            # exactly the waste admission control exists to avoid — so
            # it scores as "late", not "ok".
            elapsed = loop.time() - t0
            latencies.append(elapsed)
            if elapsed <= budget_s:
                counts["ok"] += 1
            else:
                counts["late"] += 1

    total = int(offered_rps * duration_s)
    interval = 1.0 / offered_rps
    start = loop.time()
    tasks = []
    for i in range(total):
        delay = start + i * interval - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(one(i)))
    await asyncio.gather(*tasks, return_exceptions=True)
    wall = loop.time() - start
    for client in clients:
        await client.close()
    return counts["ok"], counts["late"], counts["errors"], total, latencies, wall


def _run_overload(index, adaptive, offered_rps, duration_s, deadline_ms, conns=4):
    """One admission policy under the open-loop overload workload.

    The offered rate oversubscribes the node's sweep capacity by
    design.  With the static bound the dispatch queue fills with
    requests whose budgets drain while they wait — the head of the
    queue is perpetually almost-expired, and every sweep is spent on a
    request that misses anyway.  Adaptive admission caps the queue at
    the node's real concurrency, sheds budgets the observed sweep time
    cannot cover, and spends the board on requests that still make it.
    """
    engine = SearchEngine(index, cache=ResultCache(0))
    config = ServerConfig(
        batch_window=0.0,
        max_inflight=64,
        adaptive=adaptive,
        shed_min_samples=8,
    )
    with ServerThread(engine, config=config) as handle:
        ok, late, errors, issued, latencies, wall = asyncio.run(
            _open_loop(
                handle.host, handle.port, offered_rps, duration_s,
                deadline_ms, conns,
            )
        )
        final_limit = handle.server._admission_limit()
    return {
        "adaptive": adaptive,
        "offered_rps": offered_rps,
        "connections": conns,
        "duration_s": duration_s,
        "requests": issued,
        "deadline_ms": deadline_ms,
        "on_time": ok,
        "late_answers": late,
        "rejected_or_missed": errors,
        "wall_seconds": wall,
        "goodput_rps": ok / wall if wall > 0 else 0.0,
        "on_time_fraction": ok / issued if issued else 0.0,
        "latency_p50_s": _percentile(latencies, 0.50),
        "latency_p99_s": _percentile(latencies, 0.99),
        "final_limit": final_limit,
    }


def run_rb2(
    index,
    overload_index=None,
    mode="process",
    offered_rps=60,
    duration_s=6.0,
    deadline_ms=120,
    assert_goodput=True,
):
    """The RB2 pair; returns (table rows, json payload).

    ``overload_index`` (default: ``index``) is the part-B database —
    the full run hands in a single-shard build so sweeps are atomic
    and a doomed admission burns a whole board pass.
    """
    overload_index = overload_index if overload_index is not None else index
    payload = {
        "experiment": "RB2",
        "db_bp": index.total_bp,
        "records": index.record_count,
        "query_bp": QUERY_BP,
        "cpu_count": os.cpu_count(),
        "heal": run_heal_timeline(index, mode=mode),
        "overload": {},
    }
    fixed = _run_overload(
        overload_index, adaptive=False, offered_rps=offered_rps,
        duration_s=duration_s, deadline_ms=deadline_ms,
    )
    adaptive = _run_overload(
        overload_index, adaptive=True, offered_rps=offered_rps,
        duration_s=duration_s, deadline_ms=deadline_ms,
    )
    payload["overload"]["fixed"] = fixed
    payload["overload"]["adaptive"] = adaptive
    ratio = (
        adaptive["goodput_rps"] / fixed["goodput_rps"]
        if fixed["goodput_rps"] > 0
        else float("inf")
    )
    payload["goodput_ratio_adaptive_vs_fixed"] = ratio
    heal = payload["heal"]
    rows = [
        [
            "heal",
            heal["mode"],
            f"{heal['detect_s']:.2f}s detect",
            f"{heal['recover_s']:.2f}s recover",
            f"{heal['degraded_answers']} degraded",
            heal["final_status"] or "?",
        ]
    ]
    for run in (fixed, adaptive):
        label = "adaptive" if run["adaptive"] else "fixed"
        rows.append(
            [
                label,
                f"limit {run['final_limit']}",
                f"{run['goodput_rps']:.1f} ok/s",
                f"{run['on_time_fraction'] * 100:.0f}% on time",
                f"p99 {run['latency_p99_s'] * 1e3:.0f} ms",
                f"{run['rejected_or_missed']} refused",
            ]
        )
    # The acceptance bar: shrinking admission to real capacity must not
    # cost goodput — the whole point is that it buys some back.
    if assert_goodput:
        assert ratio >= 1.0, (
            f"adaptive admission reached only {ratio:.2f}x the fixed-limit "
            f"goodput ({adaptive['goodput_rps']:.1f} vs "
            f"{fixed['goodput_rps']:.1f} ok/s); need >= 1.0x"
        )
    return rows, payload


HEADERS = ["part", "config", "metric 1", "metric 2", "metric 3", "metric 4"]


def main(argv=None):
    """Direct entry point: ``--tiny`` for the CI smoke run."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="seconds-scale smoke workload (thread-mode heal, no goodput gate)",
    )
    args = parser.parse_args(argv)
    if args.tiny:
        index = _build_workload(n_records=8, record_bp=600, label="selfheal-tiny")
        rows, payload = run_rb2(
            index,
            mode="thread",
            offered_rps=40,
            duration_s=1.5,
            deadline_ms=200,
            assert_goodput=False,
        )
    else:
        index = _build_workload()
        overload_index = _build_workload(label="selfheal-overload", shards=1)
        rows, payload = run_rb2(index, overload_index=overload_index)
    print(
        render_table(
            HEADERS,
            rows,
            title=(
                f"RB2: self-heal + adaptive admission, "
                f"{index.total_bp / 1e6:.2f} MBP database"
            ),
        )
    )
    write_bench_json("selfheal", payload)
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
