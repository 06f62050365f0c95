"""The four benchmark workloads and the run shape they share.

Every workload runs the same shape:

1. **inputs** — drawn from the seed: the Table 1 dataset, the clients
   that own each subscription, the arrival schedules. Untimed.
2. **set-up** — stand the system up and pre-build what clients send
   (subscription requests, publication frames). Timed at reference
   speed (:class:`hostspeed.SampledClock`), repeated
   :data:`SETUP_REPEATS` times; ``setup_s`` is the median.
3. **rounds** — :attr:`Workload.rounds` rounds, each made of

   * a *closed-loop* chunk: a fixed backlog of publications drained as
     fast as the system goes (capacity, simulated enclave time);
   * an *open-loop* segment: publications arrive on a seeded Poisson
     schedule at the workload's fixed absolute rate, and each latency
     runs from the scheduled arrival;
   * a chunk of *join requests*, each timed from request to the
     registration being applied in the enclave (on
     ``subscriber-churn`` joins and leaves run inside the closed-loop
     backlog instead).

   The host is probed before and after every part of a round
   (:func:`hostspeed.host_probe`), so each part is a short window,
   and every time measured in a window is scaled by the probes around
   it to the reference speed. Capacities and latencies pool the
   scaled samples of all windows.
4. **check** — after timing, every client decrypts what it received
   and the plaintext oracle replays the run in processing order.

A traced run adds, after the rounds, an untraced and a traced drain of
the same backlog: the traced one gives the per-layer stage table, and
the pair gives the tracing overhead.
"""

from __future__ import annotations

import collections
import gc
import hashlib
import statistics
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from hostspeed import SampledClock, host_probe, scale
from loadgen import (backlog_growing, drive_open_loop, percentile,
                     poisson_arrivals)
from oracle import Oracle, compare_deliveries, expected_deliveries
from spans import Tracer, no_sim, stage_table
from worlds import SecureWorld

from repro.core.cluster import MatcherCluster
from repro.core.keys import GroupKeyManager
from repro.core.publisher import Publisher
from repro.ingress import IngressConfig, IngressTier
from repro.obs.metrics import MetricsRegistry
from repro.recovery import RouterSupervisor
from repro.sgx.cpu import SKYLAKE_I7_6700, scaled_spec
from repro.workloads import build_dataset, merged_events

#: set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: largest tolerated |sum of stage self times - traced wall| / wall.
RECONCILE_TOLERANCE = 0.01
#: dataset seed of every workload's subscriber population. The
#: population (which subscriptions exist) is part of a workload's
#: definition; ``--seed`` draws the traffic: the publications, the
#: arrival schedules and which client makes each join.
POPULATION_SEED = 2016
#: warm-up publications before any timing (plane compile, first touch).
WARMUP_PUBS = 64
#: publications sent after the last round, so the check also covers
#: the subscriptions joined during the rounds. Untimed.
VERIFY_PUBS = 64


def _client(index: int) -> str:
    return f"c{index:03d}"


def _payload(frame: int) -> bytes:
    return b"pub-%06d" % frame


class _Phase:
    """Times a block and the simulated cycles it charged."""

    def __init__(self, cycles: Callable[[], float]) -> None:
        self._cycles = cycles

    def __enter__(self) -> "_Phase":
        self.cycles0 = self._cycles()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self.t0
        self.sim_cycles = self._cycles() - self.cycles0


class Window:
    """The samples taken between two host probes."""

    def __init__(self, probe_before: float) -> None:
        self.probe_before = probe_before
        self.probe_after = probe_before
        self.pubs = 0
        self.pub_wall = 0.0
        self.subs = 0
        self.sub_wall = 0.0
        self.pub_latency: List[float] = []
        self.sub_latency: List[float] = []

    @property
    def scale(self) -> float:
        """Factor from this window's wall-clock to reference-speed time."""
        return scale(self.probe_before, self.probe_after)


class Tally:
    """Samples gathered over the rounds of one run, window by window.

    :meth:`probe` measures the host's speed and starts a new window, so
    every sample belongs to the window between the probes around it.
    """

    def __init__(self) -> None:
        self.windows: List[Window] = []
        self.current: Optional[Window] = None
        self.pubs = 0
        self.subs = 0
        self.pub_sim = 0.0
        self.sub_sim = 0.0
        self.lag: List[float] = []
        self.depth: List[int] = []
        self.queue_wait: List[float] = []
        self.batch_sizes: List[float] = []
        self.attempted = 0
        self.shed = 0

    def probe(self) -> None:
        """Close the current window and open the next one."""
        seconds = host_probe()
        if self.current is not None:
            self.current.probe_after = seconds
            self.windows.append(self.current)
        self.current = Window(seconds)

    @property
    def pub_latency(self) -> List[float]:
        return self.current.pub_latency

    @property
    def sub_latency(self) -> List[float]:
        return self.current.sub_latency

    def closed(self, pubs: int, wall_s: float, sim: float) -> None:
        self.current.pubs += pubs
        self.current.pub_wall += wall_s
        self.pubs += pubs
        self.pub_sim += sim
        self.attempted += pubs

    def joins(self, subs: int, wall_s: float, sim: float) -> None:
        self.current.subs += subs
        self.current.sub_wall += wall_s
        self.subs += subs
        self.sub_sim += sim

    def segment(self, run: Dict[str, object]) -> None:
        self.lag.extend(run["lag"])
        self.depth.extend(run["depth"])
        self.attempted += len(run["lag"])

    def probes(self) -> List[float]:
        return [self.windows[0].probe_before] + [
            w.probe_after for w in self.windows]


class Workload:
    """One named workload; subclasses fill in the phases."""

    name = ""
    #: fixed absolute open-loop publication rate (publications/s): at
    #: most a third of the wall-clock closed-loop capacity measured when
    #: the benchmark was written, on a shared 2-vCPU x86-64 host in its
    #: slow stretches, so the rate stays sustainable at any host speed.
    rate_per_s = 0.0
    #: share of ``--seconds`` given to the open-loop segments.
    open_share = 0.6
    #: closed-loop / open-loop / join rounds per run; each part of a
    #: round is a window between two host probes.
    rounds = 64
    #: publications drained closed-loop per run (over all rounds).
    closed_pubs = 0

    def __init__(self, seed: int, seconds: float, trace: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.rng = np.random.default_rng(seed)
        self.segment_s = seconds * self.open_share / self.rounds

    def params(self) -> Dict[str, object]:
        """Workload parameters recorded with every result."""
        return {"rate_per_s": self.rate_per_s, "rounds": self.rounds,
                "open_s": self.segment_s * self.rounds,
                "closed_pubs": self.closed_pubs}

    def segments(self, rate: float) -> List[List[float]]:
        """One seeded Poisson schedule per round."""
        return [poisson_arrivals(rate, self.segment_s, self.rng)
                for _ in range(self.rounds)]

    def population(self, dataset: str, n_subs: int, n_events: int):
        """The fixed subscriptions, and ``n_events`` seeded publications
        drawn from the same quote collection."""
        data = build_dataset(dataset, n_subs, 1, seed=POPULATION_SEED)
        events = merged_events(data.collection,
                               data.spec.attribute_multiplier, n_events,
                               self.rng)
        return data.subscriptions, events

    def pooled_inputs(self) -> None:
        """Base subscriptions dealt round-robin to the clients, joins
        from seeded clients, and a pool of publications to cycle."""
        subs, self.events = self.population(
            self.dataset, self.n_subs + self.n_joins, self.pool)
        self.base = [(_client(i % self.n_clients), sub)
                     for i, sub in enumerate(subs[:self.n_subs])]
        picks = self.rng.integers(0, self.n_clients, size=self.n_joins)
        self.joins = [(_client(int(p)), sub)
                      for p, sub in zip(picks, subs[self.n_subs:])]
        self.arrivals = self.segments(self.rate_per_s)
        self._next = 0

    def next_frames(self, n: int) -> List[int]:
        """The next ``n`` pool indices, cycling through the pool."""
        frames = [(self._next + i) % self.pool for i in range(n)]
        self._next += n
        return frames

    # -- phases (subclasses) ---------------------------------------------

    def make_inputs(self) -> None:
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError

    def measure(self, world, trace: bool) -> Dict[str, object]:
        raise NotImplementedError

    def check(self, world) -> List[str]:
        raise NotImplementedError

    def teardown(self, world) -> None:
        world.close()


def _layer_metrics(tracer: Tracer, n_ops: int, n_pubs: int,
                   cycles_to_us) -> Dict[str, float]:
    """Self ms, calls and simulated µs per operation, per layer."""
    out: Dict[str, float] = {}
    ops = max(n_ops, 1)
    for layer, acc in tracer.layer_totals().items():
        out[f"{layer}.self_ms_per_op"] = acc.self_s * 1e3 / ops
        out[f"{layer}.sim_us_per_op"] = cycles_to_us(acc.self_sim) / ops
        out[f"{layer}.calls_per_op"] = acc.calls / ops
    pubs = max(n_pubs, 1)
    out["enclave.ecalls_per_pub"] = (
        tracer.calls("ecall match_publication")
        + tracer.calls("ecall match_publications")) / pubs
    out["matching.compiles_per_pub"] = \
        tracer.calls("ColumnarMatchPlane.compile") / pubs
    checkpoint_ms, checkpoints = tracer.total_ms(
        "CheckpointManager.checkpoint")
    out["recovery.checkpoint_ms"] = \
        checkpoint_ms / checkpoints if checkpoints else 0.0
    return out


def _trace_drain(untraced: Callable[[], object],
                 traced: Callable[[], object], n_ops: int, n_pubs: int,
                 cycles, cycles_to_us) -> Dict[str, object]:
    """Untraced then traced drain of equal size: stage table + overhead.

    ``untraced`` runs twice and only the second run is timed: the
    drain right after the join phase pays first touches of the grown
    index, which would otherwise read as negative tracing overhead.
    The overhead compares the two drains at reference speed, each
    scaled by the host probes around it.
    """
    untraced()
    probe = host_probe()
    t0 = time.perf_counter()
    untraced()
    base_wall = time.perf_counter() - t0
    base_scale = scale(probe, host_probe())
    tracer = Tracer(cycles)
    probe = host_probe()
    t0 = time.perf_counter()
    tracer.run(traced)
    wall = time.perf_counter() - t0
    traced_scale = scale(probe, host_probe())
    table, error = stage_table(tracer, n_ops, cycles_to_us, wall,
                               RECONCILE_TOLERANCE)
    layer = _layer_metrics(tracer, n_ops, n_pubs, cycles_to_us)
    layer["trace.overhead_x"] = \
        (wall * traced_scale) / (base_wall * base_scale)
    layer["trace.reconcile_error"] = error
    return {"layer": layer, "table": table}


def _summary(tally: Tally, cycles_to_us) -> Dict[str, object]:
    """Run-wide results. Latencies and capacities are reference-speed
    figures: every sample is scaled by its window's :attr:`Window.scale`.
    The unscaled figures are kept under ``wall``."""
    windows = tally.windows

    def latencies(attr: str, scaled: bool) -> List[float]:
        return [x * (w.scale if scaled else 1.0) for w in windows
                for x in getattr(w, attr)]

    def capacity(count: str, wall: str, scaled: bool) -> float:
        spent = sum(getattr(w, wall) * (w.scale if scaled else 1.0)
                    for w in windows)
        return sum(getattr(w, count) for w in windows) / spent

    probes = tally.probes()
    return {
        "pub_latency_s": latencies("pub_latency", True),
        "sub_latency_s": latencies("sub_latency", True),
        "pub_capacity_per_s": capacity("pubs", "pub_wall", True),
        "sub_capacity_per_s": capacity("subs", "sub_wall", True),
        "wall": {
            "pub_latency_s": latencies("pub_latency", False),
            "sub_latency_s": latencies("sub_latency", False),
            "pub_capacity_per_s": capacity("pubs", "pub_wall", False),
            "sub_capacity_per_s": capacity("subs", "sub_wall", False),
        },
        "probe_ms": {"n": len(probes),
                     **{f"p{q}": 1e3 * percentile(probes, q)
                        for q in (0, 10, 50, 90)}},
        "sim_pub_us": cycles_to_us(tally.pub_sim) / tally.pubs,
        "sim_sub_us": cycles_to_us(tally.sub_sim) / tally.subs,
        "lag_s": tally.lag,
        "backlog_growing": backlog_growing(tally.depth),
    }


# -- router workloads --------------------------------------------------------


class RouterWorkload(Workload):
    """Publications through an attested router; a static base index."""

    dataset = "e80a1"
    backend = "columnar"
    n_clients = 40
    n_subs = 400
    n_joins = 192
    pool = 256
    closed_pubs = 2048

    def spec(self):
        return SKYLAKE_I7_6700

    def params(self) -> Dict[str, object]:
        out = super().params()
        out.update(dataset=self.dataset, matcher_backend=self.backend,
                   clients=self.n_clients, subscriptions=self.n_subs,
                   joins=self.n_joins, frame_pool=self.pool,
                   epc_usable_bytes=self.spec().epc_usable_bytes,
                   llc_bytes=self.spec().llc_bytes)
        return out

    def make_inputs(self) -> None:
        self.pooled_inputs()
        self.payloads = [_payload(i) for i in range(self.pool)]
        self.master = hashlib.sha256(b"group|%d" % self.seed).digest()

    def setup(self) -> SecureWorld:
        world = SecureWorld(self.spec(), self.backend, self.master)
        for index in range(self.n_clients):
            world.add_client(_client(index))
        world.register(world.subscription_requests(self.base))
        world.join_requests = world.subscription_requests(self.joins)
        world.publisher = Publisher(world.bus, world.provider.keys,
                                    world.provider.group)
        world.frames = [world.publisher.make_publication(event, payload)
                        for event, payload
                        in zip(self.events, self.payloads)]
        return world

    # -- publication path (subclasses) ---------------------------------

    def drain(self, world, frames: List[int]) -> None:
        """Hand a backlog of frames to the system and process it all."""
        raise NotImplementedError

    def open_segment(self, world, arrivals: List[float],
                     tally: Tally) -> None:
        raise NotImplementedError

    # -- the run ---------------------------------------------------------

    def _join_chunk(self, world: SecureWorld, joins, tally: Tally) -> None:
        """Join requests one at a time: client -> provider -> router."""
        sim = 0.0
        start = time.perf_counter()
        for (client, request), (_name, sub) in joins:
            c0 = world.cycles
            t0 = time.perf_counter()
            world.clients[client].endpoint.send(world.provider.name,
                                                [request])
            world.provider.pump(world.router.name)
            world.router.pump()
            tally.sub_latency.append(time.perf_counter() - t0)
            sim += world.cycles - c0
            self.log.append(("join", client, [sub]))
        tally.joins(len(joins), time.perf_counter() - start, sim)

    def measure(self, world: SecureWorld, trace: bool
                ) -> Dict[str, object]:
        self.log: List[Tuple] = []
        cycles = lambda: world.cycles  # noqa: E731
        to_us = world.platform.spec.cycles_to_us
        failed0 = world.failed()
        tally = Tally()
        self.drain(world, self.next_frames(WARMUP_PUBS))
        joins = list(zip(world.join_requests, self.joins))
        per_round = self.closed_pubs // self.rounds
        joins_per_round = self.n_joins // self.rounds
        for index in range(self.rounds):
            frames = self.next_frames(per_round)
            tally.probe()
            with _Phase(cycles) as phase:
                self.drain(world, frames)
            tally.closed(per_round, phase.wall_s, phase.sim_cycles)
            tally.probe()
            self.open_segment(world, self.arrivals[index], tally)
            tally.probe()
            self._join_chunk(
                world, joins[index * joins_per_round:
                             (index + 1) * joins_per_round], tally)
        tally.probe()
        result = _summary(tally, to_us)
        if trace:
            memory0 = world.platform.memory.snapshot()
            deliveries0 = world.router.deliveries
            n = self.closed_pubs
            first, second = self.next_frames(n), self.next_frames(n)
            traced = _trace_drain(lambda: self.drain(world, first),
                                  lambda: self.drain(world, second),
                                  n, n, cycles, to_us)
            memory = world.platform.memory.snapshot().delta(memory0)
            tally.attempted += 3 * n
            layer = traced["layer"]
            layer.update({
                "router.deliveries_per_pub":
                    (world.router.deliveries - deliveries0) / (3 * n),
                "memory.epc_faults_per_pub": memory.epc_faults / (3 * n),
                "memory.llc_miss_rate": memory.llc_miss_rate,
                "ingress.batch_size_mean": statistics.mean(
                    tally.batch_sizes) if tally.batch_sizes else 0.0,
                "ingress.queue_wait_p50_ms": 1e3 * percentile(
                    tally.queue_wait, 50),
            })
            result.update(layer=layer, table=traced["table"])
        self.drain(world, self.next_frames(VERIFY_PUBS))
        result["attempted"] = tally.attempted + self.n_joins
        result["failed"] = world.failed() - failed0 + tally.shed
        return result

    def check(self, world: SecureWorld) -> List[str]:
        expected = expected_deliveries(self.log, self.events,
                                       self.payloads, self.base)
        return compare_deliveries(expected, world.deliveries_by_client())


class QuotesIngress(RouterWorkload):
    """Columnar router behind the ingress tier's batch coalescer."""

    name = "quotes-ingress"
    rate_per_s = 250.0
    batch_size = 32
    inbox_capacity = 1024
    connections = 2

    def params(self) -> Dict[str, object]:
        out = super().params()
        out.update(batch_size=self.batch_size,
                   inbox_capacity=self.inbox_capacity,
                   connections=self.connections)
        return out

    def _tier(self, world: SecureWorld, capacity: int
              ) -> Tuple[IngressTier, list]:
        tier = IngressTier(world.router,
                           IngressConfig(inbox_capacity=capacity,
                                         batch_size=self.batch_size),
                           metrics=MetricsRegistry())
        return tier, [tier.connect(f"pub{k}")
                      for k in range(self.connections)]

    def drain(self, world: SecureWorld, frames: List[int]) -> None:
        tier, connections = self._tier(world, len(frames))
        log = self.log
        tier.on_complete = lambda entry: log.append(("pub", entry.token))
        for position, frame in enumerate(frames):
            connections[position % self.connections].submit(
                world.frames[frame], token=frame)
        tier.drain()

    def open_segment(self, world: SecureWorld, arrivals: List[float],
                     tally: Tally) -> None:
        tier, connections = self._tier(world, self.inbox_capacity)
        frames = self.next_frames(len(arrivals))
        n = len(frames)
        done = [0.0] * n
        batch_start = [0.0] * n
        state = {"batches": 0, "mark": 0.0, "start": 0.0}
        log = self.log
        clock = time.perf_counter

        def on_complete(entry) -> None:
            now = clock()
            if tier.batches != state["batches"]:
                # First completion of a new batch: it started when the
                # previous batch of this pump finished.
                state["batches"] = tier.batches
                state["start"] = state["mark"]
                state["mark"] = now
            done[entry.token] = now
            batch_start[entry.token] = state["start"]
            log.append(("pub", frames[entry.token]))

        def service() -> None:
            state["mark"] = clock()
            tier.pump()

        tier.on_complete = on_complete
        run = drive_open_loop(
            arrivals,
            lambda i: connections[i % self.connections].submit(
                world.frames[frames[i]], token=i),
            service, lambda: tier.backlog)
        start = run["start"]
        for i in range(n):
            if done[i]:
                due = start + arrivals[i]
                tally.pub_latency.append(done[i] - due)
                tally.queue_wait.append(batch_start[i] - due)
        tally.segment(run)
        tally.shed += tier.shed
        if tier.batches:
            tally.batch_sizes.append(tier.accepted / tier.batches)


class QuotesEpc(RouterWorkload):
    """Forest router past the EPC cliff; one frame per ecall over the bus."""

    name = "quotes-epc"
    dataset = "e80a2"
    backend = "forest"
    rate_per_s = 35.0
    closed_pubs = 256
    pool = 256
    open_share = 0.7
    #: usable EPC and LLC below the modelled index (~150 KB at 400
    #: e80a2 subscriptions): the Fig. 8 regime.
    epc_usable_bytes = 96 * 1024
    llc_bytes = 32 * 1024

    def spec(self):
        reserved = self.epc_usable_bytes // 4
        return scaled_spec(llc_bytes=self.llc_bytes,
                           epc_bytes=self.epc_usable_bytes + reserved,
                           epc_reserved_bytes=reserved)

    def drain(self, world: SecureWorld, frames: List[int]) -> None:
        send = world.publisher.endpoint.send
        for frame in frames:
            send(world.router.name, [world.frames[frame]])
        world.router.pump()
        self.log.extend(("pub", frame) for frame in frames)

    def open_segment(self, world: SecureWorld, arrivals: List[float],
                     tally: Tally) -> None:
        # Arrivals wait in the generator's FIFO and reach the router's
        # inbox one at a time, so each completion is stamped.
        frames = self.next_frames(len(arrivals))
        queue: collections.deque = collections.deque()
        done = [0.0] * len(frames)
        send = world.publisher.endpoint.send

        def service() -> None:
            index = queue.popleft()
            send(world.router.name, [world.frames[frames[index]]])
            world.router.pump()
            done[index] = time.perf_counter()
            self.log.append(("pub", frames[index]))

        run = drive_open_loop(arrivals, queue.append, service,
                              lambda: len(queue))
        start = run["start"]
        tally.pub_latency.extend(done[i] - start - arrivals[i]
                                 for i in range(len(frames)) if done[i])
        tally.segment(run)


# -- subscriber churn -----------------------------------------------------


class SubscriberChurn(Workload):
    """Joins and leaves among publications, under the supervisor.

    Each round's closed-loop backlog mixes publications with
    ``churn_per_round`` churn operations. A joining client sends its
    ``subs_per_client`` requests one by one, then the oldest client
    leaves (revoked with all its subscriptions), so the index size
    holds steady. Those joins give the subscription latencies. The
    open loop then replays publications alone against the churned
    index: a checkpoint stall (one per 32 journalled records) there
    would land on a varying 3-10 % of publications and make p95 swing
    by 5x between seeds.
    """

    name = "subscriber-churn"
    dataset = "e80a1"
    backend = "columnar"
    n_clients = 30
    subs_per_client = 10
    rate_per_s = 80.0
    rounds = 48
    closed_pubs = 384
    churn_per_round = 6
    checkpoint_interval = 32
    open_share = 0.6

    def params(self) -> Dict[str, object]:
        out = super().params()
        out.update(dataset=self.dataset, matcher_backend=self.backend,
                   clients=self.n_clients,
                   subs_per_client=self.subs_per_client,
                   churn_per_round=self.churn_per_round,
                   checkpoint_interval=self.checkpoint_interval)
        return out

    def _churn_kinds(self, n: int) -> List[str]:
        """The next ``n`` churn operations: every client's requests,
        then one leave."""
        kinds = []
        for _ in range(n):
            cycle = self.subs_per_client + 1
            kinds.append("leave" if self._churned % cycle == cycle - 1
                         else "join")
            self._churned += 1
        return kinds

    def _closed_kinds(self) -> List[str]:
        """One round's backlog: ``churn_per_round`` churn operations
        spread evenly through the round's publications."""
        pubs = self.closed_pubs // self.rounds
        churn = self._churn_kinds(self.churn_per_round)
        kinds = []
        for index in range(pubs):
            kinds.append("pub")
            if index % (pubs // len(churn)) == 0 and churn:
                kinds.append(churn.pop(0))
        return kinds + churn

    def make_inputs(self) -> None:
        self._churned = 0
        # Processing order of every operation the run will make.
        kinds = ["pub"] * WARMUP_PUBS
        self.plan = []
        for times in self.segments(self.rate_per_s):
            closed = self._closed_kinds()
            self.plan.append((closed, times))
            kinds += closed + ["pub"] * len(times)
        if self.trace:
            self.trace_kinds = [kind for _ in range(self.rounds)
                                for kind in self._closed_kinds()]
            kinds += self.trace_kinds * 3
        n_pubs = kinds.count("pub")
        per = self.subs_per_client
        n_joiners = -(-kinds.count("join") // per)
        subs, self.events = self.population(
            self.dataset, (self.n_clients + n_joiners) * per, n_pubs)
        names = [_client(i) for i in range(self.n_clients)] \
            + [f"j{i:03d}" for i in range(n_joiners)]
        self.base = [(name, sub) for i, name
                     in enumerate(names[:self.n_clients])
                     for sub in subs[i * per:(i + 1) * per]]
        self.join_regs = [(name, sub) for i, name
                          in enumerate(names[self.n_clients:],
                                        self.n_clients)
                          for sub in subs[i * per:(i + 1) * per]]
        self.payloads = [_payload(i) for i in range(n_pubs)]
        self.kinds = kinds
        self.master = hashlib.sha256(b"group|%d" % self.seed).digest()

    def setup(self) -> SecureWorld:
        world = SecureWorld(SKYLAKE_I7_6700, self.backend, self.master)
        for index in range(self.n_clients):
            world.add_client(_client(index))
        world.register(world.subscription_requests(self.base))
        world.supervisor = RouterSupervisor(
            world.router, world.provider.provision_router,
            checkpoint_interval=self.checkpoint_interval)
        world.supervisor.checkpoints.checkpoint()
        for name, _sub in self.join_regs[::self.subs_per_client]:
            world.add_client(name, admit=False)
        world.join_requests = world.subscription_requests(self.join_regs)
        # Frames are built in processing order: each leave rotates the
        # group key, and a publication carries the epoch current when
        # it is published.
        group = GroupKeyManager(master=self.master)
        world.publisher = Publisher(world.bus, world.provider.keys, group)
        frame = 0
        for kind in self.kinds:
            if kind == "leave":
                group.rotate()
            elif kind == "pub":
                world.frames.append(world.publisher.make_publication(
                    self.events[frame], self.payloads[frame]))
                frame += 1
        return world

    # -- one operation at a time, in arrival order ------------------------

    def _pub(self, world: SecureWorld) -> None:
        frame = self._frame
        self._frame += 1
        world.publisher.endpoint.send(world.router.name,
                                      [world.frames[frame]])
        world.supervisor.pump()
        self.log.append(("pub", frame))

    def _join(self, world: SecureWorld) -> None:
        """One join request: a joiner's first request admits it."""
        index = self._joined
        self._joined += 1
        name, request = world.join_requests[index]
        client = world.clients[name]
        position = index % self.subs_per_client
        if position == 0:
            client.process_admission(world.provider.admit_client(name))
        client.endpoint.send(world.provider.name, [request])
        world.provider.pump(world.router.name)
        world.supervisor.pump()
        self.log.append(("join", name, [self.join_regs[index][1]]))
        if position == self.subs_per_client - 1:
            self._active.append(name)

    def _leave(self, world: SecureWorld) -> None:
        name = self._active.popleft()
        frames = world.provider.revoke_client(name)
        world.provider.endpoint.send(world.router.name, frames)
        world.supervisor.pump()
        self.log.append(("leave", name))

    def _do(self, world: SecureWorld, kind: str) -> None:
        if kind == "pub":
            self._pub(world)
        elif kind == "join":
            self._join(world)
        else:
            self._leave(world)

    def _drain(self, world: SecureWorld, kinds: List[str],
               tally: Optional[Tally]) -> None:
        """Process a mixed backlog one op at a time; the publication and
        registration paths are timed apart (a leave counts toward the
        registration path: it keeps the index size steady)."""
        spent = {"pub": 0.0, "join": 0.0, "leave": 0.0}
        sim = {"pub": 0.0, "join": 0.0, "leave": 0.0}
        joins = []
        for kind in kinds:
            c0 = world.cycles
            t0 = time.perf_counter()
            self._do(world, kind)
            elapsed = time.perf_counter() - t0
            spent[kind] += elapsed
            sim[kind] += world.cycles - c0
            if kind == "join":
                joins.append(elapsed)
        if tally is not None:
            tally.sub_latency.extend(joins)
            tally.closed(kinds.count("pub"), spent["pub"], sim["pub"])
            tally.joins(kinds.count("join"),
                        spent["join"] + spent["leave"], sim["join"])
            tally.attempted += len(kinds) - kinds.count("pub")

    def _open_segment(self, world: SecureWorld, times: List[float],
                      tally: Tally) -> None:
        done = [0.0] * len(times)
        queue: collections.deque = collections.deque()

        def service() -> None:
            index = queue.popleft()
            self._pub(world)
            done[index] = time.perf_counter()

        run = drive_open_loop(times, queue.append, service,
                              lambda: len(queue))
        start = run["start"]
        tally.pub_latency.extend(done[i] - start - times[i]
                                 for i in range(len(times)))
        tally.segment(run)

    def measure(self, world: SecureWorld, trace: bool
                ) -> Dict[str, object]:
        self.log = []
        self._frame = 0
        self._joined = 0
        self._active = collections.deque(
            _client(i) for i in range(self.n_clients))
        to_us = world.platform.spec.cycles_to_us
        failed0 = world.failed()
        tally = Tally()
        for _ in range(WARMUP_PUBS):
            self._pub(world)
        for closed, times in self.plan:
            tally.probe()
            self._drain(world, closed, tally)
            tally.probe()
            self._open_segment(world, times, tally)
        tally.probe()
        result = _summary(tally, to_us)
        if trace:
            memory0 = world.platform.memory.snapshot()
            deliveries0 = world.router.deliveries
            kinds = self.trace_kinds
            n_pubs = kinds.count("pub")
            traced = _trace_drain(lambda: self._drain(world, kinds, None),
                                  lambda: self._drain(world, kinds, None),
                                  len(kinds), n_pubs,
                                  lambda: world.cycles, to_us)
            memory = world.platform.memory.snapshot().delta(memory0)
            tally.attempted += 3 * len(kinds)
            held = world.supervisor.checkpoints.store.held()
            layer = traced["layer"]
            layer.update({
                "router.deliveries_per_pub":
                    (world.router.deliveries - deliveries0) / (3 * n_pubs),
                "memory.epc_faults_per_pub": memory.epc_faults
                / (3 * n_pubs),
                "memory.llc_miss_rate": memory.llc_miss_rate,
                "recovery.sealed_bytes": statistics.mean(
                    len(cp.sealed_bytes) for cp in held),
            })
            result.update(layer=layer, table=traced["table"])
        result["attempted"] = tally.attempted
        result["failed"] = world.failed() - failed0
        return result

    def check(self, world: SecureWorld) -> List[str]:
        expected = expected_deliveries(self.log, self.events,
                                       self.payloads, self.base)
        problems = compare_deliveries(expected,
                                      world.deliveries_by_client())
        replay_failures = world.supervisor.stats()["metrics"].get(
            "recovery.replay_failures_total", 0)
        if replay_failures:
            problems.append(f"{replay_failures} WAL replay failures")
        return problems


# -- sharded cluster ---------------------------------------------------------


class ShardedCluster(Workload):
    """Plaintext matcher cluster: two slices, in the benchmark's process."""

    name = "sharded-cluster"
    dataset = "e80a2"
    n_clients = 100
    n_subs = 4000
    n_joins = 384
    n_slices = 2
    pool = 256
    batch_size = 32
    rounds = 32
    closed_pubs = 192
    rate_per_s = 22.0
    open_share = 0.7
    llc_bytes = 256 * 1024

    def params(self) -> Dict[str, object]:
        out = super().params()
        out.update(dataset=self.dataset, matcher_backend="forest",
                   clients=self.n_clients, subscriptions=self.n_subs,
                   joins=self.n_joins, slices=self.n_slices,
                   assignment="epc-aware", backend="serial",
                   batch_size=self.batch_size, llc_bytes=self.llc_bytes)
        return out

    def make_inputs(self) -> None:
        self.pooled_inputs()

    def setup(self) -> MatcherCluster:
        cluster = MatcherCluster(
            self.n_slices, spec=scaled_spec(llc_bytes=self.llc_bytes),
            assignment="epc-aware", backend="serial")
        for client, sub in self.base:
            cluster.register(sub, client)
        cluster.warm()
        return cluster

    def _match(self, cluster: MatcherCluster, frames: List[int]) -> None:
        for start in range(0, len(frames), self.batch_size):
            batch = frames[start:start + self.batch_size]
            results = cluster.match_batch([self.events[f]
                                           for f in batch])
            for frame, result in zip(batch, results):
                self.log.append(("pub", frame, result.subscribers))
                self.sim_us.append(result.latency_us)

    def _open_segment(self, cluster: MatcherCluster,
                      arrivals: List[float], tally: Tally) -> None:
        frames = self.next_frames(len(arrivals))
        queue: collections.deque = collections.deque()
        done = [0.0] * len(frames)

        def service() -> None:
            batch = [queue.popleft()
                     for _ in range(min(len(queue), self.batch_size))]
            self._match(cluster, [frames[i] for i in batch])
            now = time.perf_counter()
            for index in batch:
                done[index] = now

        run = drive_open_loop(arrivals, queue.append, service,
                              lambda: len(queue))
        start = run["start"]
        tally.pub_latency.extend(done[i] - start - arrivals[i]
                                 for i in range(len(frames)) if done[i])
        tally.segment(run)

    def _join_chunk(self, cluster: MatcherCluster, joins,
                    tally: Tally) -> None:
        start = time.perf_counter()
        for client, sub in joins:
            t0 = time.perf_counter()
            cluster.register(sub, client)
            cluster.warm()
            tally.sub_latency.append(time.perf_counter() - t0)
            self.log.append(("join", client, sub))
        tally.joins(len(joins), time.perf_counter() - start, 0.0)

    def measure(self, cluster: MatcherCluster, trace: bool
                ) -> Dict[str, object]:
        self.log: List[Tuple] = []
        self.sim_us: List[float] = []
        tally = Tally()
        self._match(cluster, self.next_frames(self.batch_size))
        per_round = self.closed_pubs // self.rounds
        joins_per_round = self.n_joins // self.rounds
        closed_sim: List[float] = []
        for index in range(self.rounds):
            frames = self.next_frames(per_round)
            first = len(self.sim_us)
            tally.probe()
            with _Phase(no_sim) as phase:
                self._match(cluster, frames)
            closed_sim.extend(self.sim_us[first:])
            tally.closed(per_round, phase.wall_s, 0.0)
            tally.probe()
            self._open_segment(cluster, self.arrivals[index], tally)
            tally.probe()
            self._join_chunk(
                cluster, self.joins[index * joins_per_round:
                                    (index + 1) * joins_per_round], tally)
        tally.probe()
        result = _summary(tally, lambda c: c)
        # Every slice has its own simulated platform: a publication's
        # simulated time is its latency, the max over slices.
        result["sim_pub_us"] = statistics.mean(closed_sim)
        if trace:
            faults0 = sum(s.epc_faults
                          for s in cluster.slice_samples(True))
            n = self.closed_pubs
            first, second = self.next_frames(n), self.next_frames(n)
            start = len(self.sim_us)
            traced = _trace_drain(lambda: self._match(cluster, first),
                                  lambda: self._match(cluster, second),
                                  n, n, no_sim, lambda c: c)
            faults = sum(s.epc_faults
                         for s in cluster.slice_samples(True)) - faults0
            tally.attempted += 3 * n
            sizes = cluster.slice_sizes()
            layer = traced["layer"]
            layer.update({
                "cluster.sim_us_per_op": statistics.mean(
                    self.sim_us[start:]),
                "memory.epc_faults_per_pub": faults / (3 * n),
                "cluster.slice_skew": max(sizes) / statistics.mean(sizes),
            })
            result.update(layer=layer, table=traced["table"])
        self._match(cluster, self.next_frames(VERIFY_PUBS))
        result["attempted"] = tally.attempted + self.n_joins
        result["failed"] = 0
        return result

    def check(self, cluster: MatcherCluster) -> List[str]:
        oracle = Oracle()
        for client, sub in self.base:
            oracle.join(client, [sub])
        problems = []
        for kind, first, second in self.log:
            if kind == "join":
                oracle.join(first, [second])
                continue
            want = oracle.match(self.events[first], key=first)
            if set(second) != want:
                problems.append(f"event {first}: cluster matched "
                                f"{len(second)} clients, oracle "
                                f"{len(want)}")
        return problems


WORKLOADS = {cls.name: cls for cls in
             (QuotesIngress, QuotesEpc, SubscriberChurn, ShardedCluster)}


def run_workload(name: str, seed: int, seconds: float, trace: bool
                 ) -> Dict[str, object]:
    """Inputs, set-ups, measured rounds and the correctness check."""
    workload = WORKLOADS[name](seed, seconds, trace)
    phases = {}
    t0 = time.perf_counter()
    workload.make_inputs()
    phases["inputs"] = time.perf_counter() - t0
    setups = []
    setups_wall = []
    world = None
    for _ in range(1 if trace else SETUP_REPEATS):
        if world is not None:
            workload.teardown(world)
            world = None
            gc.collect()
        with SampledClock() as clock:
            world = workload.setup()
        setups.append(clock.scaled_s)
        setups_wall.append(clock.wall_s)
    try:
        # The deployment's objects live for the whole run: keep full
        # collections from rescanning them (objects the measured
        # traffic creates are still collected as usual).
        gc.collect()
        gc.freeze()
        t0 = time.perf_counter()
        measured = workload.measure(world, trace)
        phases["measure"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        problems = workload.check(world)
        phases["check"] = time.perf_counter() - t0
    finally:
        gc.unfreeze()
        workload.teardown(world)
    measured.update(setup_s=statistics.median(setups), setups_s=setups,
                    setups_wall_s=setups_wall,
                    phases_s=phases, problems=problems,
                    params=workload.params())
    return measured


__all__ = ["WORKLOADS", "run_workload", "SETUP_REPEATS",
           "RECONCILE_TOLERANCE"]
