"""The benchmark's workloads, run against the product from outside.

Sweeps run in fresh ``python perf/sweep_child.py`` processes that call
the public ``repro.runtime`` API; the sweep service runs as a ``python
-m repro.serve serve`` process driven over its NDJSON protocol.  The
parent never imports simulator internals: it builds ``JobSpec``\\ s,
reads results back through the result cache after the timed window, and
checks them (``oracle.py``).  Every run works in a fresh directory under
``.perf_work/`` of the checkout and deletes it when done.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import oracle
from sweep_child import MB, peak_rss_mb

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PERF = ROOT / "perf"
WORK_ROOT = ROOT / ".perf_work"

#: The seven dataflows of the paper's comparison, all 2-layer.
KINDS = ("op", "op-deferred", "op-tiled", "rwp", "cwp", "gcod", "hymm")
N_LAYERS = 2
#: amazon-photo@0.25 simulates at a 1-19% DMB miss rate per kind,
#: coauthor-cs@0.2 at 11-51% (HyMM's gains follow the hit rate, Fig. 9).
#: Each sweep takes 4-6 s on a 2-vCPU host, so a traced run (one
#: untraced and one traced sweep) stays well inside the run cap.
LOWMISS = ("amazon-photo", 0.25)
HIGHMISS = ("coauthor-cs", 0.2)
#: ``--smoke`` replaces every point with this one.
SMOKE_POINT = ("cora", 0.3)
#: serve-mixed's cold submits: cora/hymm at seeds seed+1 .. seed+MISS_SEEDS.
MISS_POINT = ("cora", 1.0)
MISS_KIND = "hymm"
MISS_SEEDS = 64
#: Product processes whose spawn -> ready time makes up ``setup_s``.
#: Half are spawned before the timed window and the rest after it: the
#: host's speed steps by 20-30% from one few-second stretch to the
#: next, and spawns back to back (0.3 s each) sample only one of them.
SETUP_SAMPLES = 10
#: A run may take this much longer than its measured window (the store
#: it starts from, set-up probes, checks); past it the run fails, so a
#: 10-s window never makes a run of 30 s or more.
RUN_OVERHEAD_S = 19.0


class BenchError(RuntimeError):
    """The run cannot continue (a product process failed or hung)."""


def sweep_specs(points: Sequence[Tuple[str, float]], seed: int) -> list:
    from repro.runtime import JobSpec

    return [
        JobSpec(dataset, kind, scale, n_layers=N_LAYERS, seed=seed)
        for dataset, scale in points
        for kind in KINDS
    ]


def miss_specs(point: Tuple[str, float], seed: int) -> list:
    from repro.runtime import JobSpec

    dataset, scale = point
    return [
        JobSpec(dataset, MISS_KIND, scale, n_layers=N_LAYERS, seed=seed + i)
        for i in range(1, MISS_SEEDS + 1)
    ]


def dir_bytes(path: Path) -> int:
    total = 0
    for base, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(base, name))
            except OSError:
                pass
    return total


def _record_walk(cache_dir: Path, specs: Sequence) -> Iterator[str]:
    """Paths of the result records (``<fingerprint>.json``) of ``specs``
    wherever the cache keeps them; the trace tree is skipped."""
    wanted = {f"{spec.fingerprint()}.json" for spec in specs}
    for base, dirs, files in os.walk(cache_dir):
        if Path(base) == cache_dir and "traces" in dirs:
            dirs.remove("traces")
        for name in files:
            if name in wanted:
                yield os.path.join(base, name)


def record_sizes(cache_dir: Path, specs: Sequence) -> List[int]:
    return [os.path.getsize(path) for path in _record_walk(cache_dir, specs)]


def delete_records(cache_dir: Path, specs: Sequence) -> None:
    for path in list(_record_walk(cache_dir, specs)):
        os.remove(path)


def median(values: Sequence[float]) -> Optional[float]:
    return statistics.median(values) if values else None


# ----------------------------------------------------------------------
# Product processes
# ----------------------------------------------------------------------
class Proc:
    """One product child process with a kill-on-timeout watchdog."""

    def __init__(self, bench: "Bench", cmd: List[str], env: Dict[str, str],
                 timeout: float, stdout: Any = subprocess.DEVNULL) -> None:
        self.bench = bench
        self.log = open(bench.work / "children.log", "ab")
        self.spawned = time.perf_counter()
        self.popen = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout,
                                      stderr=self.log)
        bench.live.append(self)
        self.timer = threading.Timer(min(timeout, bench.remaining()),
                                     self.popen.kill)
        self.timer.daemon = True
        self.timer.start()
        self.ended: Optional[float] = None

    def poll(self) -> Optional[int]:
        code = self.popen.poll()
        if code is not None:
            self._close()
        return code

    def wait(self, timeout: Optional[float] = None) -> Optional[int]:
        """Exit code, or ``None`` if still running after ``timeout``."""
        try:
            code = self.popen.wait(timeout)
        except subprocess.TimeoutExpired:
            return None
        if self.ended is None:
            self.ended = time.perf_counter()
        self._close()
        return code

    def kill(self) -> None:
        if self.popen.poll() is None:
            self.popen.kill()
        self.wait()

    def _close(self) -> None:
        self.timer.cancel()
        self.log.close()
        if self.popen.stdout is not None:
            self.popen.stdout.close()
        if self in self.bench.live:
            self.bench.live.remove(self)


class Conn:
    """One NDJSON connection to the sweep server."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=60)
        self.rfile = self.sock.makefile("rb")

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        self.sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))
        line = self.rfile.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.rfile.close()
        finally:
            self.sock.close()


class Server:
    """A ``repro.serve serve`` process over one cache directory."""

    def __init__(self, bench: "Bench", cache_dir: Path, traced: bool) -> None:
        tag = bench.next_tag()
        ready = bench.work / f"ready-{tag}.txt"
        self.span_file = bench.work / f"spans-{tag}.json" if traced else None
        self.layers_file = bench.work / f"layers-{tag}.json" if traced else None
        args = ["serve", "--host", "127.0.0.1", "--port", "0",
                "--cache-dir", str(cache_dir), "--ready-file", str(ready)]
        if traced:
            args += ["--span-file", str(self.span_file)]
            cmd = [sys.executable, str(PERF / "serve_launcher.py"),
                   str(self.layers_file)] + args
        else:
            cmd = [sys.executable, "-m", "repro.serve"] + args
        self.proc = Proc(bench, cmd, bench.env(cache_dir), timeout=150)
        # repro.serve writes the ready file non-atomically: read it only
        # once it holds a complete newline-terminated line.
        text = ""
        while not text.endswith("\n"):
            if self.proc.poll() is not None:
                raise BenchError("server exited before it was ready")
            try:
                text = ready.read_text(encoding="utf-8")
            except FileNotFoundError:
                pass
            if not text.endswith("\n"):
                time.sleep(0.002)
        self.setup_s = time.perf_counter() - self.proc.spawned
        host, port = text.split()
        self.host, self.port = host, int(port)

    def connect(self) -> Conn:
        return Conn(self.host, self.port)

    def stop(self) -> bool:
        """``/shutdown``, then kill on timeout; True on a clean exit.
        Sets :attr:`rss_mb`, the server's peak RSS, read just before."""
        self.rss_mb = peak_rss_mb(self.proc.popen.pid)
        try:
            conn = self.connect()
            try:
                conn.request({"op": "shutdown"})
            finally:
                conn.close()
        except OSError:
            pass
        if self.proc.wait(timeout=15) is None:
            self.proc.kill()
            return False
        return self.proc.popen.returncode == 0


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
class Bench:
    """State of one benchmark run: work directory, live children, the
    correctness gate and the set-up samples."""

    def __init__(self, seed: int, smoke: bool, expected: Dict[str, str],
                 seconds: float) -> None:
        self.seed = seed
        self.smoke = smoke
        self.started = time.monotonic()
        self.deadline_s = seconds + RUN_OVERHEAD_S
        WORK_ROOT.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
        (self.work / "tmp").mkdir()
        self.gate = oracle.Gate(expected, seed)
        self.live: List[Proc] = []
        self.setup: List[float] = []
        self._tags = 0

    def remaining(self) -> float:
        return self.deadline_s - (time.monotonic() - self.started)

    def check_deadline(self) -> None:
        elapsed = time.monotonic() - self.started
        if elapsed > self.deadline_s:
            raise BenchError(f"run took {elapsed:.1f} s, over its "
                             f"{self.deadline_s:.0f} s cap")

    def next_tag(self) -> int:
        self._tags += 1
        return self._tags

    def fresh_dir(self, name: str) -> Path:
        path = self.work / f"{name}-{self.next_tag()}"
        path.mkdir()
        return path

    def env(self, cache_dir: Path) -> Dict[str, str]:
        """Children see only the run's own store: ``REPRO_CACHE_DIR=D``,
        no ``REPRO_TRACE_DIR`` (traces go to ``D/traces``), temp files
        inside the run directory."""
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        env["PYTHONPATH"] = str(SRC)
        env["TMPDIR"] = str(self.work / "tmp")
        return env

    def close(self) -> None:
        for proc in list(self.live):
            proc.kill()
        shutil.rmtree(self.work, ignore_errors=True)

    # -- product entry points -------------------------------------------
    def sweep(self, cache_dir: Path, specs: Sequence, jobs: int = 1,
              setup_only: bool = False, traced: bool = False) -> Dict[str, Any]:
        """One fresh-process sweep; returns its timings and summary."""
        tag = self.next_tag()
        spec_file = self.work / f"specs-{tag}.json"
        spec_file.write_text(json.dumps([s.to_dict() for s in specs]))
        layers_file = self.work / f"layers-{tag}.json"
        cmd = [sys.executable, str(PERF / "sweep_child.py"),
               "--cache-dir", str(cache_dir), "--specs", str(spec_file),
               "--jobs", str(jobs)]
        if setup_only:
            cmd.append("--setup-only")
        if traced:
            cmd += ["--layers-out", str(layers_file)]
        proc = Proc(self, cmd, self.env(cache_dir), timeout=120,
                    stdout=subprocess.PIPE)
        first = proc.popen.stdout.readline()
        ready_at = time.perf_counter()
        rest = proc.popen.stdout.read().decode("utf-8", "replace")
        code = proc.wait()
        if first.strip() != b"ready" or code != 0:
            raise BenchError(f"sweep child failed (exit {code}); see "
                             f"{self.work / 'children.log'}")
        out = {
            "setup_s": ready_at - proc.spawned,
            "wall_s": proc.ended - proc.spawned,
            "summary": json.loads(rest.strip().splitlines()[-1]) if rest.strip() else {},
        }
        if traced:
            out["layers"] = json.loads(layers_file.read_text())
        return out

    def fixture(self, specs: Sequence) -> Path:
        """A store holding ``specs``' results and traces, built with two
        workers (untimed set-up of the benchmark, not of the product)."""
        cache_dir = self.fresh_dir("store")
        done = self.sweep(cache_dir, specs, jobs=2)["summary"]
        self.gate.count(done.get("executed") == len(specs),
                        f"fixture sweep executed {done.get('executed')} of "
                        f"{len(specs)} jobs")
        return cache_dir

    def setup_probes(self, serve: bool, until: int) -> None:
        """Spawn the product until ``setup_s`` has ``until`` samples."""
        while len(self.setup) < until:
            if serve:
                server = Server(self, self.fresh_dir("probe"), traced=False)
                self.setup.append(server.setup_s)
                server.stop()
            else:
                probe = self.sweep(self.fresh_dir("probe"), [], setup_only=True)
                self.setup.append(probe["setup_s"])


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Window:
    """What one timed measurement produced."""

    def __init__(self) -> None:
        self.latencies: List[float] = []  # the workload's operation, s
        self.elapsed = 0.0
        self.rss_mb: List[float] = []
        self.jobs = 0  # jobs the window executed or answered
        self.layers: List[Dict[str, Any]] = []
        self.import_s: List[float] = []
        # serve only
        self.hits: List[float] = []
        self.misses: List[float] = []
        self.probe_p50_ms = 0.0
        self.batch_s = 0.0
        self.queue_waits: List[float] = []


class Workload:
    """One named workload of ``BENCHMARK.json`` (which says why each
    was chosen)."""

    name = ""
    serve = False
    points: Sequence[Tuple[str, float]] = (LOWMISS,)

    def __init__(self, bench: Bench) -> None:
        self.bench = bench
        self.gate = bench.gate
        points = [SMOKE_POINT] if bench.smoke else self.points
        self.specs = sweep_specs(points, bench.seed)

    def prepare(self) -> None:
        raise NotImplementedError

    def measure(self, traced: bool, budget: float) -> Window:
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def footprint(self) -> Tuple[int, List[int], int, list]:
        """(bytes of the store attributable to the measured jobs, their
        record sizes, how many jobs, their results) -- after ``check``."""
        raise NotImplementedError

    def primary(self, win: Window) -> Optional[float]:
        """``latency_p50_ms`` of one window."""
        value = median(win.latencies)
        return None if value is None else value * 1e3


class SweepWorkload(Workload):
    """Fresh-process sweeps, each timed spawn -> exit."""

    replay = False

    def prepare(self) -> None:
        #: Every store the measured sweeps wrote (replay: the one store).
        self.stores: List[Path] = []
        if self.replay:
            self.store = self.bench.fixture(self.specs)
            self.stores.append(self.store)
            self.cold = {s.fingerprint(): self.gate.check_result(
                s, oracle.load_result(self.store, s)) for s in self.specs}

    def measure(self, traced: bool, budget: float) -> Window:
        win = Window()
        start = time.perf_counter()
        while True:
            if self.replay:
                delete_records(self.store, self.specs)
                cache_dir = self.store
            else:
                cache_dir = self.bench.fresh_dir("cold")
                self.stores.append(cache_dir)
            run = self.bench.sweep(cache_dir, self.specs, traced=traced)
            if not traced:
                self.bench.setup.append(run["setup_s"])
            self._check_summary(run["summary"])
            win.latencies.append(run["wall_s"])
            win.rss_mb.append(run["summary"].get("peak_rss_mb"))
            win.jobs += len(self.specs)
            win.import_s.append(run["summary"].get("import_s", 0.0))
            if traced:
                win.layers.append(run["layers"])
            spent = time.perf_counter() - start
            if self.bench.smoke or spent + statistics.mean(win.latencies) > budget:
                break
        win.elapsed = sum(win.latencies)
        return win

    def _check_summary(self, summary: Dict[str, Any]) -> None:
        n, phases = len(self.specs), 2 * N_LAYERS * len(self.specs)
        self.gate.count(summary.get("executed") == n and summary.get("failed") == 0,
                        f"sweep executed {summary.get('executed')} of {n} jobs: "
                        f"{summary.get('errors')}")
        replayed = (phases, 0) if self.replay else (0, phases)
        self.gate.count(
            (summary.get("replayed"), summary.get("recorded")) == replayed,
            f"sweep replayed/recorded {summary.get('replayed')}/"
            f"{summary.get('recorded')} phases, expected {replayed}")

    def check(self) -> None:
        self.results = []
        for spec in self.specs:
            digests = set()
            for cache_dir in self.stores:
                result = oracle.load_result(cache_dir, spec)
                digests.add(self.gate.check_result(spec, result))
                self.results.append(result)
            if self.replay:
                digests.add(self.cold[spec.fingerprint()])
            self.gate.count(len(digests) == 1,
                            f"{oracle.label(spec)}: cold and replayed/repeated "
                            f"results disagree")

    def footprint(self):
        sizes = [s for d in self.stores for s in record_sizes(d, self.specs)]
        total = sum(dir_bytes(d) for d in self.stores)
        return total, sizes, len(self.specs) * len(self.stores), self.results


class ColdLowMiss(SweepWorkload):
    name = "cold-lowmiss"


class ColdHighMiss(SweepWorkload):
    name = "cold-highmiss"
    points = (HIGHMISS,)


class SweepReplay(SweepWorkload):
    name = "sweep-replay"
    replay = True


class ServeWorkload(Workload):
    """Closed-loop traffic from one client process to a ``repro.serve``
    process whose store holds the seven cold-lowmiss jobs: one connection
    submits stored jobs in a seeded order; serve-mixed adds a second
    connection that submits cold jobs.  Both time the hits: on
    serve-mixed that is hit latency under load, the cost a miss running
    in the same process puts on readers.  (With two hit connections the
    server's two probe threads convoy on the interpreter lock, and the
    hit p50 jumped between 8 and 15 ms from one 3-s window to the next at
    equal throughput; one connection repeats within a few percent.)"""

    serve = True
    mixed = False

    def prepare(self) -> None:
        self.store = self.bench.fixture(self.specs)
        self.results = [oracle.load_result(self.store, s) for s in self.specs]
        self.cycles = {}
        for spec, result in zip(self.specs, self.results):
            self.gate.check_result(spec, result)
            if result is not None:
                self.cycles[spec.fingerprint()] = result.stats.cycles
        point = SMOKE_POINT if self.bench.smoke else MISS_POINT
        self.pending_misses = iter(miss_specs(point, self.bench.seed))
        #: (spec, served cycles, corr_id) of every cold submit answered.
        self.missed: List[Tuple[Any, Any, Any]] = []
        self.store_bytes = dir_bytes(self.store)
        self.order = list(self.specs)
        random.Random(self.bench.seed).shuffle(self.order)

    def measure(self, traced: bool, budget: float) -> Window:
        win = Window()
        server = Server(self.bench, self.store, traced)
        if not traced:
            self.bench.setup.append(server.setup_s)
        conns = [server.connect() for _ in range(2 if self.mixed else 1)]
        try:
            # Untimed warm-up: one pass over the store (adopts flat
            # records into the server's layout) must be all hits.
            for spec in self.order:
                self._hit(conns[0], spec)
            deadline = time.perf_counter() + budget
            loops = [threading.Thread(target=self._hit_loop,
                                      args=(conns[0], deadline, win.hits))]
            if self.mixed:
                loops.append(threading.Thread(
                    target=self._miss_loop, args=(conns[1], deadline, win.misses)))
            start = time.perf_counter()
            for loop in loops:
                loop.start()
            for loop in loops:
                loop.join()
            win.elapsed = time.perf_counter() - start
            metrics = conns[0].request({"op": "metrics"})
            win.probe_p50_ms = float(metrics.get("hitpath_ms", {}).get("p50", 0.0))
            self.gate.count(metrics.get("jobs", {}).get("failed") == 0,
                            f"server reports failed jobs: {metrics.get('jobs')}")
        finally:
            for conn in conns:
                conn.close()
            clean = server.stop()
        self.gate.count(clean, "server did not exit cleanly on /shutdown")
        win.rss_mb.append(server.rss_mb)
        win.jobs = len(win.hits) + len(win.misses)
        win.latencies = win.hits
        if traced:
            layers = json.loads(server.layers_file.read_text())
            win.layers.append(layers)
            win.import_s.append(layers.get("import_s", 0.0))
            self._read_spans(server.span_file, win)
        return win

    def _hit(self, conn: Conn, spec) -> float:
        t0 = time.perf_counter()
        resp = conn.request({"op": "submit", "spec": spec.to_dict(), "wait": True})
        seconds = time.perf_counter() - t0
        summary = resp.get("result_summary") or {}
        self.gate.count(
            resp.get("ok") is True and resp.get("status") == "done"
            and resp.get("cache") == "hit"
            and summary.get("cycles") == self.cycles.get(spec.fingerprint()),
            f"hit path answer for {oracle.label(spec)}: status="
            f"{resp.get('status')} cache={resp.get('cache')} "
            f"cycles={summary.get('cycles')} error={resp.get('error')}")
        return seconds

    def _hit_loop(self, conn: Conn, deadline: float, out: List[float]) -> None:
        i = 0
        try:
            while time.perf_counter() < deadline:
                out.append(self._hit(conn, self.order[i % len(self.order)]))
                i += 1
        except (OSError, ValueError) as exc:
            self.gate.count(False, f"hit connection failed: {exc!r}")

    def _miss_loop(self, conn: Conn, deadline: float, out: List[float]) -> None:
        try:
            while time.perf_counter() < deadline:
                spec = next(self.pending_misses, None)
                if spec is None:
                    break
                t0 = time.perf_counter()
                resp = conn.request({"op": "submit", "spec": spec.to_dict(),
                                     "wait": True})
                out.append(time.perf_counter() - t0)
                summary = resp.get("result_summary") or {}
                ok = (resp.get("ok") is True and resp.get("status") == "done"
                      and resp.get("cache") == "miss")
                self.gate.count(ok, f"cold submit {oracle.label(spec)}: status="
                                f"{resp.get('status')} cache={resp.get('cache')} "
                                f"error={resp.get('error')}")
                self.missed.append((spec, summary.get("cycles"),
                                    resp.get("corr_id")))
        except (OSError, ValueError) as exc:
            self.gate.count(False, f"miss connection failed: {exc!r}")

    def _read_spans(self, path: Path, win: Window) -> None:
        """``serve.batch`` busy time and each cold submit's queue wait
        (its ``serve.cache_probe`` end -> the next batch start)."""
        try:
            events = json.loads(path.read_text())["traceEvents"]
        except (OSError, ValueError, KeyError):
            return
        batches = sorted(e["ts"] for e in events if e.get("name") == "serve.batch")
        win.batch_s = sum(e.get("dur", 0.0) for e in events
                          if e.get("name") == "serve.batch") / 1e6
        corr = {c for _, _, c in self.missed if c}
        for event in events:
            if (event.get("name") == "serve.cache_probe"
                    and event.get("args", {}).get("corr_id") in corr):
                probed = event["ts"] + event.get("dur", 0.0)
                later = [ts for ts in batches if ts >= probed]
                if later:
                    win.queue_waits.append((later[0] - probed) / 1e6)

    def check(self) -> None:
        if not self.mixed:
            return  # every reply was checked against the store as it came
        self.results = []
        for spec, cycles, _ in self.missed:
            result = oracle.load_result(self.store, spec)
            self.gate.check_result(spec, result)
            self.gate.count(result is not None and result.stats.cycles == cycles,
                            f"{oracle.label(spec)}: served cycles {cycles} != "
                            f"stored result")
            self.results.append(result)

    def footprint(self):
        if not self.mixed:
            return (dir_bytes(self.store), record_sizes(self.store, self.specs),
                    len(self.specs), self.results)
        specs = [spec for spec, _, _ in self.missed]
        return (dir_bytes(self.store) - self.store_bytes,
                record_sizes(self.store, specs), len(specs), self.results)


class ServeHit(ServeWorkload):
    name = "serve-hit"


class ServeMixed(ServeWorkload):
    name = "serve-mixed"
    mixed = True


WORKLOADS = {cls.name: cls for cls in
             (ColdLowMiss, ColdHighMiss, SweepReplay, ServeHit, ServeMixed)}
