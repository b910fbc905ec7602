"""End-to-end benchmark of hbq: quantize (write) and load (read) weight layers
through the library and through the ``hbq`` CLI, checking every output.

    python3 perfbench/run.py --workload wide-row --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

Load: a closed loop in one process, one operation at a time, for --seconds.
Four kinds of operation share the time in fixed proportions, interleaved:
quantize the next layer of the workload's pool (hbllm_quantize, which
builds the calibration stats, + encode_layer); load one of the containers
made so far (decode_layer + dequantize_layer); and ``hbq quantize`` and
``hbq dequantize`` subprocesses on the pool's first layer. Inputs are
generated from --seed; hbq receives only the arrays.

--trace 0 prints the end-to-end metrics. --trace 1 runs the same load with
hooks around each module's functions (tracing.py) on every other operation
of each kind and prints per-layer self times and counts instead. The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics. Every run also writes its environment, samples and failures
(and, traced, its spans) to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import zlib
from collections import defaultdict
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from tracing import Tracer, root_wall, self_times

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
PROBE = Path(__file__).resolve().parent / "cli_probe.py"
SETUP_REPS = 5
BLAS_THREADS = 1
CLI_TIMEOUT_S = 60
# Share of the measured window each kind of operation gets. The kinds are
# interleaved, so each one's samples spread over the whole window: the
# machine's speed drifts over seconds. A load takes milliseconds, so loads
# are many.
SHARES = {"quantize": 0.5, "load": 0.1, "cli_quantize": 0.3, "cli_dequantize": 0.1}
MIN_CLI_CALLS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    n: int  # weight rows
    m: int  # weight columns = activation features
    samples: int  # activation samples
    beta: int  # block width
    pool: int  # layers generated per seed, quantized in turn
    activations: int  # distinct activation matrices; layer i uses i % activations


# Shapes are chosen so each workload is dominated by a different layer; see
# README.md for the profile behind each choice. BENCHMARK.json runs wide-row
# and long-input; small-blocks is for profiling by hand.
WORKLOADS = {
    w.name: w
    for w in (
        # the ROADMAP's reference shape: the threshold planner on 64-wide bands
        Workload("wide-row", 256, 1024, 2048, 128, pool=3, activations=3),
        # criterion-05 traffic: per-call overhead on 8-wide bands
        Workload("small-blocks", 64, 64, 128, 16, pool=32, activations=32),
        # calibration and compensation; the planner does little. Load time
        # depends on how many salient columns each 8-row layer picks, so the
        # pool is large; layers share activations to keep memory down
        Workload("long-input", 8, 2048, 4096, 256, pool=12, activations=3),
    )
}

# Timings are reported at the 90th percentile of a run's samples. This
# machine's speed swings by up to 1.75x over stretches of seconds to
# minutes, and a run's median depends on how much of it fell in fast
# stretches; the slow level is present in nearly every run, so p90 moves
# less from run to run (across ten 50 s runs, quartile spreads of
# 0.06-0.21 for p90 against 0.14-0.47 for the median). Medians are printed
# beside them.
TIMINGS = ("quantize_s", "load_s", "cli_quantize_s", "cli_dequantize_s")
END_TO_END = {
    **{name.replace("_s", "_p90_s"): "s" for name in TIMINGS},
    "bits_per_weight": "bit/weight",
    "rel_error": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# self seconds per layer (one quantize plus one load), from the library
LIBRARY_LAYERS = (
    "kernels.plan_lines",
    "grouping.quantize_lines",
    "salient.k_trials",
    "salient.column_scores",
    "calib.saliency_matrix",
    "calib.build_calib_stats",
    "pipeline.compensate",
    "pipeline.reconstruct_block",
    "haar.haar_matrix",
    "haar.inverse_haar_matrix",
    "pipeline.hbllm_quantize",
    "formats.encode_layer",
    "formats.decode_layer",
    "pipeline.dequantize_layer",
)
# self seconds per CLI call that reaches them, from the traced CLI calls
CLI_LAYERS = ("cli.read_tensor", "cli.write_tensor", "formats.bit_report")
# calls per layer, from the library
CALL_COUNTS = (
    "kernels.plan_lines",
    "calib.build_calib_stats",
    "pipeline.compensate",
    "pipeline.reconstruct_block",
    "haar.haar_matrix",
    "haar.inverse_haar_matrix",
)
# work counted by the hooks, per layer
HOOK_COUNTS = (
    "kernels.plan_lines.lines",
    "kernels.plan_lines.values",
    "kernels.plan_lines.candidate_evals",
    "salient.k_trials.trials",
)

PER_LAYER = {
    **{f"{name}.s": "s" for name in LIBRARY_LAYERS + CLI_LAYERS},
    **{f"{name}.calls": "count" for name in CALL_COUNTS},
    **{name: "count" for name in HOOK_COUNTS},
    "salient.k_trials.useful_ratio": "ratio",
    "pipeline.reconstruct_block.calls_per_block": "count",
    "formats.container_bytes": "B",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}


class CheckFailed(Exception):
    """An operation completed but its output is wrong."""


@dataclass
class Layer:
    w: object  # n x m float32 weights
    x: object  # m x samples float32 activations
    w_norm: float


def pin_blas_threads() -> None:
    """Run BLAS on one thread, in this process and in the CLI subprocesses.

    On a 2-CPU machine, long-input quantized no faster on two threads than
    on one when the machine was quiet, and ~1.4x slower on two while one
    other process was busy. One thread keeps the figures from depending on
    the neighbours.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def load_api() -> SimpleNamespace:
    """Import numpy and hbq from the checkout's ``src``, after pin_blas_threads."""
    src = ROOT / "src"
    if not (src / "hbq" / "__init__.py").is_file():
        raise ImportError(f"no hbq package under {src}")
    sys.path.insert(0, str(src))
    import numpy as np
    import scipy

    import hbq
    from hbq import _kernels, formats, pipeline
    from hbq.haar import Axis

    if Path(hbq.__file__).resolve().parent != (src / "hbq").resolve():
        raise ImportError(f"hbq imported from {hbq.__file__}, not from {src}")
    return SimpleNamespace(
        np=np, scipy=scipy, hbq=hbq, kernels=_kernels, formats=formats,
        pipeline=pipeline, Axis=Axis,
    )


def weight_rows(np, rng, n: int, m: int):
    """Weight-like rows: a smooth component, sparse outliers, heavy-tailed noise.

    Mirrors ``structured_rows`` in tests/conftest.py (which tests cannot
    import from here); keep the two in step.
    """
    j = np.arange(m)
    freq = rng.uniform(0.5, 3.0, (n, 1))
    phase = rng.uniform(0.0, 2.0 * np.pi, (n, 1))
    smooth = rng.uniform(0.5, 2.0, (n, 1)) * np.sin(2.0 * np.pi * freq * j / m + phase)
    spikes = (rng.random((n, m)) < 0.05) * rng.normal(0.0, 5.0, (n, m))
    noise = 0.05 * rng.standard_t(2.5, (n, m))
    return (smooth + spikes + noise).astype(np.float32)


def make_layers(np, wl: Workload, seed: int) -> list[Layer]:
    """The workload's layer pool; the same seed gives the same arrays."""
    rng = np.random.default_rng([seed, zlib.crc32(wl.name.encode())])
    xs = []
    for _ in range(wl.activations):
        # activation features with unequal scales, as in real calibration
        # sets; sigma 0.5 keeps the pool's mean rel_error within ~2% across
        # seeds (sigma 1 gave ~5% on small-blocks)
        scale = rng.lognormal(0.0, 0.5, (wl.m, 1)).astype(np.float32)
        xs.append(rng.standard_normal((wl.m, wl.samples), dtype=np.float32) * scale)
    layers = []
    for i in range(wl.pool):
        w = weight_rows(np, rng, wl.n, wl.m)
        layers.append(Layer(w, xs[i % wl.activations], float(np.linalg.norm(w))))
    return layers


def bitwise_equal(np, a, b) -> bool:
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a, np.float32).view(np.uint32),
        np.ascontiguousarray(b, np.float32).view(np.uint32),
    )


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


class Runner:
    """One run of one workload: set-up, the loop of operations, checks."""

    def __init__(self, api, wl: Workload, seed: int, work: Path, trace: bool):
        self.api = api
        self.wl = wl
        self.seed = seed
        self.work = work
        self.tracer = Tracer() if trace else None
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
            ),
        )
        self.layers: list[Layer] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.times: defaultdict[str, list[float]] = defaultdict(list)
        self.quality: dict[int, tuple[float, float, int]] = {}  # rel, bits, bytes
        self.blocks_per_layer = 0
        self.quantized: dict[int, tuple[bytes, object]] = {}  # container, weights
        self.done = defaultdict(int)  # operations of each kind so far
        self.traced = defaultdict(int)  # ... of which traced
        self.cli_payloads: list[dict] = []
        self.cli_overhead: list[float] = []
        self.last_untraced: tuple[int, float] | None = None  # layer, seconds
        self.trace_overhead: list[float] = []  # traced minus untraced, same layer

    # --- bookkeeping ---

    def attempt(self, what: str, fn):
        """Run one operation; an exception or failed check counts as failed."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # one failed op must not end the run
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            print(f"FAILED {what}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None

    def _traced(self, name: str, traced: bool):
        if not traced:
            return nullcontext()
        stack = ExitStack()
        stack.enter_context(self.tracer.installed())
        stack.enter_context(self.tracer.span(name))
        return stack

    # --- phases ---

    def setup(self, reps: int = SETUP_REPS) -> None:
        """Generate inputs, write the CLI's input files, warm up; time each rep."""
        api = self.api
        for _ in range(reps):
            self.layers = []  # free the previous rep's arrays first
            t0 = time.perf_counter()
            self.layers = make_layers(api.np, self.wl, self.seed)
            api.formats.write_tensor(self.work / "w0.rts", self.layers[0].w)
            api.formats.write_tensor(self.work / "x0.rts", self.layers[0].x)
            # the first calibration in a process pays one-time costs (BLAS
            # start-up, first-touch page faults) that timed operations should not
            api.hbq.build_calib_stats(self.layers[0].x)
            self.times["setup_s"].append(time.perf_counter() - t0)

    def loop(self, seconds: float) -> None:
        """Closed loop until `seconds` have passed: next is always the kind of
        operation furthest below its share of the time spent so far.

        Quantize goes through the pool in turn and load cycles over the
        layers quantized so far. The loop quantizes every layer of the pool
        at least once (so bits_per_weight and rel_error cover the same layers
        whatever the speed; traced, twice: see next_quantize) and runs each
        CLI command MIN_CLI_CALLS times.
        """
        ops = {
            "quantize": self.next_quantize,
            "load": self.next_load,
            "cli_quantize": lambda: self.attempt("hbq quantize", self.cli_quantize),
            "cli_dequantize": lambda: self.attempt("hbq dequantize", self.cli_dequantize),
        }
        minimum = {"quantize": len(self.layers) * self._quantize_step(), "load": 1,
                   "cli_quantize": MIN_CLI_CALLS, "cli_dequantize": MIN_CLI_CALLS}
        spent = dict.fromkeys(ops, 0.0)
        deadline = time.perf_counter() + seconds
        while True:
            due = list(ops) if self.quantized else ["quantize"]
            if time.perf_counter() >= deadline:
                due = [k for k in due if self.done[k] < minimum[k]]
                if not due:
                    break
            kind = min(due, key=lambda k: spent[k] / SHARES[k])
            t0 = time.perf_counter()
            ops[kind]()
            spent[kind] += time.perf_counter() - t0
            self.done[kind] += 1

    def _trace_next(self, kind: str) -> bool:
        """Trace every other operation of a kind; the rest run untraced."""
        traced = self.tracer is not None and self.done[kind] % 2 == 1
        self.traced[kind] += traced
        return traced

    def _quantize_step(self) -> int:
        return 1 if self.tracer is None else 2

    def next_quantize(self) -> None:
        """Quantize the next layer. A traced run quantizes each layer twice
        in a row, untraced then traced, so that trace.overhead_s compares
        the same layer at nearly the same moment."""
        idx = self.done["quantize"] // self._quantize_step() % len(self.layers)
        traced = self._trace_next("quantize")
        got = self.attempt(f"quantize layer {idx}", lambda: self.quantize(idx, traced))
        if got is not None:
            self.quantized[idx] = got

    def next_load(self) -> None:
        idx = sorted(self.quantized)[self.done["load"] % len(self.quantized)]
        traced = self._trace_next("load")
        self.attempt(f"load layer {idx}", lambda: self.load(idx, *self.quantized[idx], traced))

    def quantize(self, idx: int, traced: bool = False):
        api, layer = self.api, self.layers[idx]
        w = layer.w.copy()  # hbllm_quantize consumes its input
        with self._traced("op.quantize", traced):
            t0 = time.perf_counter()
            q = api.pipeline.hbllm_quantize(w, layer.x, beta=self.wl.beta, mode=api.Axis.ROW)
            blob = api.formats.encode_layer(q)
            dt = time.perf_counter() - t0
        rel = q.diagnostics["total_error"] / layer.w_norm
        if not math.isfinite(rel):
            raise CheckFailed(f"rel_error is {rel}")
        recon = api.pipeline.dequantize_layer(q)
        bits = api.formats.bit_report(q).avg_bits_per_weight
        self.quality.setdefault(idx, (rel, bits, len(blob)))
        self.blocks_per_layer = len(q.blocks)
        self.times["quantize_traced_s" if traced else "quantize_s"].append(dt)
        if not traced:
            self.last_untraced = (idx, dt)
        elif self.last_untraced is not None and self.last_untraced[0] == idx:
            self.trace_overhead.append(dt - self.last_untraced[1])
        return blob, recon

    def load(self, idx: int, blob: bytes, recon, traced: bool = False) -> None:
        api = self.api
        with self._traced("op.load", traced):
            t0 = time.perf_counter()
            q = api.formats.decode_layer(blob)
            out = api.pipeline.dequantize_layer(q)
            dt = time.perf_counter() - t0
        if api.formats.encode_layer(q) != blob:
            raise CheckFailed("decoded layer re-encodes to different bytes")
        if not bitwise_equal(api.np, out, recon):
            raise CheckFailed("loaded weights differ from dequantize_layer(q)")
        self.times["load_traced_s" if traced else "load_s"].append(dt)

    def _cli_call(self, argv: list[str]) -> tuple[float, str]:
        if self.tracer is None:
            cmd = [sys.executable, "-m", "hbq", *argv]
        else:
            probe_out = self.work / "probe.json"
            probe_out.unlink(missing_ok=True)
            cmd = [sys.executable, str(PROBE), str(probe_out), *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
            timeout=CLI_TIMEOUT_S,
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise CheckFailed(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
        if self.tracer is not None:
            self.cli_payloads.append(json.loads(probe_out.read_text()))
        return wall, proc.stdout

    def _layer0(self) -> tuple[bytes, object]:
        if 0 not in self.quantized:
            raise CheckFailed("the library did not quantize layer 0")
        return self.quantized[0]

    def cli_quantize(self) -> None:
        blob, _ = self._layer0()
        out = self.work / "cli.hbq"
        out.unlink(missing_ok=True)
        wall, stdout = self._cli_call(
            ["quantize", str(self.work / "w0.rts"), str(self.work / "x0.rts"),
             "--out", str(out), "--beta", str(self.wl.beta), "--mode", "row"]
        )
        if out.read_bytes() != blob:
            raise CheckFailed("CLI container differs from the library's encode_layer bytes")
        self.times["cli_quantize_s"].append(wall)
        printed = re.search(r"time_s=([0-9.]+)", stdout)
        if printed:
            self.cli_overhead.append(wall - float(printed.group(1)))

    def cli_dequantize(self) -> None:
        blob, recon = self._layer0()
        container = self.work / "layer0.hbq"
        container.write_bytes(blob)
        out = self.work / "cli.rts"
        out.unlink(missing_ok=True)
        wall, _ = self._cli_call(["dequantize", str(container), "--out", str(out)])
        if not bitwise_equal(self.api.np, self.api.formats.read_tensor(out), recon):
            raise CheckFailed("CLI dequantize output differs from dequantize_layer")
        self.times["cli_dequantize_s"].append(wall)

    # --- results ---

    def end_to_end(self) -> dict[str, float]:
        quality = list(self.quality.values())
        return {
            **{name.replace("_s", "_p90_s"): p90(self.times[name]) for name in TIMINGS},
            "bits_per_weight": statistics.fmean(q[1] for q in quality) if quality else 0.0,
            "rel_error": statistics.fmean(q[0] for q in quality) if quality else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": median_or_zero(self.times["setup_s"]),
        }

    def per_layer(self) -> dict[str, float]:
        """Library figures per layer: one quantize plus one load."""
        roots = {sid: name for sid, _r, parent, name, _t0, _t1 in self.tracer.spans
                 if parent is None}
        lib = defaultdict(lambda: {"s": 0.0, "calls": 0.0})
        for kind in ("quantize", "load"):
            spans = [sp for sp in self.tracer.spans if roots[sp[1]] == f"op.{kind}"]
            ops = max(self.traced[kind], 1)
            for name, agg in self_times(spans).items():
                lib[name]["s"] += agg["s"] / ops
                lib[name]["calls"] += agg["calls"] / ops
        quantizes = max(self.traced["quantize"], 1)
        # CLI layers: mean self time over the CLI calls that reach the layer
        cli = defaultdict(list)
        for payload in self.cli_payloads:
            for name, agg in self_times(payload["spans"]).items():
                cli[name].append(agg["s"])
        out = {}
        for name in LIBRARY_LAYERS:
            out[f"{name}.s"] = lib[name]["s"]
        for name in CLI_LAYERS:
            out[f"{name}.s"] = statistics.fmean(cli[name]) if cli[name] else 0.0
        for name in CALL_COUNTS:
            out[f"{name}.calls"] = lib[name]["calls"]
        # the counted functions run only while quantizing
        for name in HOOK_COUNTS:
            out[name] = self.tracer.counts.get(name, 0.0) / quantizes
        trials = out["salient.k_trials.trials"]
        out["salient.k_trials.useful_ratio"] = (
            lib["salient.k_trials"]["calls"] / trials if trials else 0.0
        )
        out["pipeline.reconstruct_block.calls_per_block"] = (
            out["pipeline.reconstruct_block.calls"] / max(self.blocks_per_layer, 1)
        )
        quality = list(self.quality.values())
        out["formats.container_bytes"] = (
            statistics.fmean(q[2] for q in quality) if quality else 0.0
        )
        out["cli.overhead_s"] = median_or_zero(self.cli_overhead)
        out["trace.overhead_s"] = median_or_zero(self.trace_overhead)
        return out

    def absent(self) -> list[str]:
        names = set(self.tracer.absent()) | self.tracer.count_errors
        for payload in self.cli_payloads:
            names |= set(payload["absent"])
        return sorted(names)


def environment(api, wl: Workload, seed: int, seconds: float, trace: int) -> dict:
    np = api.np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "backend": "numba" if api.kernels.USE_NUMBA else "numpy",
        "has_numba": bool(api.kernels.HAS_NUMBA),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": api.scipy.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def run_workload(api, wl: Workload, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; return the result record (see print_result)."""
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir()
    runner = Runner(api, wl, seed, work, bool(trace))
    try:
        runner.setup()
        runner.loop(seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(runner.failures)
    record = {
        "env": environment(api, wl, seed, seconds, trace),
        "attempted": runner.attempted,
        "failed": failed,
        "fail_ratio": failed / runner.attempted,
        "failures": runner.failures,
        "samples": {k: v for k, v in runner.times.items()},
    }
    if trace:
        record["metrics"] = runner.per_layer()
        record["units"] = PER_LAYER
        record["absent"] = runner.absent()
        lib = self_times(runner.tracer.spans)
        record["self_s"] = {k: v["s"] for k, v in lib.items()}
        record["traced_wall_s"] = root_wall(runner.tracer.spans)
        stem = OUT_DIR / f"{wl.name}-seed{seed}"
        runner.tracer.write(f"{stem}-spans.jsonl")
        with open(f"{stem}-cli-spans.json", "w") as fh:
            json.dump(runner.cli_payloads, fh)
    else:
        record["metrics"] = runner.end_to_end()
        record["units"] = END_TO_END
    return record


def print_result(record: dict) -> None:
    """Human-readable lines, then the one-line JSON result last."""
    print("env " + json.dumps(record["env"], sort_keys=True))
    units = record["units"]
    for name, value in record["metrics"].items():
        print(f"{name:<45} {value:>14.6g} {units[name]}")
    for name, samples in sorted(record["samples"].items()):
        print(
            f"{name:<45} {median_or_zero(samples):>14.6g} s median of "
            f"{len(samples)} samples"
        )
    if "self_s" in record:
        wall = record["traced_wall_s"]
        print(f"traced wall {wall:.4f} s; self seconds by layer:")
        for name, s in sorted(record["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"  {name:<43} {s:>10.4f} s {100 * s / wall:5.1f}%")
        print("absent layers: " + (", ".join(record["absent"]) or "none"))
    print(f"fail_ratio {record['fail_ratio']:.6g} ({record['failed']}/{record['attempted']})")
    for failure in record["failures"]:
        print(f"failed: {failure}")
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    k: {"value": v, "unit": units[k]} for k, v in record["metrics"].items()
                },
            }
        )
    )


def run_child(workload: str, seed: int, seconds: float, trace: int):
    """Run one workload in a child process. Returns the stdout lines before
    the result line, and the parsed result (None if the child failed)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return lines, None
    return lines[:-1], json.loads(lines[-1])


def run_all(args) -> int:
    """Each workload in its own process (so peak RSS is its own); merged result."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        lines, result = run_child(name, args.seed, args.seconds, args.trace)
        for line in lines:
            print(f"[{name}] {line}")
        if result is None:
            return 1
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    pin_blas_threads()
    try:
        api = load_api()
    except ImportError as exc:
        print(f"error: cannot load hbq from this checkout: {exc}", file=sys.stderr)
        return 2
    record = run_workload(api, WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1))
    print_result(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
