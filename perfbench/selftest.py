"""Self-test of the benchmark at tiny shapes; takes a few seconds.

    python3 perfbench/selftest.py

Checks that:
- every metric BENCHMARK.json names is emitted, with its unit, in the JSON
  line (end-to-end metrics untraced, per-layer metrics traced);
- a deliberately corrupted container counts as a failed operation instead
  of crashing the run;
- per-layer self times sum to no more than the traced wall time;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
Exits 1 and lists the problems if any check fails.
"""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import run

TINY = run.Workload("tiny", n=8, m=32, samples=64, beta=16, pool=2, activations=1)


def emitted(record) -> dict:
    buf = io.StringIO()
    with redirect_stdout(buf):
        run.print_result(record)
    return json.loads(buf.getvalue().splitlines()[-1])


def check_metrics(api, spec, problems) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        record = run.run_workload(api, TINY, seed=0, seconds=0.5, trace=trace)
        if record["failed"]:
            problems.append(f"trace {trace}: failures {record['failures']}")
        metrics = emitted(record)["metrics"]
        for metric in spec[section]:
            got = metrics.get(metric["name"])
            if got is None:
                problems.append(f"{metric['name']} is not emitted with --trace {trace}")
            elif got["unit"] != metric["unit"]:
                problems.append(
                    f"{metric['name']} unit {got['unit']!r} != {metric['unit']!r}"
                )
        if trace:
            layers = sum(s for name, s in record["self_s"].items() if not name.startswith("op."))
            if layers > record["traced_wall_s"] * (1 + 1e-9):
                problems.append(
                    f"self times sum to {layers} s > traced wall {record['traced_wall_s']} s"
                )


def check_corrupted_container(api, problems) -> None:
    work = run.OUT_DIR / "selftest-work"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = run.Runner(api, TINY, 0, work, trace=False)
        runner.setup(reps=1)
        blob, recon = runner.quantize(0)
        bad = bytearray(blob)
        bad[len(bad) // 2] ^= 0xFF
        with redirect_stderr(io.StringIO()):
            runner.attempt("load corrupted", lambda: runner.load(0, bytes(bad), recon))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if (runner.attempted, len(runner.failures)) != (1, 1):
        problems.append(
            f"corrupted container: {runner.attempted} attempted, "
            f"{len(runner.failures)} failed; expected 1 and 1"
        )


def check_bare_checkout(problems) -> None:
    bare = run.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            run.ROOT / "perfbench", bare / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "small-blocks",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("without src/hbq the benchmark did not fail cleanly")


def main() -> int:
    run.pin_blas_threads()
    api = run.load_api()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    check_metrics(api, spec, problems)
    check_corrupted_container(api, problems)
    check_bare_checkout(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
