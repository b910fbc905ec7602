"""Command-line surface: quantize, dequantize, inspect, ab, gen.

Runs are described entirely by (input files, config file, flags): flags
override config-file keys, which override defaults. Reports are CSV or
JSONL with a schema tag on every row, so they stay append-safe. Exit
codes: 0 ok, 2 validation, 3 container integrity, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .calib import build_calib_stats
from .config import QuantConfig, nested_levels
from .errors import ConfigError, IntegrityError, NumericError, ShapeError
from .formats import (
    bit_report,
    decode_layer,
    encode_layer,
    read_tensor,
    write_tensor,
)
from .grouping import compute_ciq
from .haar import Axis
from .pipeline import dequantize_layer, hbllm_quantize

SCHEMA = "hbq-report-v1"
AB_CANDIDATE_COUNTS = (10, 20, 40, 80)

__all__ = ["RunConfig", "run", "main"]


_LAYER_DEFAULTS = inspect.signature(hbllm_quantize).parameters


@dataclass
class RunConfig:
    """Operator-facing knobs; validated before any file is touched. The
    defaults are the library's: hbllm_quantize's and QuantConfig's."""

    mode: str = _LAYER_DEFAULTS["mode"].default.value
    beta: int = _LAYER_DEFAULTS["beta"].default
    candidates: int = QuantConfig.n_candidates
    share_mean: bool = QuantConfig.share_mean
    norm: str = QuantConfig.norm
    k_candidates: tuple[int, ...] = QuantConfig.k_candidates
    lam: str | float = _LAYER_DEFAULTS["damping"].default  # "lambda" is reserved
    report: str = "csv"

    def validate(self) -> None:
        if self.mode not in ("row", "col"):
            raise ConfigError(f"mode must be 'row' or 'col', got {self.mode!r}")
        if not isinstance(self.beta, int) or self.beta < 1:
            raise ConfigError(f"beta must be a positive integer, got {self.beta!r}")
        if self.report not in ("csv", "jsonl"):
            raise ConfigError(
                f"report must be 'csv' or 'jsonl', got {self.report!r}"
            )
        if isinstance(self.lam, str) and self.lam != "auto":
            raise ConfigError(f"lambda must be 'auto' or a number, got {self.lam!r}")
        if isinstance(self.lam, float) and not self.lam >= 0:
            raise ConfigError(f"lambda must be non-negative, got {self.lam}")
        # candidates / norm / k_candidates share QuantConfig's rules
        self.to_quant_config()

    def to_quant_config(self) -> QuantConfig:
        return QuantConfig(
            n_candidates=self.candidates,
            share_mean=self.share_mean,
            norm=self.norm,
            k_candidates=tuple(self.k_candidates),
        )

    @property
    def axis(self) -> Axis:
        return Axis.ROW if self.mode == "row" else Axis.COL


def _parse_bool(key: str, value: str) -> bool:
    v = value.strip().lower()
    if v in ("on", "true", "1", "yes"):
        return True
    if v in ("off", "false", "0", "no"):
        return False
    raise ConfigError(f"{key} must be on or off, got {value!r}")


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {value!r}") from None


def _parse_k_list(value: str) -> tuple[int, ...]:
    value = value.strip()
    if not value:
        raise ConfigError("k_candidates must not be empty")
    return tuple(_parse_int("k_candidates", part) for part in value.split(","))


def _parse_lambda(value: str) -> str | float:
    v = value.strip().lower()
    if v == "auto":
        return "auto"
    try:
        return float(v)
    except ValueError:
        raise ConfigError(f"lambda must be 'auto' or a number, got {value!r}") from None


_CONFIG_PARSERS = {
    "mode": lambda v: v.strip().lower(),
    "beta": lambda v: _parse_int("beta", v),
    "candidates": lambda v: _parse_int("candidates", v),
    "share_mean": lambda v: _parse_bool("share_mean", v),
    "norm": lambda v: v.strip().lower(),
    "k_candidates": _parse_k_list,
    "lambda": _parse_lambda,
    "report": lambda v: v.strip().lower(),
}
_FIELD_FOR_KEY = {"lambda": "lam"}


def load_config_file(path) -> dict:
    """Parse key=value lines; # starts a comment, blank lines are skipped."""
    out = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[_FIELD_FOR_KEY.get(key, key)] = _CONFIG_PARSERS[key](value)
    return out


def _resolve_config(args) -> RunConfig:
    values = {}
    if getattr(args, "config", None):
        if not Path(args.config).exists():
            raise ConfigError(f"config file not found: {args.config}")
        values.update(load_config_file(args.config))
    for key, parser in _CONFIG_PARSERS.items():
        flag = key if key != "lambda" else "lam"
        given = getattr(args, flag, None)
        if given is not None:
            values[_FIELD_FOR_KEY.get(key, key)] = (
                parser(given) if isinstance(given, str) else given
            )
    rc = RunConfig(**values)
    rc.validate()
    return rc


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{what} not found: {path}")
    return p


def _emit_rows(rows: list[dict], fmt: str, fh) -> None:
    if fmt == "jsonl":
        for row in rows:
            fh.write(json.dumps(row) + "\n")
        return
    writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)


def _write_report(rows: list[dict], fmt: str, out_path=None) -> None:
    if out_path:
        with open(out_path, "w", newline="") as fh:
            _emit_rows(rows, fmt, fh)
    else:
        _emit_rows(rows, fmt, sys.stdout)


def _diag_rows(q, fmt: str) -> list[dict]:
    rows = []
    for blk in q.diagnostics["per_block"]:
        row = {
            "schema": SCHEMA,
            "block": blk["block"],
            "col_offset": blk["col_offset"],
            "width": blk["width"],
            "chosen_k": blk["chosen_k"],
            "error": blk["error"],
            "row_threshold_mean": blk["row_threshold_mean"],
        }
        if fmt == "jsonl":
            row["trial_errors"] = {str(k): v for k, v in blk["trial_errors"].items()}
        rows.append(row)
    return rows


def _frobenius_norm(w) -> float:
    """||w||_F in float64: squaring float32 weights near 1e20 overflows."""
    return float(np.linalg.norm(np.asarray(w, dtype=np.float64)))


def cmd_quantize(args) -> int:
    rc = _resolve_config(args)
    w_path = _require_file(args.weights, "weights file")
    x_path = _require_file(args.calib, "calibration file")
    w = read_tensor(w_path)
    x = read_tensor(x_path)
    w_norm = _frobenius_norm(w)
    # quantize needs scipy.linalg; importing it first keeps its one-time
    # load out of time_s, which times quantize and encode only
    import scipy.linalg  # noqa: F401

    t0 = time.perf_counter()
    q = hbllm_quantize(
        w, x, beta=rc.beta, damping=rc.lam, mode=rc.axis, cfg=rc.to_quant_config()
    )
    blob = encode_layer(q)
    Path(args.out).write_bytes(blob)
    elapsed = time.perf_counter() - t0
    report = bit_report(q)
    rel = q.diagnostics["total_error"] / w_norm if w_norm else 0.0
    print(
        f"quantized shape={q.n}x{q.m} mode={rc.mode} beta={q.beta} "
        f"avg_bits={report.avg_bits_per_weight:.4f} rel_error={rel:.6f} "
        f"time_s={elapsed:.2f}"
    )
    sidecar = f"{args.out}.diag.{rc.report}"
    _write_report(_diag_rows(q, rc.report), rc.report, sidecar)
    return 0


def cmd_dequantize(args) -> int:
    path = _require_file(args.container, "container file")
    q = decode_layer(path.read_bytes())
    write_tensor(args.out, dequantize_layer(q))
    print(f"dequantized shape={q.n}x{q.m} -> {args.out}")
    return 0


def _sidecar_errors(container_path) -> dict[int, float]:
    for fmt in ("csv", "jsonl"):
        p = Path(f"{container_path}.diag.{fmt}")
        if not p.is_file():
            continue
        out = {}
        with open(p, newline="") as fh:
            if fmt == "csv":
                for row in csv.DictReader(fh):
                    out[int(row["block"])] = float(row["error"])
            else:
                for line in fh:
                    row = json.loads(line)
                    out[int(row["block"])] = float(row["error"])
        return out
    return {}


def cmd_inspect(args) -> int:
    path = _require_file(args.container, "container file")
    q = decode_layer(path.read_bytes())
    r = bit_report(q)
    recon = dequantize_layer(q)
    ciqs = compute_ciq(recon)
    print(
        f"sign_bits={r.sign_bits} scalar_bits={r.scalar_bits} "
        f"mask_bits={r.mask_bits} index_bits={r.index_bits} "
        f"overhead_bits={r.container_overhead_bits} "
        f"total_weights={r.total_weights} "
        f"avg_bits={r.avg_bits_per_weight:.6f}"
    )
    print(
        f"ciq min={int(ciqs.min())} median={int(np.median(ciqs))} "
        f"max={int(ciqs.max())}"
    )
    errors = _sidecar_errors(path)
    fmt = args.report or "csv"
    rows = []
    for i, ((b, width), block) in enumerate(zip(q.spans, q.blocks)):
        rows.append(
            {
                "schema": SCHEMA,
                "block": i,
                "col_offset": b,
                "width": width,
                "k": block.mask.k,
                "ciq_max": int(compute_ciq(recon[:, b : b + width]).max()),
                "error": errors.get(i, ""),
            }
        )
    _write_report(rows, fmt, getattr(args, "out", None))
    return 0


def _ab_variants(rc: RunConfig) -> list[tuple[str, QuantConfig]]:
    base = rc.to_quant_config()
    nested = nested_levels(AB_CANDIDATE_COUNTS)
    variants = [
        ("base", base),
        ("haar_off", replace(base, haar_enabled=False)),
        ("share_off", replace(base, share_mean=False)),
        ("norm_l1", replace(base, norm="l1")),
    ]
    for count in AB_CANDIDATE_COUNTS:
        variants.append(
            (
                f"cand_{count}",
                replace(base, n_candidates=count, candidate_levels=nested[count]),
            )
        )
    return variants


def cmd_ab(args) -> int:
    rc = _resolve_config(args)
    w_path = _require_file(args.weights, "weights file")
    x_path = _require_file(args.calib, "calibration file")
    w = read_tensor(w_path)
    x = read_tensor(x_path)
    w_norm = _frobenius_norm(w)
    calib = build_calib_stats(x, rc.lam)
    rows = []
    for name, cfg in _ab_variants(rc):
        t0 = time.perf_counter()
        q = hbllm_quantize(
            w.copy(), x, beta=rc.beta, mode=rc.axis, cfg=cfg, calib=calib
        )
        elapsed = time.perf_counter() - t0
        rel = q.diagnostics["total_error"] / w_norm if w_norm else 0.0
        rows.append(
            {
                "schema": SCHEMA,
                "variant": name,
                "mode": rc.mode,
                "beta": q.beta,
                "haar": int(cfg.haar_enabled),
                "share_mean": int(cfg.share_mean),
                "norm": cfg.norm,
                "candidates": cfg.n_candidates,
                "rel_error": rel,
                "avg_bits": bit_report(q).avg_bits_per_weight,
                "time_s": round(elapsed, 4),
            }
        )
    _write_report(rows, rc.report, getattr(args, "out", None))
    return 0


def cmd_gen(args) -> int:
    if args.rows < 1 or args.cols < 1:
        raise ConfigError(f"shape must be positive, got {args.rows}x{args.cols}")
    rng = np.random.default_rng(args.seed)
    arr = rng.normal(size=(args.rows, args.cols)).astype(np.float32)
    write_tensor(args.out, arr)
    print(f"generated shape={args.rows}x{args.cols} seed={args.seed} -> {args.out}")
    return 0


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--mode", choices=("row", "col"))
    p.add_argument("--beta", type=int)
    p.add_argument("--candidates", type=int)
    p.add_argument("--share-mean", dest="share_mean", choices=("on", "off"))
    p.add_argument("--norm", choices=("l1", "l2"))
    p.add_argument("--k-candidates", dest="k_candidates")
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--report", choices=("csv", "jsonl"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hbq",
        description="Haar-domain 1-bit weight quantization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quantize", help="quantize an RTS1 weight matrix")
    p.add_argument("weights")
    p.add_argument("calib")
    p.add_argument("--out", required=True)
    _add_run_flags(p)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("dequantize", help="reconstruct weights from an HBQ1 file")
    p.add_argument("container")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dequantize)

    p = sub.add_parser("inspect", help="report storage and CIQ statistics")
    p.add_argument("container")
    p.add_argument("--report", choices=("csv", "jsonl"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("ab", help="one-knob-at-a-time comparison table")
    p.add_argument("weights")
    p.add_argument("calib")
    p.add_argument("--out")
    _add_run_flags(p)
    p.set_defaults(func=cmd_ab)

    p = sub.add_parser("gen", help="write a seeded Gaussian RTS1 fixture")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)
    return parser


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
