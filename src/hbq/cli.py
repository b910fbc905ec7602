"""Command-line surface: quantize, dequantize, inspect, ab, gen.

Runs are described entirely by (input files, config file, flags): flags
override config-file keys, which override the library's defaults. Each
setting is one row of SETTINGS, which parses its text from either source
into an argument of hbllm_quantize or QuantConfig. Reports are CSV or
JSONL with a schema tag on every row, so they stay append-safe. Exit
codes: 0 ok, 2 validation, 3 container integrity, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .calib import _lapack, build_calib_stats
from .config import MAX_CANDIDATES, QuantConfig
from .errors import ConfigError, HbqError
from .formats import (
    bit_report,
    decode_layer,
    encode_layer,
    read_tensor,
    write_tensor,
)
from .grouping import compute_ciq
from .pipeline import dequantize_layer, hbllm_quantize

SCHEMA = "hbq-report-v1"
DEFAULT_REPORT = "csv"
# plain default grids that nest: 13 | 39 | 78 | 156, so each grid's
# percentiles are a subset of the next one's, and cand_40 is the default
AB_CANDIDATE_COUNTS = (14, 40, 79, 157)

__all__ = ["run", "main"]


def _word(values):
    """A parser for one of a fixed set of words, in any case: values maps
    each word to its value, or is a tuple of words that stand for
    themselves."""
    if not isinstance(values, dict):
        values = {word: word for word in values}
    return lambda text: values[text.strip().lower()]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(value)
    return value


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _damping(text: str) -> str | float:
    if text.strip().lower() == "auto":
        return "auto"
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise ValueError(value)
    return value


_ON = ("on", "true", "yes", "1")
_OFF = ("off", "false", "no", "0")


# Every run setting once: key -> (target, param, parser, accepted values).
# The parser turns the key's text, from a flag or the config file alike,
# into a value, and the value is passed as param to its target:
# hbllm_quantize ("layer"), QuantConfig ("cfg") or the CLI's own report
# ("cli"). A key not given is not passed, so its default is the library's.
SETTINGS = {
    "mode": ("layer", "mode", _word(("row", "col")), "row or col"),
    "beta": ("layer", "beta", _positive_int, "a positive integer"),
    "candidates": ("cfg", "n_candidates", int,
                   f"an integer in [1, {MAX_CANDIDATES}]"),
    "share_mean": (
        "cfg", "share_mean",
        _word({**dict.fromkeys(_ON, True), **dict.fromkeys(_OFF, False)}),
        "/".join(_ON) + " or " + "/".join(_OFF),
    ),
    "norm": ("cfg", "norm", _word(("l1", "l2")), "l1 or l2"),
    "k_candidates": ("cfg", "k_candidates", _int_list,
                     "comma-separated even integers, e.g. 0,2,4,8"),
    "lambda": ("layer", "damping", _damping,
               "auto or a non-negative number (the Hessian damping)"),
    "report": ("cli", "report", _word(("csv", "jsonl")),
               "csv or jsonl"),
}


def _parse_setting(key: str, text: str):
    *_, parse, accepts = SETTINGS[key]
    try:
        return parse(text)
    except (KeyError, ValueError):
        raise ConfigError(f"{key} must be {accepts}, got {text!r}") from None


def load_config_file(path) -> dict:
    """Parse key=value lines; # starts a comment, blank lines are skipped."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = _parse_setting(key, value)
    return out


def _resolve_settings(args) -> tuple[dict, QuantConfig, str]:
    """The config file's keys, then the flags given, checked: the
    hbllm_quantize keywords, the QuantConfig and the report format."""
    values = load_config_file(args.config) if args.config else {}
    for key in SETTINGS:
        text = getattr(args, key)
        if text is not None:
            values[key] = _parse_setting(key, text)
    given = {"layer": {}, "cfg": {}, "cli": {}}
    for key, value in values.items():
        target, param, *_ = SETTINGS[key]
        given[target][param] = value
    cfg = QuantConfig(**given["cfg"])
    return given["layer"], cfg, given["cli"].get("report", DEFAULT_REPORT)


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{what} not found: {path}")
    return p


def _check_out(path) -> None:
    """Refuse an --out that cannot be a file before any work is done: its
    directory must exist and the path must not be a directory. (Whether it
    can be written is known only on writing it.)"""
    if path is None:
        return
    p = Path(path)
    if p.is_dir():
        raise ConfigError(f"output is a directory: {path}")
    if not p.parent.is_dir():
        raise ConfigError(f"output directory not found: {p.parent}")


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


def _settings_and_inputs(args):
    """Check every setting, the input files and --out, then read the
    weights and calibration files: (hbllm_quantize keywords, QuantConfig,
    report format, w, x)."""
    layer, cfg, report = _resolve_settings(args)
    w_path = _require_file(args.weights, "weights file")
    x_path = _require_file(args.calib, "calibration file")
    _check_out(args.out)
    return layer, cfg, report, read_tensor(w_path), read_tensor(x_path)


def cmd_quantize(args) -> int:
    layer, cfg, report, w, x = _settings_and_inputs(args)
    w_norm = _frobenius_norm(w)
    # quantize needs scipy's LAPACK extension (never scipy.linalg); loading
    # it first keeps its one-time load out of time_s, which times quantize
    # and encode only
    _lapack()

    t0 = time.perf_counter()
    q = hbllm_quantize(w, x, cfg=cfg, **layer)
    blob = encode_layer(q)
    Path(args.out).write_bytes(blob)
    elapsed = time.perf_counter() - t0
    bits = bit_report(q)
    rel = q.diagnostics["total_error"] / w_norm if w_norm else 0.0
    print(
        f"quantized shape={q.n}x{q.m} mode={q.mode.value} beta={q.beta} "
        f"avg_bits={bits.avg_bits_per_weight:.4f} rel_error={rel:.6f} "
        f"time_s={elapsed:.2f}"
    )
    _write_report(_diag_rows(q, report), report, f"{args.out}.diag.{report}")
    return 0


def cmd_dequantize(args) -> int:
    path = _require_file(args.container, "container file")
    _check_out(args.out)
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
        try:
            with open(p, newline="") as fh:
                rows = csv.DictReader(fh) if fmt == "csv" else map(json.loads, fh)
                for row in rows:
                    out[int(row["block"])] = float(row["error"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed diagnostics sidecar {p}: {exc!r}") from None
        return out
    return {}


def cmd_inspect(args) -> int:
    path = _require_file(args.container, "container file")
    fmt = _parse_setting("report", args.report or DEFAULT_REPORT)
    _check_out(args.out)
    q = decode_layer(path.read_bytes())
    errors = _sidecar_errors(path)
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
    rows = []
    for i, ((b, width), mask) in enumerate(zip(q.spans, q.masks)):
        rows.append(
            {
                "schema": SCHEMA,
                "block": i,
                "col_offset": b,
                "width": width,
                "k": mask.k,
                "ciq_max": int(compute_ciq(recon[:, b : b + width]).max()),
                "error": errors.get(i, ""),
            }
        )
    _write_report(rows, fmt, args.out)
    return 0


def _ab_variants(base: QuantConfig) -> list[tuple[str, QuantConfig]]:
    return [
        ("base", base),
        ("haar_off", replace(base, haar_enabled=False)),
        ("share_off", replace(base, share_mean=False)),
        ("norm_l1", replace(base, norm="l1")),
        *((f"cand_{count}", replace(base, n_candidates=count))
          for count in AB_CANDIDATE_COUNTS),
    ]


def cmd_ab(args) -> int:
    layer, base, report, w, x = _settings_and_inputs(args)
    w_norm = _frobenius_norm(w)
    damping = {"damping": layer.pop("damping")} if "damping" in layer else {}
    calib = build_calib_stats(x, **damping)
    rows = []
    for name, cfg in _ab_variants(base):
        t0 = time.perf_counter()
        q = hbllm_quantize(w, x, cfg=cfg, calib=calib, **layer)
        elapsed = time.perf_counter() - t0
        rel = q.diagnostics["total_error"] / w_norm if w_norm else 0.0
        rows.append(
            {
                "schema": SCHEMA,
                "variant": name,
                "mode": q.mode.value,
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
    _write_report(rows, report, args.out)
    return 0


def cmd_gen(args) -> int:
    if args.rows < 1 or args.cols < 1:
        raise ConfigError(f"shape must be positive, got {args.rows}x{args.cols}")
    _check_out(args.out)
    rng = np.random.default_rng(args.seed)
    arr = rng.normal(size=(args.rows, args.cols)).astype(np.float32)
    write_tensor(args.out, arr)
    print(f"generated shape={args.rows}x{args.cols} seed={args.seed} -> {args.out}")
    return 0


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file; flags win over it")
    for key, (*_, accepts) in SETTINGS.items():
        p.add_argument("--" + key.replace("_", "-"), dest=key, help=accepts)


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
    p.add_argument("--report", help=SETTINGS["report"][-1])
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
    except HbqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # a path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
