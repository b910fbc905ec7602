import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hbq
from hbq.calib import build_calib_stats
from hbq.cli import AB_CANDIDATE_COUNTS, SETTINGS, _sidecar_errors, run
from hbq.formats import decode_layer, encode_layer, read_tensor, write_tensor
from hbq.pipeline import dequantize_layer, hbllm_quantize


def gen(tmp_path, name, rows, cols, seed):
    path = tmp_path / name
    assert run(["gen", "--rows", str(rows), "--cols", str(cols),
                "--seed", str(seed), "--out", str(path)]) == 0
    return path


def quantized(tmp_path, capsys, rows=8, cols=64, extra=()):
    w = gen(tmp_path, "w.rts", rows, cols, 1)
    x = gen(tmp_path, "x.rts", cols, 2 * cols, 2)
    out = tmp_path / "layer.hbq"
    code = run(["quantize", str(w), str(x), "--out", str(out), "--beta", "32",
                *extra])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return w, x, out, captured.out


def parse_table(text, fmt="csv"):
    lines = [ln for ln in text.splitlines() if ln]
    if fmt == "jsonl":
        return [json.loads(ln) for ln in lines]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def test_gen_non_positive_shape_exits_2(tmp_path, capsys):
    out = tmp_path / "w.rts"
    code = run(["gen", "--rows", "0", "--cols", "4", "--seed", "1",
                "--out", str(out)])
    assert code == 2
    assert "shape must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_gen_is_reproducible(tmp_path):
    a = gen(tmp_path, "a.rts", 4, 6, 7)
    b = gen(tmp_path, "b.rts", 4, 6, 7)
    assert a.read_bytes() == b.read_bytes()
    arr = read_tensor(a)
    assert arr.shape == (4, 6)
    assert arr.dtype == np.float32


def test_quantize_writes_container_and_summary(tmp_path, capsys):
    _, _, out, stdout = quantized(tmp_path, capsys)
    assert out.is_file()
    m = re.search(
        r"quantized shape=8x64 mode=row beta=32 avg_bits=([\d.]+) "
        r"rel_error=([\d.]+) time_s=[\d.]+",
        stdout,
    )
    assert m, stdout
    assert float(m.group(1)) > 1.0
    assert 0.0 < float(m.group(2)) < 1.0


def test_quantize_writes_diagnostics_sidecar(tmp_path, capsys):
    _, _, out, _ = quantized(tmp_path, capsys)
    sidecar = out.parent / (out.name + ".diag.csv")
    rows = parse_table(sidecar.read_text())
    assert len(rows) == 2  # 64 columns / beta 32
    assert rows[0]["schema"] == "hbq-report-v1"
    assert {"block", "col_offset", "width", "chosen_k", "error",
            "row_threshold_mean"} <= set(rows[0])


def test_quantize_missing_calib_exits_2(tmp_path, capsys):
    w = gen(tmp_path, "w.rts", 4, 8, 1)
    code = run(["quantize", str(w), str(tmp_path / "nope.rts"),
                "--out", str(tmp_path / "o.hbq")])
    captured = capsys.readouterr()
    assert code == 2
    assert "calibration file not found" in captured.err


def test_quantize_col_mode_odd_rows_exits_2(tmp_path, capsys):
    w = gen(tmp_path, "w.rts", 5, 8, 1)
    x = gen(tmp_path, "x.rts", 8, 16, 2)
    code = run(["quantize", str(w), str(x), "--mode", "col",
                "--out", str(tmp_path / "o.hbq")])
    captured = capsys.readouterr()
    assert code == 2
    assert "even" in captured.err


def test_quantize_bad_beta_exits_2(tmp_path, capsys):
    w = gen(tmp_path, "w.rts", 4, 8, 1)
    x = gen(tmp_path, "x.rts", 8, 16, 2)
    code = run(["quantize", str(w), str(x), "--beta", "0",
                "--out", str(tmp_path / "o.hbq")])
    capsys.readouterr()
    assert code == 2


@pytest.fixture
def no_read(monkeypatch):
    """Fail the test if the CLI reads an input tensor."""
    def read(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr("hbq.cli.read_tensor", read)


@pytest.mark.parametrize(
    "ks", ["0,70000", ",".join(str(2 * i) for i in range(300))],
    ids=["k-above-u16", "300-ks"],
)
def test_quantize_k_candidates_hbq1_cannot_store_exit_2(tmp_path, capsys,
                                                       no_read, ks):
    # HBQ1 stores each K as a u16 and the number of Ks as a u8: a K list it
    # cannot store is refused before either input file is read
    w = gen(tmp_path, "w.rts", 4, 8, 1)
    x = gen(tmp_path, "x.rts", 8, 16, 2)
    out = tmp_path / "o.hbq"
    code = run(["quantize", str(w), str(x), "--k-candidates", ks,
                "--out", str(out)])
    assert code == 2
    assert "k_candidates" in capsys.readouterr().err
    assert not out.exists()


BAD_SETTINGS = [
    ("mode", "diag"), ("beta", "0"), ("beta", "2.5"), ("candidates", "0"),
    ("candidates", "257"), ("candidates", "many"), ("share_mean", "maybe"),
    ("norm", "l3"), ("k_candidates", ""), ("k_candidates", "0,3"),
    ("k_candidates", "0,x"), ("lambda", "-1"), ("lambda", "nan"),
    ("lambda", "fast"), ("report", "xml"),
]


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("command", ["quantize", "ab"])
@pytest.mark.parametrize("key,text", BAD_SETTINGS)
def test_bad_setting_exits_2_naming_it_before_any_input_is_read(
        tmp_path, capsys, no_read, key, text, command, source):
    w = gen(tmp_path, "w.rts", 4, 8, 1)
    x = gen(tmp_path, "x.rts", 8, 16, 2)
    out = tmp_path / "o.hbq"
    argv = [command, str(w), str(x), "--out", str(out)]
    if source == "flag":
        argv += ["--" + key.replace("_", "-"), text]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {text}\n")
        argv += ["--config", str(cfg)]
    capsys.readouterr()
    assert run(argv) == 2
    assert f"error: {key} " in capsys.readouterr().err
    assert not out.exists()


def test_bad_settings_cover_every_key():
    assert {key for key, _ in BAD_SETTINGS} == set(SETTINGS)


def test_quantize_without_settings_writes_the_library_defaults(tmp_path, capsys):
    w = gen(tmp_path, "w.rts", 8, 256, 21)
    x = gen(tmp_path, "x.rts", 256, 128, 22)
    out = tmp_path / "o.hbq"
    assert run(["quantize", str(w), str(x), "--out", str(out)]) == 0
    capsys.readouterr()
    want = encode_layer(hbllm_quantize(read_tensor(w), read_tensor(x)))
    assert out.read_bytes() == want
    assert (tmp_path / "o.hbq.diag.csv").is_file()


# one text per settings key that changes what a small run writes
SETTING_TEXT = {
    "mode": "col", "beta": "16", "candidates": "20", "share_mean": "off",
    "norm": "l1", "k_candidates": "0,2", "lambda": "0.5", "report": "jsonl",
}


@pytest.mark.parametrize("key", sorted(SETTING_TEXT))
def test_setting_as_flag_or_config_key_writes_the_same(tmp_path, capsys, key):
    assert set(SETTING_TEXT) == set(SETTINGS)
    w = gen(tmp_path, "w.rts", 8, 32, 23)
    x = gen(tmp_path, "x.rts", 32, 64, 24)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {SETTING_TEXT[key]}\n")
    flag = ["--" + key.replace("_", "-"), SETTING_TEXT[key]]
    runs = {"default": [], "flag": flag, "file": ["--config", str(cfg)]}
    for name, extra in runs.items():
        out = tmp_path / f"{name}.hbq"
        assert run(["quantize", str(w), str(x), "--out", str(out), *extra]) == 0
    capsys.readouterr()
    blob = {name: (tmp_path / f"{name}.hbq").read_bytes() for name in runs}
    assert blob["flag"] == blob["file"]
    if key == "report":
        assert (tmp_path / "flag.hbq.diag.jsonl").read_bytes() == (
            tmp_path / "file.hbq.diag.jsonl").read_bytes()
    else:
        assert blob["flag"] != blob["default"]  # the setting reached the library


def test_flags_take_the_config_file_spellings(tmp_path, capsys):
    w = gen(tmp_path, "w.rts", 8, 32, 25)
    x = gen(tmp_path, "x.rts", 32, 64, 26)
    blobs = set()
    for text in ("off", "OFF", "false", "No", "0"):
        out = tmp_path / "o.hbq"
        assert run(["quantize", str(w), str(x), "--out", str(out),
                    "--share-mean", text, "--lambda", "AUTO"]) == 0
        blobs.add(out.read_bytes())
    capsys.readouterr()
    assert len(blobs) == 1
    q = decode_layer(blobs.pop())
    assert q.cfg.share_mean is False


def test_help_shows_each_flags_accepted_values(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["quantize", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for key, (*_, accepts) in SETTINGS.items():
        assert "--" + key.replace("_", "-") in text
        assert " ".join(accepts.split()) in text


def test_dequantize_roundtrip_matches_library(tmp_path, capsys):
    w, _, out, _ = quantized(tmp_path, capsys)
    recon_path = tmp_path / "recon.rts"
    assert run(["dequantize", str(out), "--out", str(recon_path)]) == 0
    capsys.readouterr()
    recon = read_tensor(recon_path)
    assert recon.shape == read_tensor(w).shape
    q = decode_layer(out.read_bytes())
    assert np.array_equal(recon, dequantize_layer(q))


@pytest.mark.parametrize("command", ["gen", "quantize", "dequantize", "inspect", "ab"])
@pytest.mark.parametrize("where", ["directory", "missing directory"])
def test_unwritable_out_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch,
                                                   command, where):
    # an --out that cannot be written is a usage error, found with the
    # other inputs: nothing is read, quantized, decoded or printed first
    w, x, container, _ = quantized(tmp_path, capsys)
    out = tmp_path / "missing" / "o"
    if where == "directory":
        out = tmp_path / "taken"
        out.mkdir()

    def no_work(*args, **kwargs):
        raise AssertionError("work done before --out was checked")

    for name in ("read_tensor", "write_tensor", "hbllm_quantize",
                 "build_calib_stats", "decode_layer"):
        monkeypatch.setattr(f"hbq.cli.{name}", no_work)
    argv = {
        "gen": ["gen", "--rows", "2", "--cols", "2"],
        "quantize": ["quantize", str(w), str(x), "--beta", "32"],
        "dequantize": ["dequantize", str(container)],
        "inspect": ["inspect", str(container)],
        "ab": ["ab", str(w), str(x), "--beta", "32"],
    }[command]
    code = run([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    err = captured.err
    assert code == 2
    assert captured.out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_unwritable_sidecar_exits_2_with_one_error_line(tmp_path, capsys):
    # a write that fails after the checks (here the diagnostics sidecar is
    # a directory) is still an OSError, exit 2 with one error line
    w, x, out, _ = quantized(tmp_path, capsys)
    Path(f"{out}.diag.csv").unlink()
    Path(f"{out}.diag.csv").mkdir()
    code = run(["quantize", str(w), str(x), "--out", str(out), "--beta", "32"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_dequantize_truncated_exits_3(tmp_path, capsys):
    w, _, out, _ = quantized(tmp_path, capsys)
    bad = tmp_path / "bad.hbq"
    bad.write_bytes(out.read_bytes()[:-9])
    code = run(["dequantize", str(bad), "--out", str(tmp_path / "r.rts")])
    captured = capsys.readouterr()
    assert code == 3
    assert "error:" in captured.err


@pytest.mark.parametrize("cut", [-4, 3])
def test_quantize_corrupt_weights_file_exits_3(tmp_path, capsys, cut):
    # a file whose size disagrees with its header (or that ends inside the
    # magic) is an integrity error, raised before any work is done
    w = gen(tmp_path, "w.rts", 8, 64, 1)
    x = gen(tmp_path, "x.rts", 64, 128, 2)
    w.write_bytes(w.read_bytes()[:cut])
    code = run(["quantize", str(w), str(x), "--out", str(tmp_path / "o.hbq")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "o.hbq").exists()


def test_quantize_unreadable_weights_file_exits_2(tmp_path, capsys, monkeypatch):
    w = gen(tmp_path, "w.rts", 8, 64, 1)
    x = gen(tmp_path, "x.rts", 64, 128, 2)

    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(hbq.formats, "open", refuse, raising=False)
    code = run(["quantize", str(w), str(x), "--out", str(tmp_path / "o.hbq")])
    err = capsys.readouterr().err
    assert code == 2
    assert "Permission denied" in err and "Traceback" not in err


def test_dequantize_negative_scale_exits_3(tmp_path, capsys):
    import struct
    import zlib

    _, _, out, _ = quantized(tmp_path, capsys)
    payload = bytearray(out.read_bytes()[:-4])
    k_bytes = 2 * 4  # default k candidates 0,2,4,8
    # first line record: header, k list, block offset/width, 32-bit mask,
    # then band 0's index and shared mean before its first scale
    alpha = 32 + k_bytes + 8 + 4 + 1 + 2
    struct.pack_into("<e", payload, alpha, -0.5)
    bad = tmp_path / "bad.hbq"
    bad.write_bytes(bytes(payload) + struct.pack("<I", zlib.crc32(payload)))
    code = run(["dequantize", str(bad), "--out", str(tmp_path / "r.rts")])
    captured = capsys.readouterr()
    assert code == 3
    assert f"byte {alpha}" in captured.err


def test_determinism_byte_identical_files(tmp_path, capsys):
    w = gen(tmp_path, "w.rts", 8, 64, 5)
    x = gen(tmp_path, "x.rts", 64, 128, 6)
    out1, out2 = tmp_path / "a.hbq", tmp_path / "b.hbq"
    assert run(["quantize", str(w), str(x), "--out", str(out1)]) == 0
    assert run(["quantize", str(w), str(x), "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


DATA = Path(__file__).parent / "data"

# sha256 of (container, diagnostics sidecar, dequantized RTS1) from the
# CLI on tests/data/cli_weights.rts and cli_calib.rts at beta 32; frozen
# when first produced, like the library pins in test_formats.py
CLI_SHA256 = {
    "row": (
        "f504cda598ee51666c2e20621c8046a6b69c4a6c663a92d5d6b77dd9f15c95d3",
        "5d983441ab09ab6b17cb9457b48c0da9e43422e9b1c4acec98d3a6aa2a6867ad",
        "ab518561e94fec6ec7e6fab01d8d954d0b1b60fd008a0e11d6aff80c8e516026",
    ),
    "col": (
        "d7a8502da5762828535f4731c6d87705d633aae80bf80cda12da3940a3d35cb6",
        "d59fbaa505954a951f9d59be462e46e03c8be2e95ec3de9ab0d6765f730b18a5",
        "b5f6d46aefdec98e06da206cffc33d77167881bbf8bbb556f4d96c485dd6c14b",
    ),
}


def cli_fixture():
    """The arrays stored in tests/data: 16x64 weights with two columns
    scaled 8x, and 64x128 small-integer activations, so every product and
    partial sum of the Hessian is an exact integer."""
    rng = np.random.default_rng(2026)
    w = rng.normal(size=(16, 64)).astype(np.float32)
    w[:, [5, 40]] *= np.float32(8.0)
    x = rng.integers(-3, 4, size=(64, 128)).astype(np.float32)
    return w, x


def test_cli_fixture_files_hold_their_recipe():
    w, x = cli_fixture()
    assert np.array_equal(read_tensor(DATA / "cli_weights.rts"), w)
    assert np.array_equal(read_tensor(DATA / "cli_calib.rts"), x)


@pytest.mark.parametrize("mode", sorted(CLI_SHA256))
def test_cli_end_to_end_bytes_pinned(tmp_path, capsys, mode):
    out = tmp_path / "layer.hbq"
    recon = tmp_path / "recon.rts"
    assert run(["quantize", str(DATA / "cli_weights.rts"),
                str(DATA / "cli_calib.rts"), "--beta", "32", "--mode", mode,
                "--out", str(out)]) == 0
    assert run(["dequantize", str(out), "--out", str(recon)]) == 0
    capsys.readouterr()
    sidecar = out.parent / (out.name + ".diag.csv")
    got = tuple(
        hashlib.sha256(p.read_bytes()).hexdigest() for p in (out, sidecar, recon)
    )
    assert got == CLI_SHA256[mode]


def test_inspect_reports_blocks_and_bits(tmp_path, capsys):
    _, _, out, _ = quantized(tmp_path, capsys, extra=["--k-candidates", "0"])
    assert run(["inspect", str(out)]) == 0
    stdout = capsys.readouterr().out
    lines = stdout.splitlines()
    bits = dict(part.split("=") for part in lines[0].split())
    assert int(bits["sign_bits"]) == 8 * 64  # K=0 ROW: one bit per weight
    assert re.match(r"ciq min=\d+ median=\d+ max=\d+", lines[1])
    rows = parse_table("\n".join(lines[2:]))
    assert len(rows) == 2
    assert all(int(r["ciq_max"]) >= 1 for r in rows)
    assert all(r["schema"] == "hbq-report-v1" for r in rows)


def test_inspect_finds_sidecar_errors(tmp_path, capsys):
    _, _, out, _ = quantized(tmp_path, capsys)
    assert run(["inspect", str(out)]) == 0
    stdout = capsys.readouterr().out
    rows = parse_table("\n".join(stdout.splitlines()[2:]))
    assert all(float(r["error"]) > 0 for r in rows)


def test_inspect_without_sidecar_leaves_error_blank(tmp_path, capsys):
    _, _, out, _ = quantized(tmp_path, capsys)
    (tmp_path / "layer.hbq.diag.csv").unlink()
    assert _sidecar_errors(out) == {}
    assert run(["inspect", str(out)]) == 0
    rows = parse_table("\n".join(capsys.readouterr().out.splitlines()[2:]))
    assert len(rows) == 2
    assert all(r["error"] == "" for r in rows)


def test_inspect_jsonl(tmp_path, capsys):
    _, _, out, _ = quantized(tmp_path, capsys)
    assert run(["inspect", str(out), "--report", "jsonl"]) == 0
    stdout = capsys.readouterr().out
    rows = parse_table("\n".join(stdout.splitlines()[2:]), "jsonl")
    assert len(rows) == 2
    assert rows[0]["schema"] == "hbq-report-v1"


@pytest.mark.parametrize("fmt,bad", [
    ("csv", "block,col_offset,width\n0,0,32\n"),  # no error column
    ("jsonl", '{"block": 0, "error": 1.5}\nnot json\n'),
])
def test_inspect_malformed_sidecar_exits_2_naming_it(tmp_path, capsys, fmt, bad):
    _, _, out, _ = quantized(tmp_path, capsys, extra=["--report", fmt])
    sidecar = tmp_path / f"layer.hbq.diag.{fmt}"
    sidecar.write_text(bad)
    code = run(["inspect", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert str(sidecar) in captured.err
    assert captured.out == ""  # nothing printed before the failure


def test_ab_table_variants_and_nesting(tmp_path, capsys):
    # single block (beta == cols): nested candidate sets then guarantee
    # monotone errors outright. Across blocks, compensation feeds one
    # block's reconstruction into the next block's input, which can
    # reorder totals even with nested sets.
    w = gen(tmp_path, "w.rts", 8, 64, 9)
    x = gen(tmp_path, "x.rts", 64, 128, 10)
    capsys.readouterr()  # drop the gen chatter
    assert run(["ab", str(w), str(x), "--beta", "64"]) == 0
    rows = parse_table(capsys.readouterr().out)
    by_name = {r["variant"]: r for r in rows}
    assert [r["variant"] for r in rows] == [
        "base", "haar_off", "share_off", "norm_l1",
        "cand_14", "cand_40", "cand_79", "cand_157",
    ]
    errs = {n: float(by_name[f"cand_{n}"]["rel_error"]) for n in AB_CANDIDATE_COUNTS}
    assert errs[157] <= errs[79] <= errs[40] <= errs[14]
    # the default grid is one of the nested ones: cand_40 is base
    for column in ("rel_error", "avg_bits"):
        assert by_name["cand_40"][column] == by_name["base"][column]


def test_ab_share_mean_quarter_bit(tmp_path, capsys):
    w = gen(tmp_path, "w.rts", 4, 256, 11)
    x = gen(tmp_path, "x.rts", 256, 64, 12)
    capsys.readouterr()  # drop the gen chatter
    assert run(["ab", str(w), str(x), "--k-candidates", "0"]) == 0
    rows = parse_table(capsys.readouterr().out)
    by_name = {r["variant"]: r for r in rows}
    delta = (float(by_name["share_off"]["avg_bits"])
             - float(by_name["base"]["avg_bits"]))
    assert delta == 0.25


def test_ab_report_file_jsonl(tmp_path, capsys):
    w = gen(tmp_path, "w.rts", 4, 32, 13)
    x = gen(tmp_path, "x.rts", 32, 64, 14)
    report = tmp_path / "ab.jsonl"
    assert run(["ab", str(w), str(x), "--beta", "16", "--report", "jsonl",
                "--out", str(report)]) == 0
    capsys.readouterr()
    rows = parse_table(report.read_text(), "jsonl")
    assert any(r["variant"] == "haar_off" for r in rows)
    assert all(r["schema"] == "hbq-report-v1" for r in rows)


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nbeta = 16\nmode = row\nreport = jsonl\n")
    w = gen(tmp_path, "w.rts", 4, 32, 15)
    x = gen(tmp_path, "x.rts", 32, 64, 16)
    out = tmp_path / "o.hbq"
    assert run(["quantize", str(w), str(x), "--config", str(cfg),
                "--beta", "8", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "beta=8" in stdout  # flag wins over the file
    assert (tmp_path / "o.hbq.diag.jsonl").is_file()  # file key still applies


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("betta = 16\n")
    w = gen(tmp_path, "w.rts", 4, 32, 17)
    x = gen(tmp_path, "x.rts", 32, 64, 18)
    code = run(["quantize", str(w), str(x), "--config", str(cfg),
                "--out", str(tmp_path / "o.hbq")])
    captured = capsys.readouterr()
    assert code == 2
    assert "betta" in captured.err


def test_config_file_line_without_equals_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nbeta 16\n")
    w = gen(tmp_path, "w.rts", 4, 32, 17)
    x = gen(tmp_path, "x.rts", 32, 64, 18)
    code = run(["quantize", str(w), str(x), "--config", str(cfg),
                "--out", str(tmp_path / "o.hbq")])
    captured = capsys.readouterr()
    assert code == 2
    assert f"{cfg}:2: expected key=value" in captured.err
    assert not (tmp_path / "o.hbq").exists()


@pytest.mark.parametrize("kind", ["non-utf8", "directory"])
def test_unreadable_config_file_exits_2_naming_it(tmp_path, capsys, kind):
    cfg = tmp_path / "run.cfg"
    if kind == "directory":
        cfg.mkdir()
    else:
        cfg.write_bytes(b"beta = 16\n# caf\xe9\n")
    w = gen(tmp_path, "w.rts", 4, 32, 17)
    x = gen(tmp_path, "x.rts", 32, 64, 18)
    capsys.readouterr()
    code = run(["quantize", str(w), str(x), "--config", str(cfg),
                "--out", str(tmp_path / "o.hbq")])
    captured = capsys.readouterr()
    assert code == 2
    assert f"config file {cfg}" in captured.err
    assert "Traceback" not in captured.err


def test_config_file_seed_key_is_unknown(tmp_path, capsys):
    # the quantizer is deterministic; "seed" was parsed and never read
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\n")
    w = gen(tmp_path, "w.rts", 4, 32, 19)
    x = gen(tmp_path, "x.rts", 32, 64, 20)
    code = run(["quantize", str(w), str(x), "--config", str(cfg),
                "--out", str(tmp_path / "o.hbq")])
    assert code == 2
    assert "seed" in capsys.readouterr().err


def child_env():
    """This process's environment, with the imported hbq's source
    directory first on PYTHONPATH, so a child process imports it too."""
    env = dict(os.environ)
    src = str(Path(hbq.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


def test_module_entry_point(tmp_path):
    out = tmp_path / "w.rts"
    proc = subprocess.run(
        [sys.executable, "-m", "hbq", "gen", "--rows", "4", "--cols", "8",
         "--seed", "3", "--out", str(out)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert out.is_file()
    assert "generated shape=4x8" in proc.stdout


@pytest.mark.parametrize("command", ["quantize", "ab"])
def test_overflowing_weights_exit_4_without_warning(tmp_path, capsys, command):
    # ||w|| of float32 weights near 1e30 overflows if taken in float32;
    # the command must fail on the binary16 range alone, with no warning
    rng = np.random.default_rng(31)
    w, x = tmp_path / "w.rts", tmp_path / "x.rts"
    write_tensor(w, (rng.normal(size=(16, 64)) * 1e30).astype(np.float32))
    write_tensor(x, rng.normal(size=(64, 128)).astype(np.float32))
    argv = [command, str(w), str(x), "--beta", "32"]
    if command == "quantize":
        argv += ["--out", str(tmp_path / "o.hbq")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(argv)
    captured = capsys.readouterr()
    assert code == 4
    assert "binary16" in captured.err
    assert "Warning" not in captured.err


def test_non_finite_factor_exits_4_naming_the_block(tmp_path, capsys,
                                                    monkeypatch):
    import hbq.pipeline

    w, x = gen(tmp_path, "w.rts", 8, 64, 1), gen(tmp_path, "x.rts", 64, 128, 2)
    stats = build_calib_stats(read_tensor(x))
    u = stats.chol_inv.copy()
    u[32, 40] = np.inf  # inside the second block's diagonal sub-block
    bad = replace(stats, chol_inv=u)
    monkeypatch.setattr(hbq.pipeline, "build_calib_stats", lambda *a: bad)
    code = run(["quantize", str(w), str(x), "--out", str(tmp_path / "o.hbq"),
                "--beta", "16"])
    assert code == 4
    assert "block [32, 48)" in capsys.readouterr().err


# Runs one CLI command (or none) in a fresh interpreter, then prints the
# scipy modules loaded and whether numpy.ma is. The suite itself imports
# scipy, so only a child process can show what a command loads.
CHILD = """
import json, sys
import hbq
rc = 0
if len(sys.argv) > 1:
    import hbq.cli
    rc = hbq.cli.run(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"rc": rc, "scipy": loaded, "numpy_ma": "numpy.ma" in sys.modules}))
"""


def run_child(argv):
    """The scipy modules that argv loads in a fresh process. No command
    loads numpy.ma (~15 ms to import; ``np.unique`` would)."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["rc"] == 0, proc.stderr
    assert not report["numpy_ma"], argv
    return report["scipy"]


def test_bare_import_leaves_scipy_unloaded():
    assert run_child([]) == []


def test_cli_import_leaves_the_thread_pool_unloaded():
    # concurrent.futures, and the logging it imports, load only where
    # build_hessian starts its pool
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, hbq.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


@pytest.mark.parametrize("command", ["dequantize", "inspect", "gen"])
def test_read_commands_leave_scipy_unloaded(tmp_path, capsys, command):
    _, _, out, _ = quantized(tmp_path, capsys)
    argv = {
        "dequantize": ["dequantize", str(out), "--out", str(tmp_path / "r.rts")],
        "inspect": ["inspect", str(out)],
        "gen": ["gen", "--rows", "4", "--cols", "8", "--seed", "3",
                "--out", str(tmp_path / "g.rts")],
    }[command]
    assert run_child(argv) == []


def test_quantize_in_a_fresh_process_loads_scipy(tmp_path, capsys):
    w, x, want, _ = quantized(tmp_path, capsys)
    out = tmp_path / "child.hbq"
    loaded = run_child(["quantize", str(w), str(x), "--out", str(out),
                        "--beta", "32"])
    assert out.read_bytes() == want.read_bytes()
    # the probe sees scipy when it is loaded: LAPACK's extension, and not
    # the scipy.linalg package around it
    assert "scipy.linalg._flapack" in loaded
    assert "scipy.linalg" not in loaded


LOADER_THEN_SCIPY_LINALG = """
import sys
from hbq.calib import _lapack
lapack = _lapack()
assert "scipy.linalg" not in sys.modules
assert _lapack() is lapack
import scipy.linalg
from scipy.linalg import get_lapack_funcs
assert sys.modules["scipy.linalg._flapack"] is lapack
assert scipy.linalg.lapack.dpotrf is lapack.dpotrf
assert scipy.linalg.lapack.dtrtri is lapack.dtrtri
assert get_lapack_funcs(("trtrs",))[0] is lapack.dtrtrs
print("ok")
"""


def test_lapack_loader_is_what_scipy_linalg_imports_later():
    proc = subprocess.run(
        [sys.executable, "-c", LOADER_THEN_SCIPY_LINALG],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]


LOADER_THEN_FLAPACK_ATTRIBUTE = """
import sys
from hbq.calib import _lapack
lapack = _lapack()
import scipy.linalg
from scipy.linalg import _flapack
assert _flapack is lapack
assert scipy.linalg.lapack.dtrtrs is lapack.dtrtrs
assert not hasattr(scipy.linalg, "_flapack")
print("ok")
"""


def test_lapack_loader_leaves_the_package_attribute_unset():
    # as calib._lapack documents: after it, a later import of scipy.linalg
    # works, and its _flapack is reachable by import but not as an attribute
    proc = subprocess.run(
        [sys.executable, "-c", LOADER_THEN_FLAPACK_ATTRIBUTE],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]
