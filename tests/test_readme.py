"""The README's library quick start, run as written, gives the figures the
README quotes, to the README's two decimals."""

import re
from pathlib import Path

from hbq import QuantConfig, bit_report, hbllm_quantize

README = Path(__file__).resolve().parents[1] / "README.md"

# bits per weight, by where the README says they go
SHARES = {
    "sign bits": ("sign_bits", 1.04),
    "the sparse-group bitmaps": ("mask_bits", 1.05),
    "binary16 scalars": ("scalar_bits", 0.81),
    "threshold indices": ("index_bits", 0.13),
}


def test_readme_quick_start_figures(capsys):
    text = README.read_text(encoding="utf-8")
    prose = " ".join(text.split())
    code = re.search(r"## Library quick start\s+```python\n(.*?)```", text, re.S)
    ns = {}
    exec(code.group(1), ns)
    printed = capsys.readouterr().out.split()
    assert f"{float(printed[1]):.2f}" == "3.04"
    assert "~3.04 bits" in prose
    r = bit_report(ns["q"])
    for label, (field, figure) in SHARES.items():
        assert f"{getattr(r, field) / r.total_weights:.2f}" == f"{figure:.2f}", label
        assert f"{figure:.2f} in {label}" in prose, label
    # per-group means store a second binary16 mean per band
    own = hbllm_quantize(ns["w"].copy(), ns["x"], beta=128,
                         cfg=QuantConfig(share_mean=False))
    saved = bit_report(own).avg_bits_per_weight - r.avg_bits_per_weight
    assert f"{saved:.3f}" == "0.236"
    assert "0.236 on the quick start" in prose
