"""The README's Python quick start runs as written and its comments hold."""

import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    sol = namespace["sol"]
    # sol.quantiles -> 0.5 each, sol.lotteries.price_lo[i] -> 0.5, spend 4.0
    assert np.allclose(sol.quantiles, 0.5, atol=1e-9)
    assert np.allclose(sol.lotteries.price_lo, 0.5, atol=1e-9)
    assert sol.expected_spend == pytest.approx(4.0, abs=1e-6)
    ratio = float(capsys.readouterr().out)  # realized fraction of the ex ante optimum
    assert 0.0 < ratio <= 1.0
