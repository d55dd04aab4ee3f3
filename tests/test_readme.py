"""The README's Python quick-start runs and prints what its comments say."""
import contextlib
import io
import math
import os
import re

import pytest

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def quick_start() -> str:
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1, "the README should have one Python block, the quick-start"
    return blocks[0]


def test_readme_quick_start_prints_its_roots_and_infimum():
    block = quick_start()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, README, "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 4, lines
    assert lines[0] == "[ 0.  0. -2.]"
    assert float(lines[1]) == pytest.approx(2.0 * math.sqrt(6.0) / 3.0)
    # the quotient route alone: no root, quotient dimension 0
    assert lines[2] == "() 0"
    # asked for weyl.DEFAULT_STARTS starts: no root, infimum sqrt(5/2) ~ 1.58
    roots, infimum = lines[3].split()
    assert roots == "()"
    assert float(infimum) == pytest.approx(math.sqrt(2.5), rel=1e-9)
    assert f"~{float(infimum):.2f}" in block
    for comment in ("# [ 0.  0. -2.]", "# () 0:", "# () and ~1.58"):
        assert comment in block, comment
