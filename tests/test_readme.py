"""The README's library example runs as written and prints what its
comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^## Library\n\n```python\n(.*?)^```", text, re.M | re.S)
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
