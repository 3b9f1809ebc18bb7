"""A cold CLI call imports only what it runs: a command without a cache
directory loads no hashing, no rational arithmetic and no dataclass code
generation."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

UNWANTED = ("hashlib", "fractions", "decimal", "dataclasses", "tempfile")

DIAMOND = "0 1\n0 2\n0 3\n1 2\n2 3\n"  # K4 less an edge: one Other block
TRIANGLE_WITH_TAILS = "0 1\n1 2\n2 0\n2 3\n3 3\n"

SCRIPT = """\
import sys
sys.path.insert(0, {src!r})
import cosmopoly.cli
diamond, tails = sys.argv[1:3]
calls = [
    ["hstar", diamond],
    ["hstar", tails],
    ["hstar", diamond, "--method", "visibility"],
    ["hstar", tails, "--method", "ehrhart"],
    ["verify", diamond, "--json"],
    ["triangulate", diamond, "--json", "--decorated", "--generators"],
    ["volume", tails],
    ["conjecture", "upper-bound", "--max-size", "5"],
    ["conjecture", "theta", "--max-size", "4"],
    ["conjecture", "statistic", "--max-size", "5"],
]
for argv in calls:
    code = cosmopoly.cli.run(argv)
    assert code == 0, (argv, code)
print("loaded:", *sorted(m for m in {unwanted!r} if m in sys.modules))
"""


def test_plain_commands_import_no_hashing_fractions_or_dataclasses(tmp_path):
    paths = []
    for name, text in (("diamond.txt", DIAMOND), ("tails.txt", TRIANGLE_WITH_TAILS)):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    script = SCRIPT.format(src=str(SRC), unwanted=UNWANTED)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, *paths],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "loaded:"
