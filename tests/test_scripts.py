"""The scripts under scripts/ run to completion and print the closed forms."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    _header, *rows = proc.stdout.splitlines()
    return [row.split() for row in rows]


def test_closure_growth_sizes():
    rows = run_script("closure_growth.py", "--max-n", "4")
    # n, 2^n, |dc dfa| = 2^n + 2, |uc dfa| = 2^n + 1
    assert [row[:4] for row in rows] == [
        [str(n), str(2**n), str(2**n + 2), str(2**n + 1)] for n in range(1, 5)
    ]


def test_ackermann_words_sizes_and_verdicts():
    rows = run_script("ackermann_words.py", "--cases", "0:0 1:1")
    # the language is {a^k : k <= A_n(x)}: downward closed, not upward closed
    got = [(row[0], row[1], row[2], row[5], row[6], row[8], row[10]) for row in rows]
    assert got == [
        ("0", "0", "1", "2", "3", "no", "yes"),
        ("1", "1", "3", "4", "5", "no", "yes"),
    ]
