import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_synthetic_end_to_end_smoke():
    """The README's end-to-end script runs a tiny configuration through
    training and both evaluations and prints their summary lines."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = ["--d", "8", "--k", "4", "--steps", "3", "--batch", "16"]
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "synthetic_end_to_end.py"), *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert re.search(r"^link prediction: MRR=\d\.\d{4} MR=[\d.]+ HITS@1=", done.stdout, re.M)
    assert re.search(
        r"^time prediction: gaeIOU@1=\d\.\d{4} gaeIOU@10=\d\.\d{4} "
        r"\(single uniform-random-interval baseline=\d\.\d{4}\)$",
        done.stdout,
        re.M,
    )
