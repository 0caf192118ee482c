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


def test_determinism_digest_smoke():
    """The digest script that compares two commits' outputs runs to its end
    and prints one SHA-256 line per label, in order."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "determinism_digest.py")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    variants = ["te", "te,tns", "dm,tr,si,tns", "te,si,tns", "te,tr", "dm,tr,si"]
    lines = done.stdout.splitlines()
    assert [line.split()[0] for line in lines[: len(variants)]] == variants
    for line in lines[: len(variants)]:
        assert re.fullmatch(r"\S+ +(\S+=[0-9a-f]{64} ?){8}", line)
    labels = [
        "synth", "load", "c07", "c07time", "c07link", "multiblock", "longaxis", "rows", "samples", "cli"
    ]
    assert [line.split("=", 1)[0] for line in lines[len(variants) :]] == labels
    for line in lines[len(variants) :]:
        assert re.search(r"[0-9a-f]{64}$", line)
