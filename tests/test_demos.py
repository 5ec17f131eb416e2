"""The demos run and print what they printed when their output was pinned.

Each demo runs in its own interpreter with the package from this checkout's
src/; the SHA-256 of its stdout is compared with the recorded digest.
Demo 04 runs a sweep and writes files, so it is left out.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DIGESTS = {
    "01_clouds_and_diagrams":
        "c35b3184a90042f99bd7b2518410cc43c3fc75e1be73e3ed09f297be265de8c5",
    "02_quantization_and_rates":
        "8f4c2b5fb7586735fcafc03d07dea1f65bbb5933ddf9c64cf88d523ac91afb0e",
    "03_coding_and_channel":
        "a68de652b40f972d6318172f22827e4b6f8f858dd5b80a9c70ffe0023c236335",
}


@pytest.mark.parametrize("demo", sorted(DIGESTS))
def test_demo_output_is_unchanged(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          capture_output=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == DIGESTS[demo], (
        done.stdout.decode())
