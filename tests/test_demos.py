"""The demo scripts print exactly what they printed when these digests were
recorded; a change to any demo's stdout is a change to the library's
observable output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: sha256 of each demo's stdout.
DEMO_STDOUT_SHA256 = {
    "01_relation_ideals.py": "7748cbd413b82c08b962ad8fd908122b83b7310ac43259e29b8c8ec18a64f838",
    "02_lnd_witness.py": "831c1a93063a43a3d194aaf0845fb77cda96d5b6f89fb60329527eb09a421502",
    "03_plane_decomposition.py": "fa7a067c6602566a173431dfe7e75974eda539888888e897ec33548387b403db",
    "04_classification.py": "38ce51a0e287e7a09f367f747d512a659d53be24317d27d45b45d041b6f1f34f",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("0*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout_digest(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, env=env, timeout=120, check=True,
    )
    assert hashlib.sha256(done.stdout).hexdigest() == DEMO_STDOUT_SHA256[name]
