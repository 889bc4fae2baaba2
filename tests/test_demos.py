"""Golden pins of the demo scripts' output.

Each demo runs in its own interpreter, as `python3 demos/<name>.py` would,
and its stdout is pinned by SHA-256.  The digests were taken before the
package loaded checkerboard lazily, so the demos must print the same bytes
whichever way the library is imported.
"""

from pathlib import Path

import pytest

from conftest import run_python, sha256

DEMOS = Path(__file__).resolve().parents[1] / "demos"

GOLDEN = {
    "checkerboard_kernel.py": "56c43e74e1baa309e981a3e4071177a930e6cc0adb16ef828bf962c9da9d0ebc",
    "emergent_spacetime.py": "59de536c66d4204f89fb6ecc673aa1defb5236ce1199ead90ba5c9960d61254b",
    "poset_basics.py": "d8689ebf4eb30281128d5bc221aa3205f72c525c9be4a7a8405c8e3d00b3e2b2",
    "zigzag_kinematics.py": "443ab49104862214ce3d02b060ca19a37b60f082f1ab6d54b35d9c7b187ca98e",
}


def test_every_demo_is_pinned():
    assert sorted(path.name for path in DEMOS.glob("*.py")) == sorted(GOLDEN)


@pytest.mark.parametrize("name, digest", sorted(GOLDEN.items()))
def test_demo_output_is_pinned(name, digest):
    proc = run_python(str(DEMOS / name), text=False)
    assert proc.stderr == b""
    assert sha256(proc.stdout) == digest
