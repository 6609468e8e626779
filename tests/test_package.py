import subprocess
import sys
from pathlib import Path

import pdskit


def test_public_surface():
    names = pdskit.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    for name in names:
        getattr(pdskit, name)


def test_cold_start_leaves_rare_modules_unloaded():
    # -S: no site, so nothing is preloaded; checks imports, not timings
    src = str(Path(pdskit.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import pdskit, pdskit.cli; "
        "print(' '.join(sorted(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout.split()
    assert "pdskit.cli" in out
    for name in ("dataclasses", "inspect", "argparse", "importlib.resources", "fractions"):
        assert name not in out, f"import pdskit loads {name}"
