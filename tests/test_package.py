import inspect
import subprocess
import sys
import typing
from pathlib import Path

import pdskit
from pdskit import errors


def test_public_surface():
    names = pdskit.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    for name in names:
        obj = getattr(pdskit, name)
        # every annotation names a type the module binds
        if callable(obj):
            typing.get_type_hints(obj)
        if inspect.isclass(obj):  # and its public methods and properties
            for attr, member in vars(obj).items():
                fn = member.fget if isinstance(member, property) else getattr(obj, attr)
                if not attr.startswith("_") and (inspect.isfunction(fn) or inspect.ismethod(fn)):
                    typing.get_type_hints(fn)


def test_one_error_class_per_kind_of_fault():
    kinds = {c.__name__ for c in vars(errors).values() if isinstance(c, type)}
    assert kinds == {
        "PdsKitError", "ParseError", "InvalidGraph", "InvalidArgument",
        "UnknownName", "NoPds", "VerificationFailed", "InstanceTooLarge",
    }
    assert kinds <= set(pdskit.__all__)
    # the folded classes leave no second name behind
    for gone in ("Disconnected", "IsStar", "NotAPds", "NotIndependent", "InvalidInstance"):
        assert not hasattr(pdskit, gone) and not hasattr(errors, gone)


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
