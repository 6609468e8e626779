import importlib
import inspect
import pkgutil
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
    assert len(names) == 49
    # every annotation of every function, method and property that a pdskit
    # module defines names a type that module binds
    checked = 0
    for info in pkgutil.iter_modules(pdskit.__path__):
        module = importlib.import_module(f"pdskit.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            obj = inspect.unwrap(obj)  # functools.cache keeps the function as __wrapped__
            if inspect.isfunction(obj):
                typing.get_type_hints(obj)
                checked += 1
            elif inspect.isclass(obj):
                typing.get_type_hints(obj)  # the class's own fields, e.g. NamedTuple ones
                checked += 1
                for attr, member in vars(obj).items():
                    if attr == "__new__" and issubclass(obj, tuple):
                        continue  # the NamedTuple's generated constructor
                    if isinstance(member, property):
                        member = member.fget
                    elif isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if inspect.isfunction(member := inspect.unwrap(member)):
                        typing.get_type_hints(member)
                        checked += 1
    assert checked > 100  # the scan reached every module


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
