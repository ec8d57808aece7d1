"""`herdflu._special`: scipy's `ndtri` and `stdtr` without the
scipy.special package."""

import subprocess
import sys
import textwrap
import types

import pytest

from herdflu import _special

# Imported by the full scipy.special package, not by its kernels.
PACKAGE_ONLY = ("scipy._lib._array_api", "numpy.f2py", "numpy.testing",
                "charset_normalizer", "concurrent.futures")


def _run(script: str) -> list[str]:
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_kernels_are_scipy_special_s():
    import scipy.special

    assert _special.ndtri is scipy.special.ndtri
    assert _special.stdtr is scipy.special.stdtr


@pytest.mark.parametrize("argv", [
    ["simulate", "--mode", "sde", "--out", "{tmp}/traj.csv"],
    ["sensitivity", "--metric", "peak", "--samples", "20", "--out", "{tmp}/prcc.csv"],
])
def test_commands_load_the_kernels_alone(argv, tmp_path):
    # A later `import scipy.special` reuses the kernel modules, so it
    # exports the objects the command used.
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("t_end = 2\ndt = 0.01\n")
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--config", str(cfg)]
    out = _run(f"""
        import sys
        import herdflu.cli

        assert herdflu.cli.run_cli({argv!r}) == 0
        print("scipy.special._ufuncs" in sys.modules, "scipy.special" in sys.modules)
        print([m for m in {PACKAGE_ONLY!r} if m in sys.modules])
        from herdflu import _special
        import scipy.special
        print(_special.ndtri is scipy.special.ndtri,
              _special.stdtr is scipy.special.stdtr)
    """)
    assert out == ["True", "False", "[]", "True", "True"]


def test_loaded_scipy_special_leaves_sys_modules_alone(monkeypatch):
    import scipy.special

    class Recorder(dict):
        def __setitem__(self, key, value):
            writes.append(key)
            super().__setitem__(key, value)

        def __delitem__(self, key):
            writes.append(key)
            super().__delitem__(key)

    writes = []
    monkeypatch.setattr(_special, "sys", types.SimpleNamespace(modules=Recorder(sys.modules)))
    assert _special._kernels() == (scipy.special.ndtri, scipy.special.stdtr)
    assert writes == []


def test_failed_fast_path_falls_back_to_the_package():
    # The fast path fails with its placeholder in place; the fallback
    # gives scipy.special's own objects, and the placeholder is gone.
    out = _run("""
        import importlib
        import sys

        seen, import_module = [], importlib.import_module

        def failing(name, package=None):
            if name != "scipy.special._ufuncs":
                return import_module(name, package)
            seen.append(sys.modules.get("scipy.special"))
            raise ImportError(name)

        importlib.import_module = failing
        from herdflu import _special
        import scipy.special

        print(len(seen), seen[0] is not scipy.special, hasattr(seen[0], "__file__"))
        print(sys.modules["scipy.special"] is scipy.special,
              scipy.special.__file__.endswith("__init__.py"))
        print(_special.ndtri is scipy.special.ndtri,
              _special.stdtr is scipy.special.stdtr)
    """)
    assert out == ["1", "True", "False", "True", "True", "True", "True"]
