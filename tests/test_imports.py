"""What a fresh interpreter loads and generates when it imports opsis: the
sampling engine alone, with the time-frequency toolbox loaded on first use
and no dataclass method source generated."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import opsis

SRC = Path(opsis.__file__).resolve().parent.parent
TOOLBOX = ("UnsupportedModulusError", "cross_wigner", "dft", "gaussian_window", "rihaczek",
           "shift_composition_phase", "stft", "tf_shift", "tf_shift_adjoint", "tf_shift_matrix")


def fresh(script: str) -> str:
    """The stdout of script run by a new interpreter that finds opsis in the source tree."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("entry", ["opsis", "opsis.cli"])
def test_a_fresh_import_leaves_the_toolbox_unloaded(entry):
    loaded = fresh(f"import sys, {entry}\n"
                   "print(sorted(n for n in sys.modules if n.startswith('opsis.')))")
    assert loaded == str(sorted({"opsis.phase_space", "opsis.hs_ops", "opsis.si_space", "opsis.sampling"}
                                | ({"opsis.config", "opsis.cli"} if entry == "opsis.cli" else set())))


def test_the_toolbox_names_resolve_from_the_package():
    out = fresh(
        "import opsis, opsis.timefreq as tf\n"
        f"names = {TOOLBOX!r}\n"
        "print(all(name in dir(opsis) for name in names))\n"
        "print(all(getattr(opsis, name) is getattr(tf, name) for name in names))\n"
        "from opsis import stft\n"
        "print(stft is tf.stft)\n"
        "try:\n"
        "    opsis.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n")
    assert out.splitlines() == ["True", "True", "True", "module 'opsis' has no attribute 'no_such_name'"]


def test_one_unsupported_modulus_error_for_every_module():
    out = fresh(
        "import numpy as np, opsis, opsis.phase_space, opsis.timefreq\n"
        "from opsis.hs_ops import weyl_symbol\n"
        "E = opsis.phase_space.UnsupportedModulusError\n"
        "print(opsis.UnsupportedModulusError is E is opsis.timefreq.UnsupportedModulusError)\n"
        "for call in (lambda: weyl_symbol(np.eye(4)), lambda: opsis.cross_wigner(np.ones(4), np.ones(4))):\n"
        "    try:\n"
        "        call()\n"
        "    except E as exc:\n"
        "        print(exc)\n")
    assert out.splitlines() == ["True", "weyl_symbol needs odd modulus, got L=4",
                                "cross_wigner needs odd modulus, got L=4"]


def test_a_fresh_cli_import_generates_no_dataclass_methods():
    # before 3.13, @dataclass writes each method's source with _create_fn; from 3.13, with _FuncBuilder.add_fn
    out = fresh(
        "import dataclasses\n"
        "owner, name = ((dataclasses, '_create_fn') if hasattr(dataclasses, '_create_fn')\n"
        "               else (dataclasses._FuncBuilder, 'add_fn'))\n"
        "made = []\n"
        "write = getattr(owner, name)\n"
        "setattr(owner, name, lambda *args, **kwargs: made.append(args) or write(*args, **kwargs))\n"
        "import opsis.cli\n"
        "print(len(made), dataclasses.is_dataclass(opsis.si_space.RieszReport))\n")
    assert out == "0 True"
