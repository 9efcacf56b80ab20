"""The package's public names: one export list, resolved lazily."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import deflog

SRC = str(Path(__file__).parent.parent / "src")


@pytest.mark.parametrize("name", deflog.__all__)
def test_every_export_resolves_and_is_listed(name):
    value = deflog.__getattr__(name)
    assert value.__module__.startswith("deflog.")
    assert getattr(deflog, name) is value
    assert name in dir(deflog)


@pytest.mark.parametrize("name", ["rules_for", "complement"])
def test_removed_names_are_gone(name):
    with pytest.raises(AttributeError):
        getattr(deflog, name)
    assert name not in dir(deflog)


def test_star_import_binds_exactly_the_export_list():
    code = ("before = set(globals())\n"
            "from deflog import *\n"
            "import sys\n"
            "print(sorted(set(globals()) - before - {'before', 'sys'})"
            " == sys.modules['deflog'].__all__)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "True\n"
