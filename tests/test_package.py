"""Package surface tests: every exported name resolves, the retired
union-grid layer stays retired, and the runtime needs numpy alone."""

from __future__ import annotations

import dataclasses
import importlib
import os
import subprocess
import sys

import pytest

import critgap
from critgap.contours import QuadratureGrid

MODULES = ("special", "contours", "kernels", "fredholm", "observables", "mc",
           "validate")


@pytest.mark.parametrize("module", MODULES)
def test_module_all_names_resolve(module):
    # tracers and `from critgap.x import *` getattr every listed name, so a
    # stale entry breaks them
    mod = importlib.import_module(f"critgap.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_package_all_names_resolve():
    missing = [name for name in critgap.__all__ if not hasattr(critgap, name)]
    assert not missing
    assert len(set(critgap.__all__)) == len(critgap.__all__)


@pytest.mark.parametrize("module, name", [
    ("contours", "LINE"), ("contours", "LOOP"), ("contours", "union_grid"),
    ("kernels", "rh_vector_arrays"), ("kernels", "integrable_kernel"),
    ("kernels", "qa_matrix"), ("kernels", "line_reduced_kernel"),
    ("kernels", "left_factor"), ("kernels", "right_factor"),
    ("fredholm", "qa_operator")])
def test_union_grid_layer_is_gone(module, name):
    mod = importlib.import_module(f"critgap.{module}")
    assert not hasattr(mod, name)
    assert not hasattr(critgap, name)


def test_quadrature_grid_carries_no_labels():
    fields = {f.name for f in dataclasses.fields(QuadratureGrid)}
    assert fields == {"nodes", "weights", "panel_count", "order", "spec"}


def test_import_loads_no_scipy():
    # every determinant and solve goes through numpy.linalg; a fresh
    # interpreter that imports the package (and its CLI) must not load scipy
    src = os.path.dirname(os.path.dirname(os.path.abspath(critgap.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, critgap, critgap.cli; print(sorted("
            "m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"
