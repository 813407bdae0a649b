"""The scripts under scripts/ import and configure against the current package.

Every script guards its work behind ``__main__``, so importing one runs
nothing; a rename in the package that breaks one fails here.
"""

import importlib.util
from pathlib import Path

import pytest

from latticegrow.experiments import ExperimentConfig

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["pilot_acceptance", "shape_gallery", "mutants"])
def test_script_imports(name):
    _load(name)  # fails on any name the script imports that the package lacks


def test_shape_gallery_configs_validate():
    gallery = _load("shape_gallery")
    assert gallery.CONFIGS
    for kw in gallery.CONFIGS:
        cfg = ExperimentConfig()
        for k, v in kw.items():
            setattr(cfg, k, v)
        cfg.workers = 2  # as main() sets it
        cfg.validate()


def test_every_mutant_row_matches_its_source():
    # the mutation check runs outside Tier-1; a row whose text an edit has
    # moved or removed fails here first
    mutants = _load("mutants")
    assert mutants.MUTANTS
    assert mutants.stale_rows() == []
