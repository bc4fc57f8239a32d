"""The cases of scripts/gallery.py, read from the script, solve without
a numpy warning: an overflowing Gamma or bound fails its check, quietly."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" \
    / "gallery.py"
_spec = importlib.util.spec_from_file_location("gallery", SCRIPT)
gallery = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gallery)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "route, data, lam", list(gallery.cases()),
    ids=[f"{data['q']}-{route}-{lam:g}"
         for route, data, lam in gallery.cases()])
def test_case_raises_no_runtime_warning(route, data, lam):
    row = gallery.run_case(data, lam)
    if row["certified"] is not None:
        assert row["certified"] == (row["failed"] == [])
