"""What importing the search loads: the pipeline's modules, and no others of the package."""

import os
import subprocess
import sys
from pathlib import Path

import cuboidsearch

SRC = str(Path(cuboidsearch.__file__).resolve().parent.parent)

LISTING = (
    "import sys, cuboidsearch.search; "
    "print(*sorted(n for n in sys.modules if n.split('.')[0] == 'cuboidsearch'))"
)


def test_search_import_loads_only_the_pipeline():
    # a fresh interpreter, so no module another test imported is counted
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", LISTING], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == [
        "cuboidsearch",
        "cuboidsearch.coefficients",
        "cuboidsearch.cubic",
        "cuboidsearch.rationals",
        "cuboidsearch.search",
        "cuboidsearch.singularity",
        "cuboidsearch.verifier",
    ]
