"""What the search loads: the pipeline's modules, no others of the package, and no unused pool.

The proofs, in turn, load the sieve module but not the search.
"""

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
        "cuboidsearch.sieve",
        "cuboidsearch.singularity",
        "cuboidsearch.verifier",
    ]


def test_identities_import_does_not_load_the_search():
    # the proofs read the sieve module's own code, not the search's
    env = dict(os.environ, PYTHONPATH=SRC)
    script = "import sys, cuboidsearch.identities; print('cuboidsearch.search' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["False"]


def test_cli_search_loads_neither_identities_nor_the_pool(tmp_path):
    # a grid of one block starts no pool, and search reads no identity, so
    # neither module is imported; classify reads the identities module
    script = (
        "import sys; from cuboidsearch import cli; "
        f"code = cli.main(sys.argv[1:]); print(code, "
        "'cuboidsearch.identities' in sys.modules, 'concurrent.futures.process' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    for argv, expected in (
        (["search", "--height", "4", "--quiet", "--jobs", "2",
          "--checkpoint", str(tmp_path / "ck.json"), "--output", str(tmp_path / "out.jsonl")],
         "0 False False"),
        (["classify", "1", "1"], "0 True False"),
    ):
        out = subprocess.run(
            [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True,
            check=True,
        ).stdout
        assert out.splitlines()[-1] == expected
