"""The ``eseem`` console script.

It runs :func:`eseem.cli.main` with the BLAS libraries on one thread
unless the environment already sets their thread counts.  The echo
kernels' products are small; on several BLAS threads some of them stalled
for milliseconds in a fresh process after an idle spell.  A thread
variable takes effect only if it is set before numpy loads, so this module
imports nothing else first (``import eseem`` loads no numpy).
``import eseem`` and ``python -m eseem.cli`` keep the library default.
"""

import os

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def main() -> int:
    for name in THREAD_VARIABLES:
        os.environ.setdefault(name, "1")
    from .cli import main as cli_main
    return cli_main()
