"""Layered end-to-end benchmark of the Maestro reproduction.

``python3 perfbench/run.py --help`` runs it; :mod:`perfbench.run` documents
the workloads and metrics.  The package imports ``repro`` from the
repository's ``src`` directory, so it runs from a plain checkout.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
