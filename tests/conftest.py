"""The command-line tests start ``python -m hadamard`` in a subprocess; point
its ``PYTHONPATH`` at the package these tests import, so the suite runs from
a fresh checkout as well as from an installed one."""

import os
from pathlib import Path

import hadamard

_root = str(Path(hadamard.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_root, os.environ.get("PYTHONPATH")]))
