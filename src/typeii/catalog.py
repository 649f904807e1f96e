"""The concrete codes used for verification, read from their shipped files.

Catalog names: e8, e8e8, d16plus, golay24, rm32, qr48.  Each code ships as
the generator-matrix file data/<name>.txt, which holds its canonical RREF
rows and loads by the same parser as any `--code FILE`.  The test suite
rebuilds every code from its construction and checks the file against it.
"""

from __future__ import annotations

import os

from .gf2 import Code, load_code

CATALOG = ("e8", "e8e8", "d16plus", "golay24", "rm32", "qr48")


def resolve(name_or_path: str) -> Code:
    """A catalog name or a path to a matrix file.  Any other string is a path:
    a shipped data file name such as 'e8.txt' resolves against the current
    directory, not data/; the shipped codes are reached by catalog name."""
    if name_or_path in CATALOG:
        name_or_path = os.path.join(os.path.dirname(__file__), "data",
                                    f"{name_or_path}.txt")
    return load_code(name_or_path)
