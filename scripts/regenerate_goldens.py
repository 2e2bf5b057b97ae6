#!/usr/bin/env python3
"""Regenerate the checked-in golden catalog files.

Run from the repository root after an intentional change to the record
schema or the LaTeX layout:

    python3 scripts/regenerate_goldens.py

Both formats are rendered to temporary files in ``goldens/`` and moved into
place only after both catalog runs exit 0.  If either fails, the temporary
files are removed, ``goldens/`` is left as it was, and the script exits
non-zero.
"""

import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from qbailey.cli import main  # noqa: E402

GOLDENS = Path(__file__).parent.parent / "goldens"


def run():
    GOLDENS.mkdir(exist_ok=True)
    rendered = {}
    try:
        for fmt, name in (("json", "catalog_level7_order80.json"),
                          ("latex", "catalog_level7_order80.tex")):
            fd, tmp = tempfile.mkstemp(dir=GOLDENS, prefix=f".{name}.", suffix=".tmp")
            os.close(fd)
            rendered[name] = tmp
            rc = main(["catalog", "--max-level", "7", "--order", "80",
                       "--format", fmt, "--output", tmp])
            if rc != 0:
                raise SystemExit(f"catalog emission failed with exit code {rc}; "
                                 f"{GOLDENS} left unchanged")
        for name, tmp in rendered.items():
            os.replace(tmp, GOLDENS / name)
            print(f"wrote {GOLDENS / name}")
    finally:
        for tmp in rendered.values():
            if os.path.exists(tmp):
                os.remove(tmp)


if __name__ == "__main__":
    run()
