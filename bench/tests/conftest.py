"""Put ``src/`` (the program) and the repo root (``bench``) on the path,
so every test file runs on its own and in any order."""

import os
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)
