#!/usr/bin/env python3
"""Print the run fingerprint: a version header, then one ``name sha256``
line per config of ``tests/test_run_fingerprint.py``, in the format of
``tests/data/run_digests.txt``.

For a change that must keep every run bit-identical, run ``make
ab-digest`` at two commits and diff; to re-record the pinned digests,
``make ab-digest > tests/data/run_digests.txt``.
"""

import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from tests.test_run_fingerprint import CONFIGS, HEADER, digest  # noqa: E402

if __name__ == "__main__":
    print(HEADER, flush=True)
    for name in CONFIGS:
        print(name, digest(name), flush=True)
