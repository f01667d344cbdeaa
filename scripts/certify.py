#!/usr/bin/env python3
"""Run the full certificate suite and write a JSON report.

Examples:
    python scripts/certify.py                       # desk ranks, short mode
    python scripts/certify.py --max-rank 3 --long   # desk ranks with the long spectral YBE cases
    python scripts/certify.py --max-rank 6 --long   # the whole certified range
    RSQG_JOBS=4 python scripts/certify.py           # parallel dispatch
"""

import sys

from rsqg.cli import run

if __name__ == "__main__":
    args = sys.argv[1:]
    if "--out" not in args:
        args += ["--out", "certificates.json"]
    sys.exit(run(["certify-all", *args]))
