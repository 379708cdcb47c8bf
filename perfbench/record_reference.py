"""Record perfbench/reference.json from the package as it stands.

Run from the root of a checkout whose outputs are known to be right:

    python3 perfbench/record_reference.py

It runs the unit of every workload once at each size and stores
what the checks compare against: the top-10 ranked tables of the
surrogate search and of both ``realise`` reports, and the applied inputs
of every replay scenario.  Re-recording is a change of the benchmark's
expected answers and belongs in its own commit.
"""

import json
import os
import random
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import REFERENCE_PATH  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main():
    ref = {}
    for name, cls in WORKLOADS.items():
        if cls.reference_key != name:  # checked against another workload's entry
            continue
        entry = ref.setdefault(name, {})
        for size in ("smoke", "full"):
            wl = cls(size, ROOT, None)
            wl.setup()
            try:
                data = wl.reference_data(wl.run(random.Random(0)))
            finally:
                wl.close()
            if name == "surrogate-search":
                entry[size] = data
            else:
                entry.update(data)
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH}")


if __name__ == "__main__":
    main()
