"""Write golden.json: sha256 of records_g0..2.jsonl from ``wernerlike simulate``
for both backends at each desk_pipeline session seed.

Record files must stay byte-identical for a given seed, so regenerate only
when a change is meant to alter them, and say so.  Run from the repository
root:

    PYTHONPATH=src python3 perfbench/make_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from wernerlike import cli

#: The CLI's default seed and the seven after it.
SEEDS = tuple(20260801 + k for k in range(8))


def main():
    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "trap.cfg"
        config.write_text("backend = trap\n")
        for seed in SEEDS:
            golden[str(seed)] = {}
            for backend, extra in (("density", []), ("trap", ["--config", str(config)])):
                out = Path(tmp) / f"{backend}-{seed}"
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["--seed", str(seed), "--out", str(out), *extra, "simulate"])
                if code != 0:
                    sys.exit(f"simulate failed for {backend} at seed {seed}")
                golden[str(seed)][backend] = [
                    hashlib.sha256((out / f"records_g{i}.jsonl").read_bytes()).hexdigest()
                    for i in range(3)
                ]
    path = Path(__file__).with_name("golden.json")
    path.write_text(json.dumps({"records": golden}, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
