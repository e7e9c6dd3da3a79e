"""Rewrite pins.json from one traced run of each workload on the default seed.

    python3 perfbench/make_pins.py

The pins hold the sha256 of the generated input and of every output
file, and the exact counters of the traced run.  They change only when
the generator or the program's output bytes change on purpose; check the
outputs by hand before pinning them.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.dont_write_bytecode = True

import worker  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    pins = {}
    for name in WORKLOADS:
        scratch = HERE.parent / ".perfbench"
        scratch.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(dir=scratch))
        try:
            result = worker.measure(name, DEFAULT_SEED, 1.0, True, workdir,
                                    None)
        finally:
            shutil.rmtree(workdir)
        pins[name] = {key: result[key]
                      for key in ("input", "outputs", "counters")}
        # select-corpus reports its every-seed pin missing here
        print(f"{name}: {len(result['outputs'])} outputs; unpinned check "
              f"problems: {result['problems'][:3]}")
    (HERE / "pins.json").write_text(
        json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
