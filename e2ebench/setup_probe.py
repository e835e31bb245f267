"""Set-up probe: one fresh interpreter's path to a ready analyzer.

Imports the analyzer, loads the machine signature and compiles a tiny
plan, which loads the sampler (ziggurat) tables into a cache directory
the parent made empty for this probe.  Prints one JSON line whose
``ready`` is ``time.monotonic()`` at the end of set-up; the parent
subtracts its own monotonic time at spawn (one system-wide clock on
Linux), so interpreter start-up counts too.  ``calibration`` is the
machine-speed calibration (see calibration.py), timed right after
set-up; the parent times another right before the spawn::

    python3 e2ebench/setup_probe.py INPUTS_DIR
"""

import time

T0, C0 = time.monotonic(), time.process_time()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(inputs: Path) -> dict:
    import repro.core
    import repro.diagnose
    import repro.verify  # noqa: F401
    from repro.noise import MachineSignature
    from repro.trace import TraceSet
    from workloads import TINY_STEM

    t1, c1 = time.monotonic(), time.process_time()
    MachineSignature.load(inputs / "signature.json")
    repro.core.compiled_plan(repro.core.build_graph(TraceSet.open(inputs, TINY_STEM)))
    t2, c2 = time.monotonic(), time.process_time()
    from calibration import calibration_s

    return {
        "calibration": calibration_s(),
        "ready": t2,
        "import_s": t1 - T0,
        "import_cpu_s": c1 - C0,
        "tables_s": t2 - t1,
        "tables_cpu_s": c2 - c1,
    }


if __name__ == "__main__":
    print(json.dumps(main(Path(sys.argv[1]))))
