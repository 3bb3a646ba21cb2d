"""Child process for the set-up measurement.

Run as ``python3 perfbench/setup_probe.py <checkout> <workload>``. It
imports anyonjc from the checkout's ``src/``, runs the first sign
calibration and builds the first frame, then prints one JSON line with
its own stage times. The parent times the whole thing from spawn to that
line.
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1] + "/src")
import anyonjc  # noqa: E402

if sys.argv[2] == "cli":
    import anyonjc.cli

    anyonjc.cli.build_parser()
t1 = time.perf_counter()
anyonjc.calibrate_sign_convention()
t2 = time.perf_counter()
anyonjc.schwinger_frame(anyonjc.default_basis(anyonjc.ModelParams(m=2)))
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "calibrate_s": t2 - t1, "frame_s": t3 - t2}), flush=True)
