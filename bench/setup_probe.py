"""Time one fresh-process set-up of schmidt_cone and print it as JSON.

Set-up is the import of the package and its CLI, then the warm-up that fills
the program's caches.  run.py starts this script several times with
PYTHONPATH pointing at the checkout's src/.
"""

import time

t0 = time.perf_counter()
import schmidt_cone  # noqa: E402,F401
import schmidt_cone.cli  # noqa: E402,F401

t1 = time.perf_counter()
import json  # noqa: E402

import workloads  # noqa: E402  the benchmark's own import is not counted

t2 = time.perf_counter()
workloads.warm_up()
t3 = time.perf_counter()
print(json.dumps({"cli_import_s": t1 - t0, "setup_s": (t1 - t0) + (t3 - t2)}))
