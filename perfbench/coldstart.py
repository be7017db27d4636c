"""Cold-start probe for ``setup_s``, run by ``run.py`` in a fresh interpreter.

    python3 perfbench/coldstart.py <workload> <seed> <workdir>

Times ``import ordsim`` with nothing imported before it, builds the
workload's inputs untimed, then times the first, cold op.
"""

import time

start = time.perf_counter()
import ordsim  # noqa: E402

imported = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

wl = workloads.make(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), write=False)
begin = time.perf_counter()
wl.op(0)
end = time.perf_counter()
print(json.dumps({"import_s": imported - start, "first_op_s": end - begin, "ordsim": ordsim.__file__}))
