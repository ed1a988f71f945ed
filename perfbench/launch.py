"""Child-process launcher for the benchmark.

Reads one JSON request per line on stdin (``argv`` and the paths for the
child's ``stdin``, ``stdout`` and ``stderr``), runs the child to completion
and answers with one JSON line: exit code, wall time and peak RSS.

It exists so that children are spawned from a small process.  Linux carries
the spawning process's peak RSS into the child's ``ru_maxrss`` across
``exec``, so a child spawned from the benchmark process, which holds the
generated input and parsed outputs, would report the benchmark's memory.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdin"], "rb") as fin, open(req["stdout"], "wb") as fout, \
                open(req["stderr"], "wb") as ferr:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdin=fin, stdout=fout, stderr=ferr)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"code": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}),
              flush=True)


if __name__ == "__main__":
    main()
