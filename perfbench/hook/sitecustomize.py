"""Start-up hook of the benchmark's traced run.

The benchmark puts this directory on ``PYTHONPATH`` only for traced
program processes; with ``$PERFBENCH_TRACE_DIR`` set, every interpreter
started there (and every worker it forks) records spans into it.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import spantrace

    spantrace.install(os.environ["PERFBENCH_TRACE_DIR"])
