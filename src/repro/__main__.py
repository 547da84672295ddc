"""Entry point for ``python -m repro``.

Library errors and unreadable files end the process with one
``repro: <error>`` line on stderr and exit status 2; :func:`main`
itself still raises, for callers that drive the CLI in-process.
"""

import sys

from repro.cli import main
from repro.common.errors import ReproError

try:
    status = main()
except (ReproError, OSError) as error:
    print(f"repro: {error}", file=sys.stderr)
    status = 2
sys.exit(status)
