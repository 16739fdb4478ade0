"""``python -m repro`` entry point: a library error or a bad path
prints as one ``repro: error:`` line on stderr and exits 2, like a usage
error."""

import sys

from .cli import main
from .errors import ReproError

try:
    code = main()
except (ReproError, OSError) as exc:
    print("repro: error: %s" % (exc,), file=sys.stderr)
    code = 2
sys.exit(code)
