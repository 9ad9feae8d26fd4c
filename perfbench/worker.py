"""One benchmark iteration in a fresh interpreter; ``run.py`` starts it.

Importing ``lisnet.cli`` comes first, so that the recorded set-up time runs
from the parent's spawn until that import returns and nothing else.
"""

import sys
import time

import lisnet.cli  # noqa: F401

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

from iteration import main  # noqa: E402

sys.exit(main(sys.argv[1:], IMPORTED))
