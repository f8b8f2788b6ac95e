"""Set-up probe: import conedyn and build every registry system and its field.

Usage: python3 bench/setup_probe.py SRC_DIR

Prints ``time.perf_counter()`` once the set-up is done.  The parent reads
the same monotonic clock before it starts this interpreter, so the
difference is the set-up time from a fresh interpreter.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])

from conedyn import registry  # noqa: E402

for _name in sorted(registry.SYSTEMS):
    registry.default_field(registry.get_system(_name))
print(repr(time.perf_counter()))
