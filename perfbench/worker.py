"""``repro campaign worker`` that samples the host's speed after each point.

Usage: ``python worker.py SAMPLES_DIR campaign worker --connect HOST:PORT``.
The arguments after ``SAMPLES_DIR`` go to the CLI unchanged; the only
difference from ``python -m repro`` is the ``hostspeed.Calibrator``
installed first, whose samples the measuring process collects from
``SAMPLES_DIR``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import hostspeed

if __name__ == "__main__":
    from repro.cli import main

    hostspeed.Calibrator(Path(sys.argv[1])).install()
    sys.exit(main(sys.argv[2:]))
