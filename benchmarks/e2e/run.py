"""Run the benchmark as a script, from any working directory:

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Same options as ``python -m benchmarks.e2e``; the repo root is found
from this file's location.
"""

import sys
from pathlib import Path

# Import the package from the repo root, not this script's directory.
sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.e2e.cli import main  # noqa: E402

sys.exit(main())
