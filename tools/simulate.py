#!/usr/bin/env python
"""Run ``python -m repro.tools.simulate`` from a checkout (no install)."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from repro.tools.simulate import main  # noqa: E402

sys.exit(main())
