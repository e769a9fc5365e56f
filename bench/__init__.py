"""End-to-end + per-layer benchmark of the reproduction (see ``bench/README.md``).

``python -m bench run`` measures four workloads from outside the
program, untraced for the end-to-end metrics and traced for the
per-layer ones; ``python -m bench compare A B`` diffs two result sets.
The metric names, units and regression bounds are declared in the
root ``BENCHMARK.json``.
"""

from pathlib import Path

#: The checkout: ``BENCHMARK.json`` and the program's ``src/`` sit here.
ROOT = Path(__file__).resolve().parent.parent
