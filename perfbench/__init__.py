"""Smol-Bench: wall-clock benchmark of the real decode -> preprocess -> DNN -> serve path.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root; see ``perfbench/README.md``.
"""
