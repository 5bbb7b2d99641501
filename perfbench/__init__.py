"""End-to-end and per-layer benchmark of the twofluid command line.

Run ``python3 perfbench/run.py --workload <name>`` from the repository root;
see README.md in this directory.
"""
