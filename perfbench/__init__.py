"""The pmlm benchmark: timed, checked workloads with end-to-end and per-layer metrics.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; ``python3 perfbench/repeat.py`` runs it over
several seeds and summarises the spread. See ``perfbench/README.md``.
"""
