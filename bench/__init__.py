"""The repo's end-to-end, per-layer wall-clock benchmark.

Four named workloads run at default switches against the program under
``src/``; every layer is timed from outside by wrapping its public
callables for the duration of a traced pass (:mod:`bench.trace`).
``BENCHMARK.json`` at the repository root names the metrics, their units,
directions and regression bounds; ``bench/README.md`` is the glossary.

Run one workload the way the driver does::

    python3 -m bench --workload paper_shapes --seed 1 --seconds 20 --trace 0

or all four, timed and traced, each in a fresh subprocess::

    python3 -m bench --seed 1
"""
