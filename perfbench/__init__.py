"""End-to-end pipeline benchmark with an outside-in per-layer trace.

Run one workload with::

    python3 perfbench/run.py --workload mitigate --seed 1 --seconds 25 --trace 0

``--trace 0`` times the workload's public entry point and prints the
end-to-end metrics; ``--trace 1`` runs the same pipeline serially with
spans around every call into a layer and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See
``perfbench/README.md`` for the metric definitions.
"""
