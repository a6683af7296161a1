"""Command-line interface: ``repro <command>``.

Commands:

* ``generate`` — synthesise per-region traces and save them to disk;
* ``analyze``  — summarise a saved (or freshly generated) study;
* ``figures``  — render paper figures as ASCII;
* ``fit``      — fit the paper's LogNormal / Weibull distributions;
* ``validate`` — integrity-check a saved trace bundle;
* ``calibrate``— check generated traces against the paper's shape targets;
* ``mitigate`` — replay a region under the §5 mitigation policies.

The entry point is :func:`repro.cli.main.main`, run as ``python -m
repro.cli.main``. It is not re-exported here: importing it from this
package would make ``-m`` warn that the module is already imported.
"""
