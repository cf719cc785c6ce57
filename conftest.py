"""Loads, for every test directory, the lossmix modules the benchmark's
tracer patches.

`from lossmix import cli` loads only the modules the `train` command runs;
each other command imports its own module when it runs.
`perfbench/tests`' lab_passes fixture reads every module in
`spantrace.LAYERS` from `sys.modules` right after that import, so it relies
on them being loaded already. `spantrace.Tracer.install` loads them by
importing `lossmix.verify`, which imports every module it checks; the same
import here makes that hold when `perfbench/tests` runs on its own.
"""

import lossmix.verify  # noqa: F401
