"""numpy, loaded on first attribute access.

The whole-space code takes `np` from here: `rank_strata` and `classify`
when they are imported, and the numpy helpers of `tensor` and
`group_action` when they run.  An already imported numpy is used as it
is; otherwise a lazy module stands in sys.modules and runs numpy's own
import the first time an attribute is read.  So `import symcanon` and
the five one-tensor queries (rank, decompose, canon, orbit and
stabilizer) never import this module, and never pay for numpy.
"""

import sys

np = sys.modules.get("numpy")
if np is None:
    import importlib.util

    _spec = importlib.util.find_spec("numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)
