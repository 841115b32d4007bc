"""numpy, loaded on first attribute access.

The whole-space modules take `np` from here.  An already imported numpy is
used as it is; otherwise a lazy module stands in sys.modules and runs
numpy's own import the first time an attribute is read, so `import
symcanon` and the one-tensor orbit queries never pay for it.
"""

import sys

np = sys.modules.get("numpy")
if np is None:
    import importlib.util

    _spec = importlib.util.find_spec("numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)
