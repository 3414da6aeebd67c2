"""Time ``import fanolab.cli`` module by module; prints one JSON object.

    PYTHONPATH=src python3 perfbench/importprobe.py

``python -X importtime`` only sees imports made by the import statement,
and scipy loads ``scipy.stats`` and ``scipy.integrate`` lazily through
``importlib.import_module``, which it does not log. Both routes go through
``importlib._bootstrap._find_and_load``, so this probe times that instead:
for every module loaded it records the cumulative time (with everything it
imported) and the self time (without).
"""

import importlib._bootstrap as bootstrap
import json
import sys
import time

cumulative: dict[str, float] = {}
own: dict[str, float] = {}
_children = [0.0]
_find_and_load = bootstrap._find_and_load


def _timed_find_and_load(name, import_):
    if name in sys.modules:
        return _find_and_load(name, import_)
    _children.append(0.0)
    t0 = time.perf_counter()
    try:
        return _find_and_load(name, import_)
    finally:
        dur = time.perf_counter() - t0
        inner = _children.pop()
        _children[-1] += dur
        cumulative.setdefault(name, dur)
        own.setdefault(name, dur - inner)


bootstrap._find_and_load = _timed_find_and_load
t0 = time.perf_counter()
import fanolab.cli  # noqa: E402,F401

total = time.perf_counter() - t0
bootstrap._find_and_load = _find_and_load
print(json.dumps({
    "import.numpy_s": cumulative.get("numpy", 0.0),
    "import.scipy_stats_s": cumulative.get("scipy.stats", 0.0),
    "import.scipy_integrate_s": cumulative.get("scipy.integrate", 0.0),
    "import.fanolab_s": sum(v for k, v in own.items()
                            if k == "fanolab" or k.startswith("fanolab.")),
    "total_s": total,
}))
