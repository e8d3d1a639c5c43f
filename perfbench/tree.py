"""Run ``repro serve`` with the per-layer wrappers installed first.

The traced serve runs start their tree as::

    python3 perfbench/tree.py LOG serve --workers 2 --jobs 1 ...

The wrappers are in place before the router forks its shards. The
router's own span tracer is switched on here, because ``repro serve``
turns tracing on only in its shards (``--trace-spans``, added below), so
every process of the tree writes its spans to LOG.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))
    import layers
    from repro.cli import main
    from repro.obs import TRACER

    log, argv = sys.argv[1], sys.argv[2:]
    layers.install()
    TRACER.configure(log)
    sys.exit(main([*argv, "--trace-spans", log]))
