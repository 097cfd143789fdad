"""Set-up probe: build one workload's scheme, params and prover, then say so.

    python3 perfbench/setup_probe.py WORKLOAD
    python3 perfbench/setup_probe.py --reference

run.py times this process from its start until the "ready" line, so the
figure covers interpreter start, `import ivpoq` (numpy included),
`make_scheme`, `ProtocolParams` and prover construction.  With
--reference the probe only imports numpy: the same interpreter start and
the bulk of the import work, with nothing of ivpoq, to measure the
host's speed at that moment.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402

if sys.argv[1] == "--reference":
    import numpy  # noqa: F401
else:
    wl.use_checkout_sources(os.getcwd())
    wl.build(wl.WORKLOADS[sys.argv[1]])
print("ready", flush=True)
