"""The benchmark's tracer still finds every package name it reads.

`perfbench/tracing.py` wraps package functions by attribute name and reads
`homology.DENSE_THRESHOLD` on every modular rank; a renamed or removed
name would otherwise show only in a traced benchmark run. This runs a
small traced round in a fresh interpreter, with `perfbench/` on its path
as the benchmark puts it, and reads `perfbench/` without changing it.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ROUND = """
from syzcheck import npchecker
from tracing import LAYER_UNITS, Tracer, layer_metrics

tracer = Tracer()
tracer.install()
npchecker.check_np(npchecker.NpQuery(n=2, d=2, p=2))
npchecker.cross_validate(1, 3, 1, 1)
metrics = layer_metrics(tracer.spans)
assert list(metrics) == list(LAYER_UNITS), sorted(set(LAYER_UNITS) ^ set(metrics))
for name in ("homology.rank_mod_p_calls", "homology.rank_exact_calls", "koszul.maps"):
    assert metrics[name]["value"] > 0, name
"""


def test_traced_round_reports_every_layer(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", ROUND], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
