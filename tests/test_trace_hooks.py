"""The benchmark's tracer still finds every package name it reads.

`perfbench/tracing.py` wraps package functions by attribute name and reads
`homology.DENSE_THRESHOLD` on every modular rank; a renamed or removed
name would otherwise show only in a traced benchmark run. The wrappers
replace names in `syzcheck.npchecker`, so its block runner must look
`build_slice` and `reduced_betti` up at call time, and the store's `put`
must take (n, d, ...) first, as the tracer sizes the file it appends to
from them. This runs a small traced round in a fresh interpreter, with
`perfbench/` on its path as the benchmark puts it, and reads `perfbench/`
without changing it.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ROUND = """
from syzcheck import npchecker, reptheory
from tracing import LAYER_UNITS, Tracer, layer_metrics

tracer = Tracer()
tracer.install()
npchecker.check_np(npchecker.NpQuery(n=2, d=2, p=2))
npchecker.check_np(npchecker.NpQuery(n=2, d=2, p=2, store_path="store"))
npchecker.cross_validate(1, 3, 1, 1)
reptheory.tor_schur_decomposition(1, 1, 2, 2)
metrics = layer_metrics(tracer.spans)
assert list(metrics) == list(LAYER_UNITS), sorted(set(LAYER_UNITS) ^ set(metrics))
# koszul.tor_dimension hands middle_homology the Koszul rank name
for name in ("homology.rank_exact_calls", "koszul.maps", "koszul.rank_exact_calls"):
    assert metrics[name]["value"] > 0, name
# every rank is exact: no certificate ranks modulo a prime
for name in ("homology.rank_mod_p_calls", "koszul.rank_mod_p_s"):
    assert metrics[name]["value"] == 0, name
# the store's get and put still take the arguments the tracer reads
for name in ("npchecker.store_bytes", "npchecker.store_s"):
    assert metrics[name]["value"] > 0, name
# the Schur peel is still reached under the names the tracer wraps
assert metrics["reptheory.decompose_s"]["value"] > 0
# check_np and cross_validate still enumerate through the wrapped name
assert metrics["lattice.enumerate_s"]["value"] > 0
# the homology side of cross_validate still reaches the wrapped names
under = {s.name for s in tracer.spans
         if s.parent is not None and s.parent.name == "npchecker.cross_validate"}
for name in ("complexes.build_slice", "homology.reduced_betti"):
    assert name in under, name
"""


def test_traced_round_reports_every_layer(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", ROUND], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
