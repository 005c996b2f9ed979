"""pastnet runs on numpy alone: no module of scipy is loaded, even when asked for."""
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# refuses every scipy import, then runs a tiny synth -> mask -> train -> impute
# through the CLI, which passes through both branches' sigmoid and gim's
# backward, and lists the scipy modules left in sys.modules
GUARDED_RUN = textwrap.dedent("""
    import importlib.abc, json, os, sys

    class RefuseScipy(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name.startswith("scipy"):
                raise ImportError(f"{name} is refused")
            return None

    sys.meta_path.insert(0, RefuseScipy())
    import pastnet, pastnet.cli, pastnet.harness

    work = sys.argv[1]
    data, values, graph, mask, ckpt, imputed = (
        os.path.join(work, f) for f in
        ("data", "data/values.csv", "data/graph.json", "mask.csv", "model.ckpt", "imputed.csv"))
    commands = [
        ["synth", "--out-dir", data, "--nodes", "5", "--days", "2", "--seed", "1"],
        ["mask", "--values", values, "--kind", "random", "--rate", "0.3", "--seed", "0",
         "--out", mask],
        ["train", "--values", values, "--graph", graph, "--mask", mask, "--out", ckpt,
         "--window", "24", "--dim", "8", "--layers", "1", "--order", "1", "--epochs", "1",
         "--batch-size", "8", "--seed", "0"],
        ["impute", "--checkpoint", ckpt, "--values", values, "--graph", graph, "--mask", mask,
         "--out", imputed],
    ]
    codes = [pastnet.cli.main(argv) for argv in commands]
    print(json.dumps({"codes": codes,
                      "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
""")


def test_pastnet_imports_and_runs_without_scipy(tmp_path):
    child = subprocess.run(
        [sys.executable, "-c", GUARDED_RUN, str(tmp_path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert child.returncode == 0, child.stderr[-2000:]
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert result == {"codes": [0, 0, 0, 0], "scipy": []}
    assert (tmp_path / "imputed.csv").stat().st_size > 0
