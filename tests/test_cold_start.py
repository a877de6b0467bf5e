"""Cold-start contract: scipy loads only where a k-d tree is built.

Grid-only work (importing the package, and gen, train, infer and mesh
on SDF grids) never imports scipy; point clouds, mesh ground truth and
eval build k-d trees and import it on first use. Each check runs in a
fresh interpreter, since the test process has scipy loaded already.
"""

import json
import os
import subprocess
import sys

from ndcmesh.cli import cli_main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Runs each argv list of sys.argv[1] through cli_main and prints, as its
# last stdout line, whether scipy was loaded after each import and call.
PROBE = """
import json, sys
loaded = []
import ndcmesh
loaded.append(["import ndcmesh", "scipy" in sys.modules])
from ndcmesh.cli import cli_main
loaded.append(["import ndcmesh.cli", "scipy" in sys.modules])
for argv in json.loads(sys.argv[1]):
    assert cli_main(argv) == 0, argv
    loaded.append([argv[0], "scipy" in sys.modules])
print(json.dumps(loaded))
"""


def scipy_loaded(calls: list, cwd) -> list:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", PROBE, json.dumps(calls)], cwd=cwd, env=env,
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_the_package_and_an_sdf_chain_never_import_scipy(tmp_path):
    calls = [
        ["gen", "--out", "d", "--res", "12", "--seed", "3"],
        ["train", "--data", "d", "--head", "signs", "--steps", "2", "--channels", "8"],
        ["train", "--data", "d", "--head", "vertices", "--steps", "2", "--channels", "8"],
        ["infer", "--weights", "d/sdf_s.ndcw", "--weights", "d/sdf_v.ndcw",
         "--grid", "d/sample_000/input.ndcg", "--out-prefix", "d/pred"],
        ["mesh", "--data", "d", "--mode", "ndc"],
    ]
    loaded = scipy_loaded(calls, tmp_path)
    assert [step for step, _ in loaded] == (["import ndcmesh", "import ndcmesh.cli"]
                                            + [argv[0] for argv in calls])
    assert not any(flag for _, flag in loaded), loaded


def test_infer_on_a_cloud_imports_scipy_for_its_k_d_tree(tmp_path):
    data = str(tmp_path / "p")
    assert cli_main(["gen", "--out", data, "--kind", "points", "--res", "12",
                     "--cloud-size", "256"]) == 0
    assert cli_main(["train", "--data", data, "--head", "flags", "--steps", "1",
                     "--channels", "8"]) == 0
    calls = [["infer", "--weights", "p/pc_f.ndcw", "--cloud", "p/sample_000/cloud.xyz",
              "--res", "12", "--out-prefix", "p/pred"]]
    loaded = scipy_loaded(calls, tmp_path)
    assert loaded == [["import ndcmesh", False], ["import ndcmesh.cli", False],
                      ["infer", True]]
