"""Train the four models of the `train` workload in a process of their own.

    python3 benchmarks/retrain.py <train.conllu> <out-dir>

writes `<out-dir>/child-<kind>.model` for every kind.  The `train`
workload runs it with another PYTHONHASHSEED than its own and checks
that the files match the ones it trained, byte for byte.
"""

import sys
from pathlib import Path

TAG = "child"

if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    corpus, out_dir = Path(sys.argv[1]), Path(sys.argv[2])
    for kind, template in workloads.TRAIN_KINDS:
        workloads.train_one(corpus, kind, template, out_dir / f"{TAG}-{kind.value}.model")
