"""Generate the workloads' inputs from a seed.

    python3 perfbench/inputs.py --seed 7 --out DIR

writes DIR/<workload>/inputs.json, and the problem file the workload
reads, if any, for every workload.  The same seed gives the same files.

Every pass of a run solves the workload's nominal lambdas, each moved by
a fresh relative jitter of at most JITTER.  A fresh lambda per pass keeps
the lambda-keyed cutoff cache in `solver.py` from being hit by a repeat
that a user with a new lambda would miss.  The jitter is small enough
that the automatic grid size N stays the one the nominal lambda gives
(N is the power of two above about 44 lambda; the nominal values sit at
0.87 N or below), so every pass does the same amount of work.
"""

import argparse
import json
import pathlib
import zlib

import numpy as np

import reference as ref

JITTER = 5e-4
MAX_PASSES = 200

WORKLOADS = {
    "solve-ladder": {"nominal": [20.0, 80.0, 320.0, 1280.0],
                     "problem": None},
    "verify-oracle": {"nominal": [320.0],
                      "problem": {"q": ref.Q_EXPR, "dq": ref.DQ_EXPR,
                                  "d2q": ref.D2Q_EXPR}},
    "sweep-cli": {"nominal": [20.0, 40.0, 80.0, 160.0, 320.0],
                  "problem": {"q": ref.Q_EXPR}},
}

PROBLEM_FILE = "problem.json"


def schedule(workload, seed):
    """Lambda list for each of MAX_PASSES passes; pass 0 is the warm-up."""
    nominal = np.asarray(WORKLOADS[workload]["nominal"])
    stream = zlib.crc32(workload.encode())
    rng = np.random.default_rng([int(seed), stream])
    jitter = JITTER * (2.0 * rng.random((MAX_PASSES, nominal.size)) - 1.0)
    lams = nominal * (1.0 + jitter)
    if np.unique(lams).size != lams.size:
        raise ValueError("lambda schedule repeats a value")
    return lams.tolist()


def generate(workload, seed, out_dir):
    """Write the inputs of one workload under out_dir and return the
    parsed inputs.json."""
    spec = WORKLOADS[workload]
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = {
        "workload": workload,
        "seed": int(seed),
        "a": ref.A, "b": ref.B, "extension_width": ref.WIDTH,
        "nominal": spec["nominal"],
        "passes": schedule(workload, seed),
        "problem": None,
    }
    if spec["problem"] is not None:
        if ref.expression_error() > 1e-13:
            raise ValueError("expression strings disagree with the closed forms")
        problem = dict(spec["problem"], a=ref.A, b=ref.B,
                       extension_width=ref.WIDTH)
        path = out_dir / PROBLEM_FILE
        path.write_text(json.dumps(problem, indent=2) + "\n")
        inputs["problem"] = str(path)
    (out_dir / "inputs.json").write_text(json.dumps(inputs, indent=1) + "\n")
    return inputs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    for name in sorted(WORKLOADS):
        generate(name, args.seed, pathlib.Path(args.out) / name)
        print(f"{name}: {pathlib.Path(args.out) / name}")


if __name__ == "__main__":
    main()
