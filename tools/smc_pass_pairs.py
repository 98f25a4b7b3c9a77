#!/usr/bin/env python3
"""Compare one SMC pass of two dynsparse source trees: same bits, and how fast.

    python3 tools/smc_pass_pairs.py --parent SRC --change SRC [--pairs N]

``SRC`` is a checkout's ``src`` directory.  Both trees load into one
process as separate packages.  The script first checks, at seeds 1 and 7
with N = 200, that ``smc_run`` returns the same trajectory, d path and
log evidence bits, and leaves the generator in the same state, on three
models: the criterion-9 model
(p = 1, rho = 0.9, T = 120), a p = 3 rho model and a p = 3 fixed d = 2
model.  It then times alternating N = 1000 criterion-9 passes with
``time.process_time``, the parent first in even pairs and the change
first in odd ones, both on the same seed.  It prints each side's median
and quartiles, the median of the per-pair ratios change / parent and
the change's wins.  Giving the same tree twice is an A/A run, whose
ratio shows the noise floor.  The script writes nothing under ``bench/``
or ``SRC``; it exits 1 if any pass differs.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np


def load_tree(src: str, name: str):
    """The ``dynsparse`` package under ``src``, imported as ``name``."""
    sys.dont_write_bytecode = True
    init = Path(src).resolve() / "dynsparse" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def models(pkg):
    """(label, data, config) of each model the bit check runs."""
    data9, _ = pkg.synthetic_regression(120, 1.0, np.random.default_rng(905))
    yield "criterion 9", data9, pkg.ModelConfig(
        nu=1.0, delta=0.01, gamma=1.0, alpha=0.8, sigma=1.0, p=1, rho=0.9
    )
    rng = np.random.default_rng(3)
    Xs = [rng.standard_normal((2, 3)) for _ in range(30)]
    ys = [X @ np.array([1.0, 0.0, -0.5]) + 0.5 * rng.standard_normal(2) for X in Xs]
    data3 = pkg.RegressionData(ys, Xs)
    shared = dict(nu=0.5, delta=0.3, gamma=1.0, alpha=0.5, sigma=0.5, p=3)
    yield "p=3 rho", data3, pkg.ModelConfig(**shared, rho=0.8)
    yield "p=3 d=2", data3, pkg.ModelConfig(**shared, d=2)


def same_pass(parent, change, seed: int) -> list[str]:
    """Labels of the models whose pass differs between the two trees at ``seed``."""
    differ = []
    for (label, data_a, config_a), (_, data_b, config_b) in zip(models(parent), models(change)):
        ra, rb = np.random.default_rng(seed), np.random.default_rng(seed)
        beta_a, d_a, z_a = parent.smc_run(data_a, config_a, 200, ra)
        beta_b, d_b, z_b = change.smc_run(data_b, config_b, 200, rb)
        same = (
            np.array_equal(beta_a, beta_b) and np.array_equal(d_a, d_b)
            and np.float64(z_a).tobytes() == np.float64(z_b).tobytes()
            and ra.bit_generator.state == rb.bit_generator.state
        )
        if not same:
            differ.append(f"{label} seed={seed}")
    return differ


def timed_pass(pkg, data, config, seed: int) -> float:
    rng = np.random.default_rng(seed)
    start = time.process_time()
    pkg.smc_run(data, config, 1000, rng)
    return time.process_time() - start


def quartiles(x) -> str:
    q1, q2, q3 = np.percentile(x, [25, 50, 75])
    return f"median {q2 * 1e3:.1f} ms, quartiles {q1 * 1e3:.1f}-{q3 * 1e3:.1f} ms"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent tree's src directory")
    parser.add_argument("--change", required=True, help="the changed tree's src directory")
    parser.add_argument("--pairs", type=int, default=20, help="timed pass pairs (default 20)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")

    parent = load_tree(args.parent, "dynsparse_parent")
    change = load_tree(args.change, "dynsparse_change")
    differ = [label for seed in (1, 7) for label in same_pass(parent, change, seed)]
    print("bit check:", "differs on " + ", ".join(differ) if differ else "identical")

    _, data, config = next(models(parent))
    _, data_c, config_c = next(models(change))
    timed_pass(parent, data, config, 0)  # warm both trees' lazy imports
    timed_pass(change, data_c, config_c, 0)
    times = np.empty((args.pairs, 2))
    for i in range(args.pairs):
        runs = [(0, parent, data, config), (1, change, data_c, config_c)]
        for side, pkg, d, c in runs if i % 2 == 0 else runs[::-1]:
            times[i, side] = timed_pass(pkg, d, c, 100 + i)
    ratio = times[:, 1] / times[:, 0]
    print(f"parent: {quartiles(times[:, 0])} over {args.pairs} passes")
    print(f"change: {quartiles(times[:, 1])} over {args.pairs} passes")
    print(
        f"pair ratio change/parent: median {np.median(ratio):.3f}, "
        f"change wins {int((ratio < 1.0).sum())}/{args.pairs}"
    )
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
