"""The benchmark's workloads, each a run config derived from configs/full.json.

The workload seed reaches the program only as the config ``seed``; every
other field comes from the shipped full config, so a workload follows the
catalog users run.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

FULL_CONFIG = Path("configs") / "full.json"
PRODUCT_KINDS = ("product-S1xS2", "product-S1xS3")

# name -> (suites or None for all, backend kinds or None for all, threads)
WORKLOADS = {
    "product-identities": (("weak-identity", "4d-identity", "total-q"),
                           PRODUCT_KINDS, 1),
    "sphere-catalog": (None, ("sphere",), 1),
    "full-catalog-2t": (None, None, 2),
}


def load_full_config(root: Path) -> dict:
    with open(root / FULL_CONFIG) as fh:
        return json.load(fh)


def workload_config(full: dict, name: str, seed: int) -> dict:
    """The raw run config of workload ``name`` at workload seed ``seed``."""
    suites, kinds, _ = WORKLOADS[name]
    cfg = copy.deepcopy(full)
    if suites is not None:
        cfg["suites"] = [s for s in cfg["suites"] if s in suites]
    if kinds is not None:
        cfg["catalog"] = [r for r in cfg["catalog"] if r["kind"] in kinds]
    cfg["seed"] = seed
    cfg.pop("out_dir", None)
    return cfg


def workload_threads(name: str) -> int:
    return WORKLOADS[name][2]
