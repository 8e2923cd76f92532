"""Seeded input generation for the benchmark workloads.

Everything here runs before timing starts and outside ``setup_s``. The
same seed always yields the same inputs; the program under test only
ever sees the generated frames and CSV files.
"""

from __future__ import annotations

import pickle
from pathlib import Path

PAPER_DATASETS = ("nasa", "beers", "hospital", "adult", "flights")

#: Rows per ``bulk_versions`` slice and slice count (40 x 1000 = 40k rows).
BULK_SLICE_ROWS = 1000
BULK_SLICES = 40
#: Columns of the bulk table: four hospital-shaped (strings, a zip code
#: written as digits, an integer score) and three beers-shaped (two
#: floats and a categorical label).
BULK_HOSPITAL_COLUMNS = ("City", "ZipCode", "Condition", "Score")
BULK_BEERS_COLUMNS = ("abv", "ibu", "style")
#: Error profile of the bulk table: the union of the hospital and beers
#: default profiles, so both its string and numeric columns carry errors.
BULK_PROFILE = {
    "missing_rate": 0.035,
    "outlier_rate": 0.03,
    "disguised_rate": 0.02,
    "typo_rate": 0.04,
    "swap_rate": 0.03,
}


def paper_inputs(seed: int, names=PAPER_DATASETS) -> list[dict]:
    """Bundled datasets at paper size, corrupted with ``seed``."""
    from repro.ingestion import make_dirty

    out = []
    for name in names:
        index = PAPER_DATASETS.index(name)
        bundle = make_dirty(name, seed=seed * 100 + index)
        out.append(
            {
                "name": name,
                "task": bundle.task,
                "target": bundle.target,
                "clean": bundle.clean,
                "dirty": bundle.dirty,
                "mask": sorted(bundle.mask),
            }
        )
    return out


def bulk_input(seed: int) -> dict:
    """A ~40k-row hospital- and beers-shaped table with known errors.

    Built by stacking paper-size slices, each corrupted by its own
    ``ErrorInjector``: injecting into the whole table at once is
    quadratic in the row count, because the injector rescans a column
    for every outlier it plants.
    """
    from repro.dataframe import DataFrame
    from repro.ingestion import ErrorInjector
    from repro.ingestion.datasets import beers, hospital

    clean_parts: dict[str, list] = {}
    dirty_parts: dict[str, list] = {}
    mask: list[tuple[int, str]] = []
    for part in range(BULK_SLICES):
        base = seed * 1000 + part * 2
        left = hospital(n_rows=BULK_SLICE_ROWS, seed=base)
        right = beers(n_rows=BULK_SLICE_ROWS, seed=base + 1)
        columns = {name: left.column(name).values() for name in BULK_HOSPITAL_COLUMNS}
        for name in BULK_BEERS_COLUMNS:
            columns[name] = right.column(name).values()
        offset = part * BULK_SLICE_ROWS
        clean = DataFrame.from_dict(columns)
        injector = ErrorInjector(seed=base, **BULK_PROFILE)
        dirty, cells_by_type = injector.inject(clean)
        for cells in cells_by_type.values():
            mask.extend((offset + row, column) for row, column in cells)
        for name in clean.column_names:
            clean_parts.setdefault(name, []).extend(clean.column(name).values())
            dirty_parts.setdefault(name, []).extend(dirty.column(name).values())
    return {
        "name": "bulk",
        "clean": DataFrame.from_dict(clean_parts),
        "dirty": DataFrame.from_dict(dirty_parts),
        "mask": sorted(mask),
    }


def write_inputs(workload: str, seed: int, directory: Path) -> Path:
    """Generate the inputs of ``workload`` into ``directory``.

    Returns the path of the pickle the measured process loads. The
    ``bulk_versions`` and ``rest_dashboard`` workloads also get their
    dirty table as a CSV file, which is what they upload.
    """
    from repro.dataframe import write_csv

    directory.mkdir(parents=True, exist_ok=True)
    if workload == "paper_loop":
        payload: object = paper_inputs(seed)
    elif workload == "bulk_versions":
        payload = bulk_input(seed)
        write_csv(payload["dirty"], directory / "bulk.csv")
    elif workload == "rest_dashboard":
        payload = paper_inputs(seed, names=("beers",))[0]
        write_csv(payload["dirty"], directory / "beers.csv")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    path = directory / "inputs.pkl"
    with open(path, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
    return path


def load_inputs(path: Path):
    """Load what :func:`write_inputs` wrote (only ever our own pickle)."""
    with open(path, "rb") as handle:
        return pickle.load(handle)
