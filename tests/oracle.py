"""Code that only the tests use, kept out of the package: a reader of the CLI's CSV format."""

import numpy as np

from sirpool.cli import CSV_HEADER


def read_csv(path: str) -> dict[str, np.ndarray]:
    """Parse a file written by write_csv back into per-column arrays.

    The theory_lambda array is empty when the column was not populated.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {header!r}")
        columns: dict[str, list[float]] = {name: [] for name in header.split(",")}
        for line in fh:
            cells = line.rstrip("\n").split(",")
            for name, cell in zip(columns, cells):
                if cell != "":
                    columns[name].append(float(cell))
    return {name: np.asarray(values) for name, values in columns.items()}
