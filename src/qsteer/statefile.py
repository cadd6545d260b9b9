"""Reading and writing density matrices as JSON state files.

Format: {"dims": [dA, dB], "matrix": [[[re, im], ...], ...]} with row-major
entries. Floats are written with repr precision, so a write/read round trip
reproduces every entry exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ValidationError, WrongDimension
from .qcore import DensityMatrix, validate_density


def state_to_dict(state: DensityMatrix) -> dict:
    return {
        "dims": list(state.dims),
        "matrix": [
            [[float(np.real(x)), float(np.imag(x))] for x in row]
            for row in state.matrix
        ],
    }


def state_from_dict(doc: dict) -> DensityMatrix:
    try:
        dims = [int(d) for d in doc["dims"]]
        rows = doc["matrix"]
        matrix = np.array([[complex(re, im) for re, im in row] for row in rows])
    except (KeyError, TypeError, ValueError) as exc:
        raise WrongDimension(f"malformed state document: {exc}") from exc
    return validate_density(matrix, dims)


def save_state(state: DensityMatrix, path) -> None:
    Path(path).write_text(json.dumps(state_to_dict(state), indent=1) + "\n")


def load_state(path) -> DensityMatrix:
    try:
        doc = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"not a valid state file: {exc}") from exc
    return state_from_dict(doc)
