"""Binary-code pooled test matrices: construction, evaluation, decoding.

A round's pooled groups all have one size eta and are held as a (g, eta)
member array. Each group occupies a block of 2*ceil(log2(eta)) test rows:
the top half writes each member's within-group index in binary, most
significant bit in the lowest-numbered row, and the bottom half is the
bitwise complement of the top half. Group k's block takes rows
[k*2b, (k+1)*2b), and one singleton test row per individual follows the
g*2b group rows. Under noiseless OR-tests a block recovers the member
exactly when its group contains a single infection, and otherwise reveals
whether the group holds zero or several infections.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache

import numpy as np

from .sir import PopulationState, Status


def code_width(eta: int) -> int:
    """Bits needed to index eta items; rows per group block = 2 * code_width."""
    return max(1, (eta - 1).bit_length())


@lru_cache(maxsize=None)
def build_saffron_submatrix(eta: int) -> np.ndarray:
    """Return the 2*ceil(log2(eta)) x eta test block for a pooled group of size eta.

    Column i encodes i in binary in the top half, complemented in the bottom
    half. The returned array is a shared read-only block; copy before
    mutating.
    """
    if eta < 2:
        raise ValueError(f"a pooled group needs at least 2 members, got {eta}")
    b = code_width(eta)
    idx = np.arange(eta)
    shifts = np.arange(b - 1, -1, -1)  # MSB goes into row 0
    top = ((idx[np.newaxis, :] >> shifts[:, np.newaxis]) & 1).astype(bool)
    block = np.vstack([top, ~top])
    block.setflags(write=False)
    return block


class TestMatrix:
    """Binary pooling matrix (rows x n), kept in structured form.

    ``groups`` is a (g, eta) int64 array, shape (0, 0) when the round pools
    nothing; a member's position within its row is its codeword.
    ``single_members`` lists the individuals tested alone, one row each,
    after the ``group_rows`` rows of group code blocks.
    """

    def __init__(self, n: int, groups: np.ndarray, single_members: np.ndarray):
        self.n = n
        self.groups = groups
        self.single_members = single_members
        g, eta = groups.shape
        self.group_rows = g * 2 * code_width(eta)
        self.rows = self.group_rows + single_members.size


def assemble_matrix(n: int, groups, singles) -> TestMatrix:
    """Lay out equal-size group blocks, then singleton rows, into one TestMatrix.

    ``groups`` is a (g, eta) array or a sequence of g member sequences of
    one length eta >= 2; ragged or smaller groups raise ValueError.
    """
    if len(groups) == 0:
        members = np.empty((0, 0), dtype=np.int64)
    else:
        members = np.asarray(groups, dtype=np.int64)  # numpy rejects ragged groups
        if members.ndim != 2 or members.shape[1] < 2:
            raise ValueError(f"expected g groups of one size eta >= 2, got shape {members.shape}")
    return TestMatrix(n=n, groups=members, single_members=np.asarray(singles, dtype=np.int64))


class Verdict(IntEnum):
    """What one group's code block says about its members."""

    ALL_NEGATIVE = 0
    SINGLE = 1
    MULTIPLE = 2


@dataclass
class RoundOutcome:
    """Identifications and per-group verdicts from one testing round.

    ``identified`` holds the sorted individuals the round names, from groups
    and singleton rows alike; ``verdicts`` holds one int8 ``Verdict`` code
    per pooled group, in group order.
    """

    identified: np.ndarray
    verdicts: np.ndarray


def evaluate_tests(matrix: TestMatrix, state: PopulationState) -> np.ndarray:
    """Noiseless OR-evaluation: a test is positive iff it pools a circulating infection.

    Isolated individuals contribute negative samples.
    """
    if matrix.n != state.n:
        raise ValueError(f"matrix is for n={matrix.n}, state has n={state.n}")
    infected = state.statuses == Status.INFECTED
    singles = infected[matrix.single_members]
    if not matrix.group_rows:
        return singles
    hit = infected[matrix.groups]
    pooled = hit @ build_saffron_submatrix(hit.shape[1]).T
    return np.concatenate([pooled.ravel(), singles])


def decode_round(matrix: TestMatrix, results: np.ndarray) -> RoundOutcome:
    """Decode every group block and singleton row of one round's results.

    A group with no positive row is all-negative. A single infection lights
    a top half that spells its index, below eta, and a bottom half that is
    the complement; any other positive pattern means several infections. A
    round without groups, shape (0, 0), takes the same path and decodes to
    its positive singles and no verdicts.
    """
    results = np.asarray(results, dtype=bool)
    if results.shape != (matrix.rows,):
        raise ValueError(f"expected {matrix.rows} results, got shape {results.shape}")
    split = matrix.group_rows
    g, eta = matrix.groups.shape
    b = code_width(eta)
    blocks = results[:split].reshape(g, 2 * b)
    top = blocks[:, :b]
    index = top @ (1 << np.arange(b - 1, -1, -1))
    single = (top != blocks[:, b:]).all(axis=1) & (index < eta)
    found = matrix.groups[single, index[single]]
    verdicts = np.where(single, np.int8(Verdict.SINGLE),
                        np.where(blocks.any(axis=1), np.int8(Verdict.MULTIPLE),
                                 np.int8(Verdict.ALL_NEGATIVE)))
    positive_singles = matrix.single_members[results[split:]]
    identified = np.unique(np.concatenate([found, positive_singles]))
    return RoundOutcome(identified=identified, verdicts=verdicts)
