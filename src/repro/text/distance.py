"""String distance metrics.

The paper (Section IV-B2) generates value candidates by scanning the
database for values whose *Damerau-Levenshtein* distance to an extracted
question span is below a threshold, chosen "because of its good trade-off
between accuracy and run time".  Two kernels:

* :func:`damerau_levenshtein` — edit distance with adjacent transpositions
  (the metric the paper uses),
* :func:`damerau_levenshtein_banded` — Ukkonen-banded O(k·n) variant that
  only fills the 2k+1 diagonal band; exact for distances <= k (the
  per-pair reference for the batched kernel the value search runs,
  :meth:`repro.index.blocking.BlockedValuePool.distances`).

Both operate on plain strings and are pure.  The similarity scan over
database values does not call them pair by pair: it blocks and verifies
in bulk (see :mod:`repro.index.blocking`).  They are the oracles its
tests hold that array code to.
"""

from __future__ import annotations


def damerau_levenshtein(a: str, b: str, *, max_distance: int | None = None) -> int:
    """Damerau-Levenshtein distance (restricted, with adjacent transpositions).

    >>> damerau_levenshtein("ca", "ac")
    1
    >>> damerau_levenshtein("jfk", "jkf")
    1
    """
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if max_distance is not None and abs(len(a) - len(b)) > max_distance:
        return max_distance + 1

    two_back: list[int] | None = None
    one_back = list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        current = [i]
        row_min = i
        for j in range(1, len(b) + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            value = min(
                one_back[j] + 1,        # deletion
                current[j - 1] + 1,     # insertion
                one_back[j - 1] + cost,  # substitution
            )
            if (
                two_back is not None
                and j >= 2
                and a[i - 1] == b[j - 2]
                and a[i - 2] == b[j - 1]
            ):
                value = min(value, two_back[j - 2] + 1)  # transposition
            current.append(value)
            row_min = min(row_min, value)
        if max_distance is not None and row_min > max_distance:
            return max_distance + 1
        two_back, one_back = one_back, current
    return one_back[-1]


def damerau_levenshtein_banded(a: str, b: str, *, max_distance: int) -> int:
    """Damerau-Levenshtein distance restricted to the 2k+1 diagonal band.

    Ukkonen's observation: an alignment of cost <= k never strays more
    than k cells from the main diagonal (each unit of |i - j| skew costs
    at least one insertion or deletion), so only O(k·n) cells of the DP
    matrix need to be filled.  The result is exact whenever the true
    distance is <= ``max_distance``; otherwise ``max_distance + 1`` is
    returned (same sentinel contract as :func:`damerau_levenshtein` with
    its early-exit bound).

    >>> damerau_levenshtein_banded("kitten", "sitting", max_distance=3)
    3
    >>> damerau_levenshtein_banded("jfk", "jkf", max_distance=2)
    1
    >>> damerau_levenshtein_banded("abcdef", "uvwxyz", max_distance=2)
    3
    """
    if max_distance < 0:
        raise ValueError(f"max_distance must be >= 0, got {max_distance}")
    if a == b:
        return 0
    k = max_distance
    cap = k + 1
    la, lb = len(a), len(b)
    if abs(la - lb) > k:
        return cap
    if not a or not b:
        longest = max(la, lb)
        return longest if longest <= k else cap

    # Rows are full-length but only cells with |i - j| <= k are computed;
    # everything else stays at the cap sentinel (any value > k behaves
    # identically, so intermediate results are clamped to the cap too).
    two_back: list[int] | None = None
    one_back = [j if j <= k else cap for j in range(lb + 1)]
    for i in range(1, la + 1):
        current = [cap] * (lb + 1)
        if i <= k:
            current[0] = i
        row_min = current[0]
        lo = max(1, i - k)
        hi = min(lb, i + k)
        for j in range(lo, hi + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            value = min(
                one_back[j] + 1,        # deletion
                current[j - 1] + 1,     # insertion
                one_back[j - 1] + cost,  # substitution
            )
            if (
                two_back is not None
                and j >= 2
                and a[i - 1] == b[j - 2]
                and a[i - 2] == b[j - 1]
            ):
                value = min(value, two_back[j - 2] + 1)  # transposition
            if value > cap:
                value = cap
            current[j] = value
            if value < row_min:
                row_min = value
        if row_min > k:
            return cap
        two_back, one_back = one_back, current
    return one_back[lb] if one_back[lb] <= k else cap
