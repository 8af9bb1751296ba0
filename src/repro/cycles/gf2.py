"""GF(2) linear algebra on bitmask integers.

The cycle space of a graph is a vector space over GF(2); we represent its
elements as arbitrary-precision Python integers used as bitmasks.  XOR is
vector addition, and Gaussian elimination reduces to a pivot-indexed
dictionary of reduced rows.  CPython's big-integer XOR runs in C, which makes
this representation the fastest pure-Python option by a wide margin while
vectors are short.  Over a whole graph's ``nu``-dimensional cycle space
a reduced row is a handful of set bits in a ``nu``-bit int, so there
:class:`GF2Basis` takes sparse frozensets of ids instead (``lead_of=max``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional


class GF2Basis:
    """An incrementally built, pivot-reduced basis of GF(2) vectors.

    Rows are stored indexed by their lead, ``lead_of(row)``: by default
    ``int.bit_length`` on bitmask ints (the highest set bit, counted
    from 1).  Any vectors closed under ``^`` and falsy only at zero
    work, given a lead that is distinct for reduced rows — e.g.
    frozensets of positive ids with ``lead_of=max``.  ``add`` performs
    one step of online Gaussian elimination.
    """

    __slots__ = ("_pivots", "_lead")

    def __init__(
        self,
        vectors: Iterable[Any] = (),
        lead_of: Callable[[Any], int] = int.bit_length,
    ) -> None:
        self._pivots: Dict[int, Any] = {}
        self._lead = lead_of
        for vec in vectors:
            self.add(vec)

    @classmethod
    def from_pivots(
        cls, rows: Iterable[Any], lead_of: Callable[[Any], int] = int.bit_length
    ) -> "GF2Basis":
        """A basis over already pivot-reduced rows (distinct leads).

        Falsy entries are skipped, so a flat pivot array indexed by
        lead can be handed over as is.
        """
        basis = cls(lead_of=lead_of)
        basis._pivots = {lead_of(row): row for row in rows if row}
        return basis

    @property
    def rank(self) -> int:
        """Dimension of the span of all vectors added so far."""
        return len(self._pivots)

    def reduce(self, vector: Any) -> Any:
        """Reduce ``vector`` against the basis; the residue is returned.

        A zero (falsy) residue means the vector lies in the span of the
        basis.
        """
        pivots = self._pivots
        lead_of = self._lead
        while vector:
            row = pivots.get(lead_of(vector))
            if row is None:
                break
            vector ^= row
        return vector

    def add(self, vector: Any) -> bool:
        """Insert ``vector``; return ``True`` iff it increased the rank."""
        residue = self.reduce(vector)
        if not residue:
            return False
        self._pivots[self._lead(residue)] = residue
        return True

    def contains(self, vector: Any) -> bool:
        """``True`` iff ``vector`` is in the span of the basis."""
        return not self.reduce(vector)

    def vectors(self) -> List[Any]:
        """The reduced basis rows (one per pivot)."""
        return list(self._pivots.values())

    def copy(self) -> "GF2Basis":
        clone = GF2Basis(lead_of=self._lead)
        clone._pivots = dict(self._pivots)
        return clone

    def __len__(self) -> int:
        return len(self._pivots)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GF2Basis(rank={self.rank})"


def gf2_rank(vectors: Iterable[int]) -> int:
    """Rank of a collection of GF(2) bitmask vectors."""
    return GF2Basis(vectors).rank


def gf2_in_span(vector: int, vectors: Iterable[int]) -> bool:
    """Is ``vector`` a GF(2) linear combination of ``vectors``?"""
    return GF2Basis(vectors).contains(vector)


def gf2_solve(target: int, vectors: List[int]) -> Optional[List[int]]:
    """Express ``target`` as a XOR of a subset of ``vectors``.

    Returns the indices of the chosen subset, or ``None`` when ``target``
    is not in the span.  Runs full elimination with combination tracking,
    so it is meant for small systems (tests, explanations), not hot paths.
    """
    pivots: Dict[int, int] = {}
    combos: Dict[int, int] = {}
    residue_target = target
    target_combo = 0
    for idx, vec in enumerate(vectors):
        combo = 1 << idx
        while vec:
            lead = vec.bit_length() - 1
            if lead in pivots:
                vec ^= pivots[lead]
                combo ^= combos[lead]
            else:
                pivots[lead] = vec
                combos[lead] = combo
                break
    while residue_target:
        lead = residue_target.bit_length() - 1
        if lead not in pivots:
            return None
        residue_target ^= pivots[lead]
        target_combo ^= combos[lead]
    return [i for i in range(len(vectors)) if (target_combo >> i) & 1]


def popcount(vector: int) -> int:
    """Number of set bits (hamming weight) of ``vector``."""
    return vector.bit_count()
