"""Explanation predicates and overlap semantics (Definitions 3.1 and 3.4).

An explanation of order beta is a conjunction of beta equality predicates
over distinct explain-by attributes, ``E = (A_1=a_1 & ... & A_beta=a_beta)``.
Two explanations are *non-overlapping* when their data slices are disjoint in
every possible relation (Def. 3.4's ``forall R``), which holds exactly when
some attribute constrained by both carries different values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Tuple

Predicate = Tuple[str, Any]


def _null_to_none(v: Any) -> Any:
    return None if isinstance(v, float) and math.isnan(v) else v


@dataclass(frozen=True)
class Explanation:
    """An immutable conjunction of ``attr = value`` predicates.

    Predicates are stored sorted by attribute name so two explanations built
    from the same predicates in different orders compare (and hash) equal.
    A NULL value, which pandas hands over as ``None`` or NaN, is stored as
    ``None``: NaN != NaN would make ``A=NULL`` unequal to itself.
    """

    preds: Tuple[Predicate, ...]

    def __post_init__(self) -> None:
        preds = tuple(
            sorted(((a, _null_to_none(v)) for a, v in self.preds), key=lambda p: p[0])
        )
        attrs = [a for a, _ in preds]
        if len(set(attrs)) != len(attrs):
            raise ValueError(f"duplicate attribute in explanation: {attrs}")
        object.__setattr__(self, "preds", preds)

    @staticmethod
    def of(**predicates: Any) -> "Explanation":
        """Build from keyword predicates: ``Explanation.of(state='CA')``."""
        return Explanation(tuple(predicates.items()))

    @staticmethod
    def from_mapping(m: Mapping[str, Any]) -> "Explanation":
        return Explanation(tuple(m.items()))

    @property
    def attrs(self) -> Tuple[str, ...]:
        """Attributes constrained by this explanation, sorted."""
        return tuple(a for a, _ in self.preds)

    @property
    def order(self) -> int:
        """Number of predicates (beta in the paper)."""
        return len(self.preds)

    @property
    def label(self) -> str:
        """Human-readable ``A=a & B=b`` form."""
        return " & ".join(f"{a}={v}" for a, v in self.preds)

    def as_dict(self) -> dict:
        return dict(self.preds)

    def drop(self, attr: str) -> "Explanation":
        """The (order-1) parent obtained by removing ``attr``'s predicate."""
        return Explanation(tuple(p for p in self.preds if p[0] != attr))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Explanation({self.label})"


def overlaps(e1: Explanation, e2: Explanation) -> bool:
    """True iff the slices of ``e1`` and ``e2`` may intersect in some relation.

    Guaranteed-disjoint (Def. 3.4) requires a shared attribute with differing
    values; otherwise a relation containing a row satisfying both conjunctions
    exists, so the explanations overlap.
    """
    d2 = e2.as_dict()
    for a, v in e1.preds:
        if a in d2 and d2[a] != v:
            return False
    return True


def pairwise_non_overlapping(explanations: Iterable[Explanation]) -> bool:
    """True iff every pair in ``explanations`` is non-overlapping."""
    es = list(explanations)
    for i in range(len(es)):
        for j in range(i + 1, len(es)):
            if overlaps(es[i], es[j]):
                return False
    return True
