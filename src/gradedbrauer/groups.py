"""Finitely generated abelian groups plus a divisible summand.

The groups this package produces are always of the shape

    Z^free  +  Z/d1 + ... + Z/dk  +  (Q/Z)^divisible

with ``d1 | d2 | ... | dk`` (invariant factors, ascending).  ``AbGroup``
stores exactly that, canonicalizing any list of cyclic orders on the
way in:

>>> AbGroup.from_cyclics([2, 3])
AbGroup(torsion=(6,))
>>> AbGroup.from_cyclics([4, 6]).torsion
(2, 12)
>>> AbGroup.from_cyclics([8, 4, 2]) + AbGroup.free(1)
AbGroup(torsion=(2, 4, 8), free_rank=1)

Some results are only known up to a group extension; ``ExtensionDatum``
carries the sub/quotient pair, an optional resolution, and a note about
what pins the answer down.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from math import gcd
from typing import Iterable, Optional


def invariant_factors(cyclic_orders: Iterable[int]) -> tuple[int, ...]:
    """Canonical ascending invariant factors of a direct sum of cyclics.

    Uses only gcd and lcm, so no order is ever factored.  Each order
    ``n`` is folded into the chain from its smallest factor up: at a
    factor ``d`` the pair becomes ``gcd(d, n)``, kept in ``d``'s place,
    and ``lcm(d, n)``, carried on as the new ``n``; what is carried past
    the largest factor is appended.  Every step is the isomorphism
    ``Z/d + Z/n = Z/gcd(d, n) + Z/lcm(d, n)``.  At one prime the pair's
    exponents become (min, max), so the fold inserts ``n``'s exponent
    into the chain's ascending exponents like one pass of insertion
    sort.  The exponents stay ascending at every prime at once, which
    is the divisibility chain; the 1s that gcds leave at the bottom are
    dropped.  The factors that divide ``n`` form a prefix, left as it is,
    so a bisection finds the first that does not; the carried ``n`` is a
    multiple of each factor passed, so the next bisection skips the equal
    ones after it: ``(Z/2)^k + (Z/4)^k`` costs ``k log k`` steps.

    >>> invariant_factors([2, 3])
    (6,)
    >>> invariant_factors([4, 6])
    (2, 12)
    >>> invariant_factors([8, 8, 2, 9])
    (2, 8, 72)
    >>> invariant_factors([1, 1])
    ()
    """
    chain: list[int] = []
    for n in cyclic_orders:
        if n < 1:
            raise ValueError(f"cyclic order must be positive, got {n}")
        j = 0
        while (j := bisect_left(chain, True, j, key=lambda d: n % d != 0)) < len(chain):
            d = chain[j]
            g = gcd(d, n)
            chain[j], n, j = g, d // g * n, j + 1
        chain.append(n)
    return tuple(d for d in chain if d > 1)


@dataclass(frozen=True)
class AbGroup:
    """``Z^free_rank + (torsion cyclics) + (Q/Z)^divisible_rank``.

    ``torsion`` is kept in invariant-factor form, each entry dividing
    the next.  Construct via :meth:`from_cyclics` unless the input is
    already canonical.

    >>> AbGroup.from_cyclics([4, 2, 2])
    AbGroup(torsion=(2, 2, 4))
    >>> print(AbGroup.from_cyclics([8, 4]) + AbGroup.divisible(2))
    Z/8 x Z/4 x (Q/Z)^2
    >>> AbGroup.from_cyclics([5]).order()
    5
    >>> print(AbGroup.trivial())
    0
    """

    torsion: tuple[int, ...] = ()
    free_rank: int = 0
    divisible_rank: int = 0

    def __post_init__(self) -> None:
        if self.free_rank < 0 or self.divisible_rank < 0:
            raise ValueError("ranks must be nonnegative")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError(
                    f"torsion {self.torsion} is not an ascending divisibility chain; "
                    "use AbGroup.from_cyclics to canonicalize"
                )
        if any(t < 2 for t in self.torsion):
            raise ValueError("torsion factors must be at least 2")

    def __repr__(self) -> str:
        parts = []
        if self.torsion:
            parts.append(f"torsion={self.torsion!r}")
        if self.free_rank:
            parts.append(f"free_rank={self.free_rank!r}")
        if self.divisible_rank:
            parts.append(f"divisible_rank={self.divisible_rank!r}")
        return f"AbGroup({', '.join(parts)})"

    @classmethod
    def trivial(cls) -> "AbGroup":
        return cls()

    @classmethod
    def from_cyclics(cls, orders: Iterable[int], free_rank: int = 0,
                     divisible_rank: int = 0) -> "AbGroup":
        return cls(invariant_factors(orders), free_rank, divisible_rank)

    @classmethod
    def cyclic(cls, n: int) -> "AbGroup":
        """Z/n (or the trivial group for n = 1).

        >>> AbGroup.cyclic(8)
        AbGroup(torsion=(8,))
        """
        return cls.from_cyclics([n])

    @classmethod
    def elementary_two(cls, rank: int) -> "AbGroup":
        """(Z/2)^rank.

        >>> AbGroup.elementary_two(3)
        AbGroup(torsion=(2, 2, 2))
        """
        return cls.from_cyclics([2] * rank)

    @classmethod
    def free(cls, rank: int) -> "AbGroup":
        return cls(free_rank=rank)

    @classmethod
    def divisible(cls, rank: int) -> "AbGroup":
        """(Q/Z)^rank."""
        return cls(divisible_rank=rank)

    def __add__(self, other: "AbGroup") -> "AbGroup":
        """Direct sum, recanonicalized.

        >>> AbGroup.cyclic(4) + AbGroup.cyclic(6)
        AbGroup(torsion=(2, 12))
        """
        if not isinstance(other, AbGroup):
            return NotImplemented
        return AbGroup.from_cyclics(
            self.torsion + other.torsion,
            self.free_rank + other.free_rank,
            self.divisible_rank + other.divisible_rank,
        )

    def is_trivial(self) -> bool:
        return not (self.torsion or self.free_rank or self.divisible_rank)

    def is_finite(self) -> bool:
        return self.free_rank == 0 and self.divisible_rank == 0

    def order(self) -> Optional[int]:
        """Cardinality for finite groups, ``None`` otherwise.

        >>> AbGroup.from_cyclics([8, 4]).order()
        32
        >>> AbGroup.free(1).order() is None
        True
        """
        if not self.is_finite():
            return None
        out = 1
        for t in self.torsion:
            out *= t
        return out

    def exponent(self) -> Optional[int]:
        """Least n killing the torsion part, ``None`` if infinite exponent."""
        if self.divisible_rank:
            return None
        return self.torsion[-1] if self.torsion else 1

    def two_torsion_rank(self) -> int:
        """Rank of the 2-torsion subgroup of the finite part.

        >>> AbGroup.from_cyclics([8, 4, 3]).two_torsion_rank()
        2
        """
        return sum(1 for t in self.torsion if t % 2 == 0)

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in reversed(self.torsion))
        if self.divisible_rank == 1:
            parts.append("Q/Z")
        elif self.divisible_rank:
            parts.append(f"(Q/Z)^{self.divisible_rank}")
        return " x ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {
            "torsion": list(self.torsion),
            "free_rank": self.free_rank,
            "divisible_rank": self.divisible_rank,
            "pretty": str(self),
        }

    @classmethod
    def from_json(cls, data: dict) -> "AbGroup":
        return cls.from_cyclics(
            data.get("torsion", ()),
            data.get("free_rank", 0),
            data.get("divisible_rank", 0),
        )


@dataclass(frozen=True)
class ExtensionDatum:
    """A group known only as an extension ``sub >-> ? ->> quotient``.

    ``resolved`` holds the middle group when something external pins it
    down; ``note`` records what additional input would do so (or did).

    >>> e = ExtensionDatum(AbGroup.cyclic(2), AbGroup.cyclic(4))
    >>> e.order()
    8
    >>> e.is_resolved()
    False
    """

    sub: AbGroup
    quotient: AbGroup
    resolved: Optional[AbGroup] = None
    note: str = ""

    def __post_init__(self) -> None:
        if self.resolved is not None:
            a, b, c = self.sub.order(), self.quotient.order(), self.resolved.order()
            if a is not None and b is not None and c is not None and a * b != c:
                raise ValueError(
                    f"resolution order {c} != sub order {a} * quotient order {b}"
                )

    def is_resolved(self) -> bool:
        return self.resolved is not None

    def order(self) -> Optional[int]:
        """Order of the middle group (determined by the ends when finite)."""
        a, b = self.sub.order(), self.quotient.order()
        if a is None or b is None:
            return None
        return a * b

    def __str__(self) -> str:
        core = f"extension of {self.quotient} by {self.sub}"
        if self.resolved is not None:
            return f"{core} = {self.resolved}"
        return core

    def to_json(self) -> dict:
        return {
            "extension": {
                "sub": self.sub.to_json(),
                "quotient": self.quotient.to_json(),
                "resolved": None if self.resolved is None else self.resolved.to_json(),
                "note": self.note,
            }
        }
