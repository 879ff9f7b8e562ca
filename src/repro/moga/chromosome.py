"""Chromosome encoding of candidate subspaces for the genetic search.

A candidate subspace over a ``phi``-dimensional space is encoded as a
bit-string of length ``phi``: bit ``i`` is set when attribute ``i`` belongs to
the subspace.  The encoding must always describe a *valid* subspace — at least
one bit set and no more than ``max_dimension`` bits — so every operator routes
its output through :meth:`Chromosome.repaired`.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Sequence, Tuple

from ..core.exceptions import ConfigurationError
from ..core.subspace import Subspace


class Chromosome:
    """A fixed-length bit-string describing one candidate subspace."""

    __slots__ = ("genes",)

    def __init__(self, genes: Sequence[bool]) -> None:
        if not genes:
            raise ConfigurationError("a chromosome needs at least one gene")
        self.genes: Tuple[bool, ...] = tuple(map(bool, genes))

    # ------------------------------------------------------------------ #
    @property
    def length(self) -> int:
        """Number of genes (the dimensionality ``phi`` of the data space)."""
        return len(self.genes)

    @property
    def cardinality(self) -> int:
        """Number of selected attributes."""
        return sum(self.genes)

    def is_valid(self, max_dimension: int) -> bool:
        """Whether the encoded subspace is non-empty and within the size cap."""
        card = self.cardinality
        return 1 <= card <= max_dimension

    def to_subspace(self) -> Subspace:
        """Decode into a :class:`Subspace`; requires at least one set bit."""
        return Subspace.from_mask(self.genes)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Chromosome):
            return self.genes == other.genes
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.genes)

    def __repr__(self) -> str:
        bits = "".join("1" if g else "0" for g in self.genes)
        return f"Chromosome({bits})"

    # ------------------------------------------------------------------ #
    # Construction / repair
    # ------------------------------------------------------------------ #
    @classmethod
    def from_subspace(cls, subspace: Subspace, phi: int) -> "Chromosome":
        """Encode an existing subspace over a ``phi``-dimensional space."""
        return cls(subspace.as_mask(phi))

    @classmethod
    def random(cls, phi: int, max_dimension: int,
               rng: random.Random) -> "Chromosome":
        """Draw a random valid chromosome with 1..max_dimension set bits."""
        if phi <= 0:
            raise ConfigurationError("phi must be positive")
        if max_dimension < 1:
            raise ConfigurationError("max_dimension must be at least 1")
        cardinality = rng.randint(1, min(max_dimension, phi))
        selected = rng.sample(range(phi), cardinality)
        genes = [False] * phi
        for index in selected:
            genes[index] = True
        return cls(genes)

    def repaired(self, max_dimension: int, rng: random.Random) -> "Chromosome":
        """Return a valid chromosome as close to this one as possible.

        * If no bit is set, one random bit is switched on.
        * If more than ``max_dimension`` bits are set, randomly chosen excess
          bits are switched off.
        """
        genes: List[bool] = list(self.genes)
        selected = [i for i, g in enumerate(genes) if g]
        if not selected:
            genes[rng.randrange(len(genes))] = True
            return Chromosome(genes)
        cap = min(max_dimension, len(genes))
        if len(selected) > cap:
            for index in rng.sample(selected, len(selected) - cap):
                genes[index] = False
        return Chromosome(genes)


def unique_chromosomes(chromosomes: Iterable[Chromosome]) -> List[Chromosome]:
    """Deduplicate a sequence of chromosomes while preserving order."""
    seen = set()
    unique: List[Chromosome] = []
    for chromosome in chromosomes:
        if chromosome.genes not in seen:
            seen.add(chromosome.genes)
            unique.append(chromosome)
    return unique
