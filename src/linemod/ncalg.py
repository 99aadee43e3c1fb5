"""Words, noncommutative polynomials and term orders over a fixed alphabet.

Every algebra element in this package is a finite rational linear
combination of words in the free algebra on an ordered generator alphabet;
quotients only enter through rewriting.  Coefficients are exact
``fractions.Fraction`` values throughout, so all arithmetic is exact and
all values are immutable after construction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .errors import LinemodError, UngradedAlphabetError

# A word is a tuple of generator indices; the empty tuple is the unit.
Word = tuple

EMPTY_WORD: Word = ()


class Generator:
    """One generator of a presented algebra.

    ``z_degree`` is the weight in the integer grading (1 for every algebra
    shipped with this package).  ``group_label`` is the optional label in a
    finite grading group, stored as a tuple of bits: ``(1,)`` for Z2,
    ``(1, 0)`` for Z2 x Z2.  Generators are immutable and compare and hash
    by value, since a presentation's hash reads them.
    """

    __slots__ = ("index", "name", "z_degree", "group_label")

    def __init__(self, index: int, name: str, z_degree: int = 1, group_label: tuple | None = None):
        if z_degree < 1:
            raise ValueError(f"generator {name!r} must have positive degree")
        for slot, value in zip(Generator.__slots__, (index, name, z_degree, group_label)):
            object.__setattr__(self, slot, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"Generator.{name} cannot be assigned")

    def _key(self) -> tuple:
        return (self.index, self.name, self.z_degree, self.group_label)

    def __eq__(self, other):
        return isinstance(other, Generator) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def check_alphabet(generators: Iterable[Generator]) -> tuple[Generator, ...]:
    """Validate that indices are 0..n-1 in order and names are unique."""
    gens = tuple(generators)
    names = set()
    for i, g in enumerate(gens):
        if g.index != i:
            raise ValueError(f"generator indices must be contiguous from 0, got {g.index} at position {i}")
        if g.name in names:
            raise ValueError(f"duplicate generator name {g.name!r}")
        names.add(g.name)
    return gens


def group_add(a: tuple, b: tuple) -> tuple:
    """Componentwise sum of two grading-group elements (bits mod 2)."""
    if len(a) != len(b):
        raise ValueError("grading labels live in different groups")
    return tuple((x + y) % 2 for x, y in zip(a, b))


def group_identity(rank: int) -> tuple:
    return (0,) * rank


def group_degree(word: Word, labels: "tuple[tuple | None, ...]") -> tuple:
    """Sum, in the grading group, of the labels of the letters of ``word``.

    The empty word has the identity degree.  Raises UngradedAlphabetError if
    a letter of the word carries no label.
    """
    rank = None
    for lab in labels:
        if lab is not None:
            rank = len(lab)
            break
    if rank is None:
        raise UngradedAlphabetError("no generator carries a group label")
    total = group_identity(rank)
    for g in word:
        lab = labels[g]
        if lab is None:
            raise UngradedAlphabetError(f"generator index {g} carries no group label")
        total = group_add(total, lab)
    return total


class NcPoly:
    """A noncommutative polynomial: finite map from words to nonzero rationals.

    Instances are immutable; all operations return new values.  Arithmetic
    is exact.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Word, Fraction] | Iterable = ()):
        data = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for word, coeff in items:
            c = coeff if type(coeff) is Fraction else Fraction(coeff)
            if c:
                word = tuple(word)
                if word in data:
                    c += data[word]
                    if not c:
                        del data[word]
                        continue
                data[word] = c
        self._terms = data

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "NcPoly":
        return NcPoly()

    @staticmethod
    def one() -> "NcPoly":
        return NcPoly({EMPTY_WORD: Fraction(1)})

    @staticmethod
    def gen(index: int) -> "NcPoly":
        return NcPoly({(index,): Fraction(1)})

    @staticmethod
    def monomial(word: Word, coeff=1) -> "NcPoly":
        return NcPoly({tuple(word): Fraction(coeff)})

    @staticmethod
    def linear(coeffs) -> "NcPoly":
        """The degree-one form ``sum_i coeffs[i] x_i``; inverse of
        ``linear_coefficients``."""
        return NcPoly({(i,): c for i, c in enumerate(coeffs) if c})

    # -- access ------------------------------------------------------------

    @property
    def terms(self) -> dict:
        """A copy of the word -> coefficient map."""
        return dict(self._terms)

    def items(self):
        return self._terms.items()

    def coeff(self, word: Word) -> Fraction:
        return self._terms.get(tuple(word), Fraction(0))

    def support(self) -> set:
        return set(self._terms)

    def linear_coefficients(self, n: int, what: str) -> tuple:
        """The coefficient vector, of length ``n``, of a degree-one form;
        raises LinemodError naming ``what`` on any other word."""
        vec = [Fraction(0)] * n
        for w, c in self._terms.items():
            if len(w) != 1:
                raise LinemodError(f"{what} must be degree-one expressions")
            vec[w[0]] += c
        return tuple(vec)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        data = dict(self._terms)
        for w, c in other._terms.items():
            s = data.get(w, 0) + c
            if s:
                data[w] = s
            else:
                data.pop(w, None)
        out = NcPoly.__new__(NcPoly)
        out._terms = data
        return out

    def __neg__(self):
        out = NcPoly.__new__(NcPoly)
        out._terms = {w: -c for w, c in self._terms.items()}
        return out

    def __sub__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, NcPoly):
            return NotImplemented
        data = {}
        for u, a in self._terms.items():
            for v, b in other._terms.items():
                w = u + v
                s = data.get(w, 0) + a * b
                if s:
                    data[w] = s
                else:
                    del data[w]
        out = NcPoly.__new__(NcPoly)
        out._terms = data
        return out

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "NcPoly":
        c = Fraction(c)
        out = NcPoly.__new__(NcPoly)
        out._terms = {} if not c else {w: a * c for w, a in self._terms.items()}
        return out

    def __eq__(self, other):
        if isinstance(other, NcPoly):
            return self._terms == other._terms
        if other == 0:
            return not self._terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        if not self._terms:
            return "NcPoly(0)"
        body = " + ".join(f"{c}*{w}" for w, c in sorted(self._terms.items()))
        return f"NcPoly({body})"

    # -- degrees -------------------------------------------------------------

    def z_degrees(self, degrees: tuple) -> set:
        """Set of integer degrees of the words in the support."""
        return {sum(degrees[g] for g in w) for w in self._terms}

    def is_z_homogeneous(self, degrees: tuple) -> bool:
        return len(self.z_degrees(degrees)) <= 1

    def max_z_degree(self, degrees: tuple) -> int:
        """Largest word degree in the support (0 for the zero polynomial)."""
        if not self._terms:
            return 0
        return max(sum(degrees[g] for g in w) for w in self._terms)


def bracket_relation(table, signs, i: int, j: int, homogenizer: int | None) -> NcPoly:
    """The free-algebra element b_i b_j - signs[i][j] b_j b_i - <b_i,b_j> for
    the structure constants ``table``, with each bracket term times the
    generator ``homogenizer`` unless it is None."""
    tail = () if homogenizer is None else (homogenizer,)
    return NcPoly([((i, j), 1), ((j, i), -signs[i][j])]
                  + [((k,) + tail, -c) for k, c in enumerate(table[i][j]) if c])


def up_to_scale(a: NcPoly, b: NcPoly) -> bool:
    """Whether ``b`` is a rational multiple of the nonzero ``a`` on the same
    support."""
    if a.support() != b.support():
        return False
    w = next(iter(a.support()))
    return b == a.scale(b.coeff(w) / a.coeff(w))


class TermOrder:
    """Degree-lexicographic order on words.

    ``degrees[i]`` is the integer degree of generator ``i``.  ``ranks[i]``
    is the precedence rank of generator ``i``; rank 0 is the highest
    precedence, and at equal degree the word whose first differing letter
    has the smaller rank is the greater word.  The order is total,
    multiplicative, and well-founded on each degree.
    """

    __slots__ = ("degrees", "ranks", "_index_precedence", "_unit_degrees")

    def __init__(self, degrees: tuple, ranks: tuple):
        self.degrees = degrees
        self.ranks = ranks
        # under index-order precedence the word itself is the lexicographic
        # part of ``heap_key``; with every generator of degree 1 a word's
        # degree is its length
        self._index_precedence = ranks == tuple(range(len(ranks)))
        self._unit_degrees = all(g == 1 for g in degrees)

    @staticmethod
    def from_precedence(degrees: tuple, precedence: "tuple | None" = None) -> "TermOrder":
        """Build an order from a precedence list of generator indices,
        highest precedence first.  Default is index order."""
        n = len(degrees)
        if precedence is None:
            precedence = tuple(range(n))
        if sorted(precedence) != list(range(n)):
            raise ValueError("precedence must be a permutation of the generator indices")
        ranks = [0] * n
        for r, g in enumerate(precedence):
            ranks[g] = r
        return TermOrder(tuple(degrees), tuple(ranks))

    def word_degree(self, word: Word) -> int:
        return sum(self.degrees[g] for g in word)

    def heap_key(self, word: Word):
        """Key decreasing along the order: the greatest word has the least
        key, so a min-heap or an ascending sort takes it first."""
        lex = word if self._index_precedence else tuple(self.ranks[g] for g in word)
        n = len(word)
        return (-n if self._unit_degrees else -self.word_degree(word), -n, lex)

    def compare(self, a: Word, b: Word) -> int:
        """-1, 0 or 1 according to a < b, a == b, a > b."""
        ka, kb = self.heap_key(a), self.heap_key(b)
        return -1 if ka > kb else (0 if ka == kb else 1)

    def leading_word(self, poly: NcPoly) -> Word:
        """The greatest word in the support of a nonzero polynomial."""
        return min(poly._terms, key=self.heap_key)

    def max_degree(self, poly: NcPoly) -> int:
        """Largest word degree in the support (0 for zero)."""
        return poly.max_z_degree(self.degrees)
