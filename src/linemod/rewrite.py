"""Degree-bounded confluent rewriting for presented algebras.

A presentation is turned into a reduction system by orienting each relation
so that its greatest word rewrites to the lower terms.  Overlap ambiguities
between rule left-hand sides are resolved in the classical diamond-lemma
style, but only up to a degree bound N: every overlap word of degree at
most N is checked, derived rules of higher degree are discarded and
flagged, and the resulting system certifies unique normal forms for
elements of degree at most N.

Coefficients are rationals, but presentations with integer structure
constants, every preset among them, give mostly integers.  Inside the
engine an integral coefficient stays an ``int``: each rule keeps its right-hand side
as compacted (word, coefficient) pairs (``Rule.pairs``), which reductions,
S-polynomials and the memo of normal word times letter all multiply.
``Fraction`` objects are made where a value leaves the engine: normal
forms, trace steps and rule right-hand sides are ``Fraction``-valued.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from typing import NamedTuple

from .errors import (
    DegenerateRelationError,
    InhomogeneousError,
    OutOfCertifiedRangeError,
)
from .ncalg import EMPTY_WORD, NcPoly, TermOrder, Word, check_alphabet, group_degree


class Presentation:
    """Generators plus defining relations of an associative algebra.

    Relations are free-algebra polynomials.  If ``grading_group`` is set,
    every generator must carry a group label and every relation must be
    group homogeneous.  Integer homogeneity is recorded, not required:
    enveloping algebras such as U(g) are genuinely inhomogeneous and are
    handled by filtering on total degree.

    Presentations are immutable and compare and hash by value; the hash,
    which keys the filtered model's cache, is computed once.
    """

    __slots__ = ("name", "generators", "relations", "grading_group", "_hash")

    def __init__(self, name: str, generators, relations, grading_group: str | None = None):
        generators = check_alphabet(generators)
        rels = tuple(relations)
        n = len(generators)
        for i, rel in enumerate(rels):
            if rel.is_zero():
                raise DegenerateRelationError(f"relation {i} of {name!r} is zero")
            for w in rel.support():
                if any(g < 0 or g >= n for g in w):
                    raise ValueError(f"relation {i} of {name!r} uses undeclared generators")
        if grading_group is not None:
            labels = tuple(g.group_label for g in generators)
            for i, rel in enumerate(rels):
                degs = {group_degree(w, labels) for w in rel.support()}
                if len(degs) > 1:
                    raise InhomogeneousError(
                        f"relation {i} of {name!r} is not {grading_group}-homogeneous"
                    )
        key = (name, generators, rels, grading_group)
        for slot, value in zip(Presentation.__slots__, key + (hash(key),)):
            object.__setattr__(self, slot, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"Presentation.{name} cannot be assigned")

    def _key(self) -> tuple:
        return (self.name, self.generators, self.relations, self.grading_group)

    def __eq__(self, other):
        return isinstance(other, Presentation) and self._key() == other._key()

    def __hash__(self):
        return self._hash

    @property
    def z_degrees(self) -> tuple:
        return tuple(g.z_degree for g in self.generators)

    def group_labels(self) -> tuple:
        return tuple(g.group_label for g in self.generators)

    def is_z_homogeneous(self) -> bool:
        return all(r.is_z_homogeneous(self.z_degrees) for r in self.relations)

    def generator_names(self) -> tuple:
        return tuple(g.name for g in self.generators)

    def gen_index(self, name: str) -> int:
        for g in self.generators:
            if g.name == name:
                return g.index
        raise KeyError(f"unknown generator {name!r} in {self.name!r}")

    def default_order(self) -> TermOrder:
        """Deglex with precedence in presentation order (first is highest)."""
        return TermOrder.from_precedence(self.z_degrees)

    def relation_degree(self) -> int:
        """The largest degree of a relation term (0 without relations), the
        least degree bound ``complete`` accepts."""
        degrees = self.z_degrees
        return max((r.max_z_degree(degrees) for r in self.relations), default=0)


class Rule:
    """An oriented relation lhs -> rhs with every rhs word below the lhs.

    ``pairs`` holds the (word, coefficient) pairs of ``rhs`` with integral
    coefficients as ``int``, compacted once per rule for the engine."""

    __slots__ = ("lhs", "rhs", "pairs")

    def __init__(self, lhs: Word, rhs: NcPoly):
        self.lhs = lhs
        self.rhs = rhs
        self.pairs = tuple((w, _compact(c)) for w, c in rhs.items())


class DerivedRule(NamedTuple):
    """Provenance record for a rule added during completion."""

    lhs: Word
    overlap_word: Word | None   # None for a rule from a relation


class RewriteSystem:
    """A completed, degree-bounded reduction system.

    ``confluent_up_to`` is the degree at which every overlap ambiguity has
    been verified to resolve; normal forms are unique for inputs of degree
    at most this bound, and ``normal_form`` refuses inputs above it.
    ``discarded_above_bound`` flags derived rules that were dropped because
    their degree exceeded the bound.  ``trace`` lists the ``DerivedRule``
    of every rule added during completion.
    """

    def __init__(self, presentation: Presentation, order: TermOrder, rules: list,
                 confluent_up_to: int, trace: list, discarded_above_bound: bool):
        self.presentation = presentation
        self.order = order
        self.rules = rules
        self.confluent_up_to = confluent_up_to
        self.trace = trace
        self.discarded_above_bound = discarded_above_bound

    def rule_for(self, lhs: Word) -> Rule | None:
        return self._by_lhs.get(lhs)

    def require_certified(self, degree: int) -> None:
        """Raise OutOfCertifiedRangeError if ``degree`` exceeds
        ``confluent_up_to``, above which normal forms need not be unique."""
        if degree > self.confluent_up_to:
            raise OutOfCertifiedRangeError(
                f"degree {degree} exceeds the certified bound {self.confluent_up_to}")

    def right_multiply(self, word: Word, terms) -> dict:
        """Normal form of ``word * x`` for a normal word ``word`` and ``x`` a
        word -> coefficient dict or an NcPoly, read from the memo of normal
        word times letter.  Its values are ``int`` where ``x`` and the memo
        are integral, for the exact kernel, which takes ints and Fractions
        alike.  No degree check: it equals ``normal_form`` of the product
        only within ``confluent_up_to``, where normal forms are unique."""
        out, _ = self._products.fold(word, terms.items(), True)
        return {w: c for w, c in out.items() if c}

    @cached_property
    def _by_lhs(self) -> dict:
        return {r.lhs: r for r in self.rules}

    @cached_property
    def automaton(self) -> "LhsAutomaton":
        """The automaton of the rule lhs set: leftmost matches for the
        reduction engine, and the walk that lists and counts normal words."""
        return LhsAutomaton(self.rules, len(self.presentation.generators))

    @cached_property
    def _products(self) -> "_ProductTable":
        return _ProductTable(self.rules)


# ----------------------------------------------------------------------
# reduction engine
# ----------------------------------------------------------------------


class LhsAutomaton:
    """The Aho–Corasick automaton of the rule lhs set.

    States are the prefixes of the lhs words, 0 the empty one.
    ``goto[s][x]`` is the state after reading letter ``x`` in state ``s``:
    the longest suffix of (prefix s) + x that is a prefix of some lhs.
    ``rule[s]`` is the rule of the longest lhs that is a suffix of prefix
    s, or None: its own rule, else its fail state's.  Reading a word from
    state 0, the first state with a rule is where the first lhs ends, and a
    word is normal iff no state it passes has a rule; the states without a
    rule and their transitions are the Ufnarovski graph of the normal
    words.  When no lhs is a factor of another, as in an inter-reduced
    system, the first lhs to end is also the leftmost to start.
    """

    __slots__ = ("goto", "rule")

    def __init__(self, rules, ngens: int):
        children = [{}]      # state -> {letter: child state} of the lhs trie
        rule = [None]
        for r in rules:
            s = 0
            for x in r.lhs:
                t = children[s].get(x)
                if t is None:
                    t = children[s][x] = len(children)
                    children.append({})
                    rule.append(None)
                s = t
            rule[s] = r
        goto = [None] * len(children)
        goto[0] = [children[0].get(x, 0) for x in range(ngens)]
        # breadth first, so a fail state (shorter) is complete before its users
        queue = deque((t, 0) for t in children[0].values())   # (state, fail state)
        while queue:
            s, fail = queue.popleft()
            if rule[s] is None:
                rule[s] = rule[fail]
            row = goto[fail][:]
            for x, t in children[s].items():
                queue.append((t, row[x]))
                row[x] = t
            goto[s] = row
        self.goto = goto
        self.rule = rule


def _find_match(word: Word, automaton: LhsAutomaton):
    """Leftmost match of any rule lhs inside ``word``: the first lhs the
    automaton sees end, which is the leftmost to start as no lhs is a
    factor of another.  Returns (position, rule) or None."""
    goto, found = automaton.goto, automaton.rule
    s = 0
    for i, x in enumerate(word):
        s = goto[s][x]
        rule = found[s]
        if rule is not None:
            return i + 1 - len(rule.lhs), rule
    return None


def _reduce(terms: dict, automaton: LhsAutomaton, order: TermOrder,
            steps: list | None = None) -> dict:
    """Normal form of a word -> coefficient map under the automaton's rules.

    The greatest pending word is taken first and rewritten at its leftmost
    match.  A rewrite only produces smaller words, so like terms are merged
    before they are reduced, each word is rewritten at most once, and the
    words taken form a strictly decreasing sequence.  Integral coefficients
    are merged as ``int``; the normal form's values and the steps'
    coefficients are ``Fraction``s.
    """
    key = order.heap_key
    pending = {w: _compact(c) for w, c in terms.items()}
    heap = [(key(w), w) for w in pending]
    heapify(heap)
    out = {}
    while heap:
        word = heappop(heap)[1]
        coeff = pending.pop(word)
        if not coeff:
            continue
        m = _find_match(word, automaton)
        if m is None:
            out[word] = Fraction(coeff)
            continue
        pos, rule = m
        if steps is not None:
            steps.append(TraceStep(word, Fraction(coeff), pos, rule.lhs))
        prefix, suffix = word[:pos], word[pos + len(rule.lhs):]
        for w, c in rule.pairs:
            nw = prefix + w + suffix
            if nw in pending:
                pending[nw] += coeff * c
            else:
                pending[nw] = coeff * c
                heappush(heap, (key(nw), nw))
    return out


def _compact(c):
    """An integral coefficient as ``int``, any other unchanged."""
    return c.numerator if c.denominator == 1 else c


class _ProductTable:
    """Normal forms of ``v * x`` for a normal word ``v`` and a letter ``x``:
    the right-regular representation in the normal-word basis, filled on
    demand.

    As ``v`` is normal and the rules are inter-reduced, ``v * x`` is either
    normal or ends in exactly one lhs, ``v * x = u * lhs``; its normal form
    is then ``u * rhs`` folded letter by letter through the table.  Every
    product that fold asks for is below ``v * x`` in the term order, so
    filling ends; it runs on an explicit stack, not by recursion.  Only
    reducible products are stored, each as one flat tuple ``(word, coeff,
    word, coeff, ...)`` with the words interned and integral coefficients
    as ``int``, folded from the rules' ``pairs``.
    """

    def __init__(self, rules):
        self._by_last = {}    # last letter -> [(len(lhs), lhs, rhs pairs)]
        for r in rules:
            self._by_last.setdefault(r.lhs[-1], []).append((len(r.lhs), r.lhs, r.pairs))
        self._table = {}      # reducible product -> (word, coeff, word, coeff, ...)
        self._words = {}      # interned normal words of the stored pairs

    def _match(self, word: Word):
        """(length, rhs pairs) of the rule whose lhs ends ``word``, or None."""
        for n, lhs, rhs in self._by_last.get(word[-1], ()):
            if word[-n:] == lhs:
                return n, rhs
        return None

    def fold(self, word: Word, terms, fill: bool) -> tuple:
        """``(sum c * NF(word * w), None)`` over the (w, c) pairs of
        ``terms``, multiplying by one letter at a time.  With ``fill``,
        reducible products absent from the table are filled first; without
        it, a stage that needs such products stops the fold and returns
        ``(None, those products)``."""
        table, out = self._table, {}
        for w, c in terms:
            cur = {word: c}
            for x in w:
                nxt, missing = {}, []
                for v, a in cur.items():
                    vx = v + (x,)
                    hit = table.get(vx)
                    if hit is None:
                        if self._match(vx) is None:
                            hit = (vx, 1)
                        elif fill:
                            self._fill(vx)
                            hit = table[vx]
                        else:
                            missing.append(vx)
                            continue
                    pairs = iter(hit)
                    for t, b in zip(pairs, pairs):
                        if t in nxt:
                            nxt[t] += a * b
                        else:
                            nxt[t] = a * b
                if missing:
                    return None, missing
                cur = nxt
            for t, a in cur.items():
                if t in out:
                    out[t] += a
                else:
                    out[t] = a
        return out, None

    def _fill(self, product: Word) -> None:
        """Store the normal form of a reducible product, after the smaller
        products its fold needs."""
        table, words = self._table, self._words
        stack = [product]
        while stack:
            top = stack[-1]
            if top in table:
                stack.pop()
                continue
            n, rhs = self._match(top)
            out, missing = self.fold(top[:-n], rhs, False)
            if missing:
                stack.extend(missing)
                continue
            table[top] = tuple(x for t, a in out.items() if a
                               for x in (words.setdefault(t, t), _compact(a)))
            stack.pop()


def _orient(poly: NcPoly, order: TermOrder) -> Rule:
    """Orient a nonzero polynomial into a rule on its greatest word."""
    lead = order.leading_word(poly)
    if lead == EMPTY_WORD:
        raise DegenerateRelationError(
            "relation reduces to a nonzero constant; the presented algebra is zero"
        )
    c = poly.coeff(lead)
    rest = poly - NcPoly.monomial(lead, c)
    return Rule(lead, rest.scale(Fraction(-1) / c))


def complete(presentation: Presentation, order: TermOrder | None = None, *,
             max_degree: int) -> RewriteSystem:
    """Resolve all overlap ambiguities of degree <= max_degree.

    The returned system is inter-reduced: no rule lhs contains another rule
    lhs as a subword, and every rhs is in normal form.  One worklist
    processes relations and overlap pairs; each new rule schedules its pairs
    with every live rule.  The post-condition is ``confluence_certificate``,
    checked before returning: a system that fails it raises RuntimeError.
    """
    if order is None:
        order = presentation.default_order()
    max_rel_degree = presentation.relation_degree()
    if max_degree < max_rel_degree:
        raise ValueError(f"degree bound {max_degree} is below the maximal relation degree {max_rel_degree}")

    ngens = len(presentation.generators)
    rules: dict = {}       # lhs -> live rule, in insertion order
    automaton = LhsAutomaton((), ngens)
    trace: list = []
    discarded = False
    poly_queue = deque((rel, None) for rel in presentation.relations)   # (poly, overlap word)
    pair_queue = deque()   # (lhs1, lhs2); live rules looked up on pop
    while poly_queue or pair_queue:
        if not poly_queue:
            l1, l2 = pair_queue.popleft()
            r1, r2 = rules.get(l1), rules.get(l2)
            if r1 is None or r2 is None:
                continue
            for ov in _overlaps(l1, l2):
                if order.word_degree(ov) > max_degree:
                    continue
                diff = _spolynomial(ov, r1, r2, automaton, order)
                if diff:
                    poly_queue.append((NcPoly(diff), ov))
            continue
        poly, overlap_word = poly_queue.popleft()
        red = NcPoly(_reduce(poly.terms, automaton, order))
        if red.is_zero():
            continue
        rule = _orient(red, order)
        if order.word_degree(rule.lhs) > max_degree:
            discarded = True
            continue
        # inter-reduce: retire any rule whose lhs contains the new lhs
        for lhs in [lhs for lhs in rules if _contains(lhs, rule.lhs)]:
            retired = rules.pop(lhs)
            poly_queue.append((NcPoly.monomial(lhs) - retired.rhs, None))
        rules[rule.lhs] = rule
        automaton = LhsAutomaton(rules.values(), ngens)
        trace.append(DerivedRule(rule.lhs, overlap_word))
        # keep right-hand sides fully reduced, all against this automaton.
        # Every rhs is normal against the rules before this one, and
        # retiring a rule makes no word reducible, so only an rhs with the
        # new lhs as a factor can change.
        changed = False
        for r in list(rules.values()):
            if any(_contains(w, rule.lhs) for w in r.rhs.terms):
                red_rhs = NcPoly(_reduce(r.rhs.terms, automaton, order))
                if red_rhs != r.rhs:
                    rules[r.lhs] = Rule(r.lhs, red_rhs)
                    changed = True
        if changed:
            automaton = LhsAutomaton(rules.values(), ngens)
        # schedule overlaps of the new rule with every live rule
        for lhs in rules:
            pair_queue.append((rule.lhs, lhs))
            if lhs != rule.lhs:
                pair_queue.append((lhs, rule.lhs))

    system = RewriteSystem(
        presentation=presentation,
        order=order,
        rules=list(rules.values()),
        confluent_up_to=max_degree,
        trace=trace,
        discarded_above_bound=discarded,
    )
    if not confluence_certificate(system):
        raise RuntimeError(
            f"completion of {presentation.name!r} to degree {max_degree} "
            "left an unresolved overlap"
        )
    return system


def _contains(word: Word, sub: Word) -> bool:
    n, m = len(word), len(sub)
    return any(word[i:i + m] == sub for i in range(n - m + 1))


def _overlaps(l1: Word, l2: Word):
    """Proper overlap words: a suffix of l1 equals a prefix of l2."""
    for k in range(1, min(len(l1), len(l2))):
        if l1[-k:] == l2[:k]:
            yield l1 + l2[k:]


def _spolynomial(overlap: Word, r1: Rule, r2: Rule, automaton: LhsAutomaton,
                 order: TermOrder) -> dict:
    """Difference of the two one-step reductions of the overlap word, in
    normal form.  Empty dict means the ambiguity resolves."""
    tail = overlap[len(r1.lhs):]
    diff = {w + tail: c for w, c in r1.pairs}
    head = overlap[: len(overlap) - len(r2.lhs)]
    for w, c in r2.pairs:
        diff[head + w] = diff.get(head + w, 0) - c
    return _reduce(diff, automaton, order)


# ----------------------------------------------------------------------
# queries
# ----------------------------------------------------------------------


def normal_form(x: NcPoly, system: RewriteSystem, steps: list | None = None) -> NcPoly:
    """The unique normal form of ``x`` (unique when the degree of ``x`` is
    within the certified bound, which is enforced); ``x`` lies in the
    two-sided ideal iff its normal form is zero.

    When a list is given, the same pass appends to ``steps`` a replayable
    ``TraceStep`` per rewrite.  Steps always rewrite the greatest reducible
    word of the current polynomial at its leftmost reducible position, so
    the trace is deterministic, and expanding the steps witnesses that
    x - normal_form(x) lies in the two-sided ideal.
    """
    system.require_certified(system.order.max_degree(x))
    return NcPoly(_reduce(x.terms, system.automaton, system.order, steps))


class TraceStep(NamedTuple):
    """One rewrite application: the coefficient times ``word`` was replaced
    using the rule with left side ``rule_lhs`` at ``position``."""

    word: Word
    coefficient: Fraction
    position: int
    rule_lhs: Word


def replay_trace(x: NcPoly, steps, system: RewriteSystem) -> NcPoly:
    """Apply the recorded steps to ``x``; returns the final polynomial."""
    current = x
    for st in steps:
        rule = system.rule_for(st.rule_lhs)
        if rule is None:
            raise ValueError(f"trace references unknown rule {st.rule_lhs}")
        prefix = st.word[: st.position]
        suffix = st.word[st.position + len(rule.lhs):]
        replaced = NcPoly.monomial(st.word, st.coefficient)
        expansion = NcPoly({prefix + w + suffix: st.coefficient * c for w, c in rule.rhs.items()})
        current = current - replaced + expansion
    return current


def confluence_certificate(system: RewriteSystem) -> bool:
    """Re-check every bounded overlap of the final rules; True if all
    ambiguities resolve to the same normal form."""
    for r1 in system.rules:
        for r2 in system.rules:
            for ov in _overlaps(r1.lhs, r2.lhs):
                if system.order.word_degree(ov) > system.confluent_up_to:
                    continue
                if _spolynomial(ov, r1, r2, system.automaton, system.order):
                    return False
    return True
