"""The normalized-AST plan cache.

Flare (PAPERS.md) shows interpretive front-end overhead dominating
short-running queries; for this engine the front-end is
lex→parse→analyse→compile→optimize.  The cache skips all five stages for
repeated query *shapes*: queries are normalized by replacing literal
tokens with typed parameter slots, so ``return $r.v * 3`` and
``return $r.v * 17`` share one compiled plan and only differ in the
parameter vector bound at run time.

Normalization is deliberately conservative about which literals become
parameters.  A literal's *kind* (string/integer/decimal/double) is
always part of the cache key — static type inference specializes on
kinds — but its *value* is folded into the key too (a "structural"
literal, compiled as a constant) whenever any plan-building stage may
consume the value:

* comparison operands — scan pushdown compiles ``$v.key eq <lit>``
  into raw record predicates and min/max range facts, and the top-k
  rewrite reads the ``count $c where $c le <lit>`` bound;
* object lookup keys and object constructor keys — lookups resolve
  constant keys at compile time and projection analysis keys on them;
* every literal inside a user-defined function body — UDFs evaluate in
  a fresh dynamic context that cannot see the root context's parameter
  bindings.

Everything else (paths, arithmetic operands, return-clause constants,
range bounds, …) is parameterized.  Two queries that normalize to the
same key therefore compile to identical plans by construction — the
property the hypothesis suite in tests/test_plan_cache.py pins down.

Entries are LRU-evicted beyond the configured capacity; hit/miss/
eviction counts are kept on the cache and mirrored into
``rumble.plancache.*`` counters whenever the engine runs under an
enabled observability bundle.
"""

from __future__ import annotations

from collections import OrderedDict
from decimal import Decimal
from typing import Dict, List, Set, Tuple

from repro.jsoniq import ast
from repro.jsoniq.lexer import tokenize
from repro.sanitizer import san_lock, shared_state

#: Token kinds that lex as literals and participate in normalization.
#: ``true``/``false``/``null`` lex as keywords and stay structural.
_LITERAL_TOKEN_KINDS = frozenset(("string", "integer", "decimal", "double"))


class TokenLiteral:
    """One literal token of a query: its kind, decoded value, position."""

    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind: str, value, line: int, column: int):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column


def _decode(kind: str, text: str):
    """The Python value the parser would build for a literal token."""
    if kind == "string":
        return text
    if kind == "integer":
        return int(text)
    if kind == "decimal":
        return Decimal(text)
    return float(text)


def fingerprint(query_text: str, tokens=None
                ) -> Tuple[Tuple, List[TokenLiteral]]:
    """(shape, literals) of a query.

    The shape is the token stream with every literal token replaced by a
    typed placeholder; ``literals`` lists the replaced tokens in source
    order.  ``tokens`` is the text already lexed (by the engine's
    front-end, which compiles from the same list after a miss); without
    it the text is lexed here, raising the lexer's ParseException on
    malformed input.
    """
    shape: List[Tuple[str, str]] = []
    literals: List[TokenLiteral] = []
    for token in tokens if tokens is not None else tokenize(query_text):
        if token.kind in _LITERAL_TOKEN_KINDS:
            shape.append(("?", token.kind))
            literals.append(TokenLiteral(
                token.kind, _decode(token.kind, token.text),
                token.line, token.column,
            ))
        else:
            shape.append((token.kind, token.text))
    return tuple(shape), literals


def _walk(node: ast.AstNode):
    yield node
    for child in node.children():
        yield from _walk(child)


def _structural_positions(module: ast.MainModule) -> Set[Tuple[int, int]]:
    """(line, column) of every literal whose *value* a plan-building
    stage may consume — those literals must compile as constants."""
    positions: Set[Tuple[int, int]] = set()

    def mark(node: ast.AstNode) -> None:
        if isinstance(node, ast.Literal):
            positions.add((node.line, node.column))

    def scan(node: ast.AstNode) -> None:
        if isinstance(node, ast.ObjectLookup):
            mark(node.key)
        elif isinstance(node, ast.ComparisonExpression):
            mark(node.left)
            mark(node.right)
        elif isinstance(node, ast.ObjectConstructor):
            for key, _value in node.pairs:
                mark(key)
        for child in node.children():
            scan(child)

    scan(module.expression)
    for declaration in module.declarations:
        if isinstance(declaration, ast.FunctionDeclaration):
            # UDF bodies run in fresh contexts without parameter
            # bindings: every literal inside stays a constant.
            for node in _walk(declaration.body):
                mark(node)
        elif isinstance(declaration, ast.VariableDeclaration):
            if declaration.expression is not None:
                scan(declaration.expression)

    return positions


def assign_parameter_slots(
    module: ast.MainModule, literals: List[TokenLiteral]
) -> Tuple[int, ...]:
    """Mark parameterizable Literal nodes with their token ordinal.

    Returns the ordinals compiled as parameter readers; every other
    ordinal is structural (its value belongs in the cache key).  A
    literal token that cannot be matched one-to-one to an AST node (by
    exact source position, kind and value) is kept structural — a safe
    degradation to exact-value caching, never an unsound reuse.
    """
    structural_positions = _structural_positions(module)
    by_position: Dict[Tuple[int, int], int] = {
        (literal.line, literal.column): ordinal
        for ordinal, literal in enumerate(literals)
    }

    matched: Dict[int, ast.Literal] = {}
    nodes = list(_walk(module.expression))
    for declaration in module.declarations:
        nodes.extend(_walk(declaration))
    for node in nodes:
        if not isinstance(node, ast.Literal):
            continue
        ordinal = by_position.get((node.line, node.column))
        if ordinal is None:
            continue
        literal = literals[ordinal]
        if literal.kind == node.kind and literal.value == node.value:
            matched[ordinal] = node

    slots: List[int] = []
    for ordinal, node in sorted(matched.items()):
        if (node.line, node.column) not in structural_positions:
            node.parameter_slot = ordinal
            slots.append(ordinal)
    return tuple(slots)


@shared_state
class PlanCache:
    """LRU cache of compiled plans keyed on normalized query shape.

    The two-level key is ``(shape, external variable names)`` →
    structural literal values → plan: queries sharing a shape but
    differing in a plan-relevant literal (say a pushed predicate bound)
    get distinct entries, while run-time-only literal changes hit the
    same plan with a different parameter vector.

    Thread-safe: the server compiles concurrent misses outside the lock
    (duplicate compiles of the same shape are harmless — last one wins).

    An exact-text memo fronts the normalized key: byte-identical repeats
    of a query skip re-tokenization entirely (the same trick production
    plan caches use — hash the raw statement before normalizing).  The
    memo is only a shortcut to a live plan entry; it never resurrects an
    evicted plan.
    """

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self._lock = san_lock("server.plan_cache")
        #: (shape, external) -> structural ordinal tuple for that shape.
        self._structural: Dict[Tuple, Tuple[int, ...]] = {}
        #: plan key -> the engine's :class:`CompiledQuery`.
        self._plans: "OrderedDict[Tuple, object]" = OrderedDict()
        #: (query_text, external) -> (plan key, literals) fast path.
        self._exact: "OrderedDict[Tuple, Tuple[Tuple, List[TokenLiteral]]]" \
            = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._plans)

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._plans),
        }

    def _count(self, engine, outcome: str) -> None:
        obs = getattr(engine.runtime, "obs", None)
        if obs is not None and obs.enabled:
            obs.metrics.counter("rumble.plancache." + outcome).inc()

    def fetch(self, engine, query_text: str, external: Tuple[str, ...] = ()
              ) -> Tuple[object, List[TokenLiteral], bool]:
        """(compiled plan, literals, hit) for a query; a miss compiles
        through ``engine.compile``, from the tokens lexed here."""
        exact_key = (query_text, tuple(external))
        with self._lock:
            memo = self._exact.get(exact_key)
            if memo is not None:
                key, literals = memo
                plan = self._plans.get(key)
                if plan is not None:
                    self._plans.move_to_end(key)
                    self._exact.move_to_end(exact_key)
                    self.hits += 1
                else:
                    # The plan was evicted; the memo entry died with it.
                    del self._exact[exact_key]
                    plan = None
        if memo is not None and plan is not None:
            self._count(engine, "hits")
            return plan, literals, True

        tokens = engine.lex(query_text)
        shape, literals = fingerprint(query_text, tokens)
        base = (shape, tuple(external))
        with self._lock:
            structural = self._structural.get(base)
            if structural is not None:
                key = base + (tuple(
                    (literals[o].kind, literals[o].value)
                    for o in structural
                ),)
                plan = self._plans.get(key)
                if plan is not None:
                    self._plans.move_to_end(key)
                    self._memo(exact_key, key, literals)
                    self.hits += 1
                    hit = True
                else:
                    hit = False
            else:
                hit = False
        if hit:
            self._count(engine, "hits")
            return plan, literals, True

        # Compile outside the lock: parsing and code generation are the
        # expensive part and touch no cache state.
        plan = engine.compile(
            query_text, external, tokens=tokens, literals=literals
        )
        structural = tuple(
            o for o in range(len(literals)) if o not in plan.slots
        )
        key = base + (tuple(
            (literals[o].kind, literals[o].value) for o in structural
        ),)
        with self._lock:
            self._structural[base] = structural
            self._plans[key] = plan
            self._plans.move_to_end(key)
            self._memo(exact_key, key, literals)
            self.misses += 1
            while len(self._plans) > self.capacity:
                evicted_key, _ = self._plans.popitem(last=False)
                self.evictions += 1
                base_of = evicted_key[:2]
                if not any(k[:2] == base_of for k in self._plans):
                    self._structural.pop(base_of, None)
        self._count(engine, "misses")
        return plan, literals, False

    def _memo(self, exact_key: Tuple, key: Tuple,
              literals: List[TokenLiteral]) -> None:
        """Record the raw-text shortcut (caller holds the lock)."""
        self._exact[exact_key] = (key, literals)
        self._exact.move_to_end(exact_key)
        while len(self._exact) > 4 * self.capacity:
            self._exact.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self._structural.clear()
            self._exact.clear()
