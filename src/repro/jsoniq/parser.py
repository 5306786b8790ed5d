"""Recursive-descent parser for the supported JSONiq grammar.

Produces the AST of :mod:`repro.jsoniq.ast`.  Operator precedence follows
the JSONiq specification, lowest first::

    comma > flwor/if/switch/try/quantified > or > and > not > comparison
    > string-concat > range > additive > multiplicative > instance-of
    > treat > castable > cast > unary > simple-map > postfix > primary
"""

from __future__ import annotations

from decimal import Decimal
from typing import List, Optional, Tuple

from repro.jsoniq import ast
from repro.jsoniq.errors import ParseException
from repro.jsoniq.lexer import Token, tokenize

_VALUE_COMPARISONS = {"eq", "ne", "lt", "le", "gt", "ge"}
_GENERAL_COMPARISONS = {"=", "!=", "<", "<=", ">", ">="}
_ATOMIC_TYPES = {
    "string", "integer", "decimal", "double", "boolean", "null", "atomic",
    "date", "number", "dateTime", "time", "duration",
    "dayTimeDuration", "yearMonthDuration",
}
_ITEM_TYPES = _ATOMIC_TYPES | {"item", "object", "array", "json-item"}

#: Keywords that are also builtin function names and may appear in a
#: function-call position (``count(...)``, ``empty(...)``, ``null()``).
_KEYWORD_FUNCTIONS = frozenset({"count", "empty", "null"})


class Parser:
    """Recursive descent over a token list (``lexer.tokenize``'s output:
    whoever lexed the text hands the tokens over, nobody lexes twice)."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._index = 0

    # -- Token plumbing -------------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        index = min(self._index + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.kind != "eof":
            self._index += 1
        return token

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self._peek().matches(kind, text):
            return self._advance()
        return None

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self._accept(kind, text)
        if token is None:
            found = self._peek()
            raise ParseException(
                "expected {}{}, found {!r}".format(
                    kind,
                    " {!r}".format(text) if text else "",
                    found.text or "end of query",
                ),
                line=found.line,
                column=found.column,
            )
        return token

    def _pos(self) -> dict:
        token = self._peek()
        return {"line": token.line, "column": token.column}

    def _name_like(self) -> Optional[Token]:
        """Accept a name even when it collides with a keyword (object keys,
        lookup keys)."""
        if self._peek().kind in ("name", "keyword"):
            return self._advance()
        return None

    # -- Entry points ------------------------------------------------------------
    def parse_module(self) -> ast.MainModule:
        pos = self._pos()
        declarations = self._parse_prolog()
        expression = self.parse_expression()
        token = self._peek()
        if token.kind != "eof":
            raise ParseException(
                "unexpected trailing input {!r}".format(token.text),
                line=token.line,
                column=token.column,
            )
        return ast.MainModule(declarations, expression, **pos)

    def _parse_prolog(self) -> List[ast.AstNode]:
        declarations: List[ast.AstNode] = []
        while self._peek().matches("keyword", "declare"):
            self._advance()
            if self._accept("keyword", "function"):
                declarations.append(self._parse_function_declaration())
            elif self._accept("keyword", "variable"):
                declarations.append(self._parse_variable_declaration())
            else:
                token = self._peek()
                raise ParseException(
                    "expected 'function' or 'variable' after 'declare'",
                    line=token.line,
                    column=token.column,
                )
            self._expect("punct", ";")
        return declarations

    def _parse_function_declaration(self) -> ast.FunctionDeclaration:
        pos = self._pos()
        name = self._expect("name").text
        self._expect("punct", "(")
        parameters: List[str] = []
        parameter_types: List[Optional[ast.SequenceType]] = []
        if not self._accept("punct", ")"):
            while True:
                self._expect("punct", "$")
                parameters.append(self._expect_name_text())
                parameter_types.append(self._maybe_type_annotation())
                if not self._accept("punct", ","):
                    break
            self._expect("punct", ")")
        return_type = self._maybe_return_type()
        self._expect("punct", "{")
        body = self.parse_expression()
        self._expect("punct", "}")
        return ast.FunctionDeclaration(
            name, parameters, body,
            parameter_types=parameter_types, return_type=return_type, **pos
        )

    def _parse_variable_declaration(self) -> ast.VariableDeclaration:
        pos = self._pos()
        self._expect("punct", "$")
        name = self._expect_name_text()
        declared_type = self._maybe_type_annotation()
        if self._accept("keyword", "external"):
            return ast.VariableDeclaration(
                name, None, declared_type=declared_type, **pos
            )
        self._expect("punct", ":=")
        expression = self.parse_expression_single()
        return ast.VariableDeclaration(
            name, expression, declared_type=declared_type, **pos
        )

    def _expect_name_text(self) -> str:
        token = self._name_like()
        if token is None:
            found = self._peek()
            raise ParseException(
                "expected a name, found {!r}".format(found.text),
                line=found.line,
                column=found.column,
            )
        return token.text

    def _maybe_type_annotation(self) -> Optional[ast.SequenceType]:
        if self._accept("keyword", "as"):
            return self._parse_sequence_type()
        return None

    def _maybe_return_type(self) -> Optional[ast.SequenceType]:
        if self._accept("keyword", "as"):
            return self._parse_sequence_type()
        return None

    # -- Expressions ----------------------------------------------------------------
    def parse_expression(self) -> ast.Expression:
        pos = self._pos()
        first = self.parse_expression_single()
        if not self._peek().matches("punct", ","):
            return first
        expressions = [first]
        while self._accept("punct", ","):
            expressions.append(self.parse_expression_single())
        return ast.CommaExpression(expressions, **pos)

    def parse_expression_single(self) -> ast.Expression:
        token = self._peek()
        if token.kind == "keyword":
            if token.text in ("for", "let"):
                return self._parse_flwor()
            if token.text == "if":
                return self._parse_if()
            if token.text == "switch":
                return self._parse_switch()
            if token.text == "typeswitch":
                return self._parse_typeswitch()
            if token.text == "try":
                return self._parse_try_catch()
            if token.text in ("some", "every"):
                return self._parse_quantified()
        return self._parse_or()

    # -- FLWOR --------------------------------------------------------------------------
    def _parse_flwor(self) -> ast.FlworExpression:
        pos = self._pos()
        clauses: List[ast.Clause] = []
        clauses.extend(self._parse_initial_clause())
        while True:
            token = self._peek()
            if token.matches("keyword", "for") or token.matches("keyword", "let"):
                clauses.extend(self._parse_initial_clause())
            elif token.matches("keyword", "where"):
                clause_pos = self._pos()
                self._advance()
                clauses.append(
                    ast.WhereClause(self.parse_expression_single(), **clause_pos)
                )
            elif token.matches("keyword", "group"):
                clauses.append(self._parse_group_by())
            elif token.matches("keyword", "order") or token.matches(
                "keyword", "stable"
            ):
                clauses.append(self._parse_order_by())
            elif token.matches("keyword", "count"):
                clause_pos = self._pos()
                self._advance()
                self._expect("punct", "$")
                clauses.append(
                    ast.CountClause(self._expect_name_text(), **clause_pos)
                )
            elif token.matches("keyword", "return"):
                clause_pos = self._pos()
                self._advance()
                clauses.append(
                    ast.ReturnClause(self.parse_expression_single(), **clause_pos)
                )
                return ast.FlworExpression(clauses, **pos)
            else:
                raise ParseException(
                    "expected a FLWOR clause, found {!r}".format(token.text),
                    line=token.line,
                    column=token.column,
                )

    def _parse_initial_clause(self) -> List[ast.Clause]:
        if self._peek().matches("keyword", "for"):
            follower = self._peek(1)
            if follower.kind == "keyword" and follower.text in (
                "tumbling", "sliding"
            ):
                return [self._parse_window()]
            return self._parse_for()
        return self._parse_let()

    def _parse_window(self) -> ast.WindowClause:
        pos = self._pos()
        self._expect("keyword", "for")
        kind = self._advance().text  # tumbling | sliding
        self._expect("keyword", "window")
        self._expect("punct", "$")
        variable = self._expect_name_text()
        declared_type = self._maybe_type_annotation()
        self._expect("keyword", "in")
        expression = self.parse_expression_single()
        self._expect("keyword", "start")
        start = ast.WindowCondition(
            self._parse_window_vars(), self._parse_window_when()
        )
        end = None
        only = bool(self._accept("keyword", "only"))
        if only or self._peek().matches("keyword", "end"):
            self._expect("keyword", "end")
            end = ast.WindowCondition(
                self._parse_window_vars(),
                self._parse_window_when(),
                only=only,
            )
        elif only:
            raise ParseException("'only' must be followed by 'end'")
        if kind == "sliding" and end is None:
            raise ParseException(
                "sliding windows require an end condition"
            )
        return ast.WindowClause(kind, variable, expression, start, end,
                                declared_type=declared_type, **pos)

    def _parse_window_vars(self) -> ast.WindowVars:
        current = position = previous = next_ = None
        if self._peek().matches("punct", "$"):
            self._advance()
            current = self._expect_name_text()
        if self._accept("keyword", "at"):
            self._expect("punct", "$")
            position = self._expect_name_text()
        if self._accept("keyword", "previous"):
            self._expect("punct", "$")
            previous = self._expect_name_text()
        if self._accept("keyword", "next"):
            self._expect("punct", "$")
            next_ = self._expect_name_text()
        return ast.WindowVars(current, position, previous, next_)

    def _parse_window_when(self) -> ast.Expression:
        self._expect("keyword", "when")
        return self.parse_expression_single()

    def _parse_for(self) -> List[ast.Clause]:
        self._expect("keyword", "for")
        clauses: List[ast.Clause] = []
        while True:
            pos = self._pos()
            self._expect("punct", "$")
            variable = self._expect_name_text()
            declared_type = self._maybe_type_annotation()
            allowing_empty = False
            if self._accept("keyword", "allowing"):
                self._expect("keyword", "empty")
                allowing_empty = True
            position_variable = None
            if self._accept("keyword", "at"):
                self._expect("punct", "$")
                position_variable = self._expect_name_text()
            self._expect("keyword", "in")
            expression = self.parse_expression_single()
            clauses.append(
                ast.ForClause(
                    variable,
                    expression,
                    allowing_empty=allowing_empty,
                    position_variable=position_variable,
                    declared_type=declared_type,
                    **pos,
                )
            )
            if not self._accept("punct", ","):
                return clauses

    def _parse_let(self) -> List[ast.Clause]:
        self._expect("keyword", "let")
        clauses: List[ast.Clause] = []
        while True:
            pos = self._pos()
            self._expect("punct", "$")
            variable = self._expect_name_text()
            declared_type = self._maybe_type_annotation()
            self._expect("punct", ":=")
            expression = self.parse_expression_single()
            clauses.append(ast.LetClause(
                variable, expression, declared_type=declared_type, **pos
            ))
            if not self._accept("punct", ","):
                return clauses

    def _parse_group_by(self) -> ast.GroupByClause:
        pos = self._pos()
        self._expect("keyword", "group")
        self._expect("keyword", "by")
        keys: List[ast.GroupByKey] = []
        while True:
            self._expect("punct", "$")
            variable = self._expect_name_text()
            expression = None
            if self._accept("punct", ":="):
                expression = self.parse_expression_single()
            keys.append(ast.GroupByKey(variable, expression))
            if not self._accept("punct", ","):
                return ast.GroupByClause(keys, **pos)

    def _parse_order_by(self) -> ast.OrderByClause:
        pos = self._pos()
        stable = bool(self._accept("keyword", "stable"))
        self._expect("keyword", "order")
        self._expect("keyword", "by")
        specs: List[ast.OrderSpec] = []
        while True:
            expression = self.parse_expression_single()
            ascending = True
            if self._accept("keyword", "descending"):
                ascending = False
            else:
                self._accept("keyword", "ascending")
            empty_greatest = False
            if self._accept("keyword", "empty"):
                if self._accept("keyword", "greatest"):
                    empty_greatest = True
                else:
                    self._expect("keyword", "least")
            specs.append(ast.OrderSpec(expression, ascending, empty_greatest))
            if not self._accept("punct", ","):
                return ast.OrderByClause(specs, stable=stable, **pos)

    # -- Control flow ----------------------------------------------------------------------
    def _parse_if(self) -> ast.IfExpression:
        pos = self._pos()
        self._expect("keyword", "if")
        self._expect("punct", "(")
        condition = self.parse_expression()
        self._expect("punct", ")")
        self._expect("keyword", "then")
        then_branch = self.parse_expression_single()
        self._expect("keyword", "else")
        else_branch = self.parse_expression_single()
        return ast.IfExpression(condition, then_branch, else_branch, **pos)

    def _parse_switch(self) -> ast.SwitchExpression:
        pos = self._pos()
        self._expect("keyword", "switch")
        self._expect("punct", "(")
        subject = self.parse_expression()
        self._expect("punct", ")")
        cases: List[Tuple[List[ast.Expression], ast.Expression]] = []
        while self._accept("keyword", "case"):
            tests = [self.parse_expression_single()]
            while self._accept("keyword", "case"):
                tests.append(self.parse_expression_single())
            self._expect("keyword", "return")
            cases.append((tests, self.parse_expression_single()))
        self._expect("keyword", "default")
        self._expect("keyword", "return")
        default = self.parse_expression_single()
        if not cases:
            raise ParseException("switch requires at least one case")
        return ast.SwitchExpression(subject, cases, default, **pos)

    def _parse_typeswitch(self) -> ast.TypeswitchExpression:
        pos = self._pos()
        self._expect("keyword", "typeswitch")
        self._expect("punct", "(")
        subject = self.parse_expression()
        self._expect("punct", ")")
        cases = []
        while self._accept("keyword", "case"):
            variable = None
            if self._accept("punct", "$"):
                variable = self._expect_name_text()
                self._expect("keyword", "as")
            sequence_type = self._parse_sequence_type()
            self._expect("keyword", "return")
            cases.append((variable, sequence_type,
                          self.parse_expression_single()))
        if not cases:
            raise ParseException("typeswitch requires at least one case")
        self._expect("keyword", "default")
        default_variable = None
        if self._accept("punct", "$"):
            default_variable = self._expect_name_text()
        self._expect("keyword", "return")
        default = self.parse_expression_single()
        return ast.TypeswitchExpression(
            subject, cases, default_variable, default, **pos
        )

    def _parse_try_catch(self) -> ast.TryCatchExpression:
        pos = self._pos()
        self._expect("keyword", "try")
        self._expect("punct", "{")
        try_expr = self.parse_expression()
        self._expect("punct", "}")
        self._expect("keyword", "catch")
        codes: Optional[List[str]] = None
        if not self._accept("punct", "*"):
            codes = [self._expect_name_text()]
            while self._accept("punct", "|"):
                codes.append(self._expect_name_text())
        self._expect("punct", "{")
        catch_expr = self.parse_expression()
        self._expect("punct", "}")
        return ast.TryCatchExpression(try_expr, catch_expr, codes, **pos)

    def _parse_quantified(self) -> ast.QuantifiedExpression:
        pos = self._pos()
        quantifier = self._advance().text  # some | every
        bindings: List[Tuple[str, ast.Expression]] = []
        binding_types: List[Optional[ast.SequenceType]] = []
        while True:
            self._expect("punct", "$")
            variable = self._expect_name_text()
            binding_types.append(self._maybe_type_annotation())
            self._expect("keyword", "in")
            bindings.append((variable, self.parse_expression_single()))
            if not self._accept("punct", ","):
                break
        self._expect("keyword", "satisfies")
        condition = self.parse_expression_single()
        return ast.QuantifiedExpression(
            quantifier, bindings, condition,
            binding_types=binding_types, **pos
        )

    # -- Operator precedence chain -------------------------------------------------------------
    def _parse_or(self) -> ast.Expression:
        pos = self._pos()
        left = self._parse_and()
        while self._accept("keyword", "or"):
            left = ast.BinaryExpression("or", left, self._parse_and(), **pos)
        return left

    def _parse_and(self) -> ast.Expression:
        pos = self._pos()
        left = self._parse_not()
        while self._accept("keyword", "and"):
            left = ast.BinaryExpression("and", left, self._parse_not(), **pos)
        return left

    def _parse_not(self) -> ast.Expression:
        pos = self._pos()
        if self._accept("keyword", "not"):
            return ast.UnaryExpression("not", self._parse_not(), **pos)
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expression:
        pos = self._pos()
        left = self._parse_string_concat()
        token = self._peek()
        if token.kind == "keyword" and token.text in _VALUE_COMPARISONS:
            op = self._advance().text
            return ast.ComparisonExpression(
                op, left, self._parse_string_concat(), **pos
            )
        if token.kind == "punct" and token.text in _GENERAL_COMPARISONS:
            op = self._advance().text
            return ast.ComparisonExpression(
                op, left, self._parse_string_concat(), **pos
            )
        return left

    def _parse_string_concat(self) -> ast.Expression:
        pos = self._pos()
        first = self._parse_range()
        if not self._peek().matches("punct", "||"):
            return first
        parts = [first]
        while self._accept("punct", "||"):
            parts.append(self._parse_range())
        return ast.StringConcatExpression(parts, **pos)

    def _parse_range(self) -> ast.Expression:
        pos = self._pos()
        start = self._parse_additive()
        if self._accept("keyword", "to"):
            return ast.RangeExpression(start, self._parse_additive(), **pos)
        return start

    def _parse_additive(self) -> ast.Expression:
        pos = self._pos()
        left = self._parse_multiplicative()
        while True:
            if self._accept("punct", "+"):
                left = ast.BinaryExpression(
                    "+", left, self._parse_multiplicative(), **pos
                )
            elif self._accept("punct", "-"):
                left = ast.BinaryExpression(
                    "-", left, self._parse_multiplicative(), **pos
                )
            else:
                return left

    def _parse_multiplicative(self) -> ast.Expression:
        pos = self._pos()
        left = self._parse_instance_of()
        while True:
            token = self._peek()
            if token.matches("punct", "*"):
                self._advance()
                op = "*"
            elif token.kind == "keyword" and token.text in ("div", "idiv", "mod"):
                op = self._advance().text
            else:
                return left
            left = ast.BinaryExpression(
                op, left, self._parse_instance_of(), **pos
            )

    def _parse_instance_of(self) -> ast.Expression:
        pos = self._pos()
        operand = self._parse_treat()
        if self._peek().matches("keyword", "instance"):
            self._advance()
            self._expect("keyword", "of")
            return ast.InstanceOfExpression(
                operand, self._parse_sequence_type(), **pos
            )
        return operand

    def _parse_treat(self) -> ast.Expression:
        pos = self._pos()
        operand = self._parse_castable()
        if self._peek().matches("keyword", "treat"):
            self._advance()
            self._expect("keyword", "as")
            return ast.TreatExpression(
                operand, self._parse_sequence_type(), **pos
            )
        return operand

    def _parse_castable(self) -> ast.Expression:
        pos = self._pos()
        operand = self._parse_cast()
        if self._peek().matches("keyword", "castable"):
            self._advance()
            self._expect("keyword", "as")
            type_name, allows_empty = self._parse_single_type()
            return ast.CastExpression(
                operand, type_name, allows_empty, castable=True, **pos
            )
        return operand

    def _parse_cast(self) -> ast.Expression:
        pos = self._pos()
        operand = self._parse_unary()
        if self._peek().matches("keyword", "cast"):
            self._advance()
            self._expect("keyword", "as")
            type_name, allows_empty = self._parse_single_type()
            return ast.CastExpression(
                operand, type_name, allows_empty, castable=False, **pos
            )
        return operand

    def _parse_single_type(self) -> Tuple[str, bool]:
        name = self._expect_name_text()
        if name not in _ATOMIC_TYPES:
            raise ParseException("unknown atomic type {!r}".format(name))
        allows_empty = bool(self._accept("punct", "?"))
        return name, allows_empty

    def _parse_unary(self) -> ast.Expression:
        pos = self._pos()
        if self._accept("punct", "-"):
            return ast.UnaryExpression("-", self._parse_unary(), **pos)
        if self._accept("punct", "+"):
            return ast.UnaryExpression("+", self._parse_unary(), **pos)
        return self._parse_simple_map()

    def _parse_simple_map(self) -> ast.Expression:
        pos = self._pos()
        left = self._parse_postfix()
        while self._accept("punct", "!"):
            left = ast.SimpleMap(left, self._parse_postfix(), **pos)
        return left

    # -- Postfix -----------------------------------------------------------------------------------
    def _parse_postfix(self) -> ast.Expression:
        pos = self._pos()
        expression = self._parse_primary()
        while True:
            token = self._peek()
            if token.matches("punct", "."):
                self._advance()
                expression = ast.ObjectLookup(
                    expression, self._parse_lookup_key(), **pos
                )
            elif token.matches("punct", "[]"):
                self._advance()
                expression = ast.ArrayUnboxing(expression, **pos)
            elif token.matches("punct", "["):
                if self._peek(1).matches("punct", "["):
                    self._advance()
                    self._advance()
                    index = self.parse_expression()
                    self._expect("punct", "]")
                    self._expect("punct", "]")
                    expression = ast.ArrayLookup(expression, index, **pos)
                else:
                    self._advance()
                    condition = self.parse_expression()
                    self._expect("punct", "]")
                    expression = ast.Predicate(expression, condition, **pos)
            else:
                return expression

    def _parse_lookup_key(self) -> ast.Expression:
        pos = self._pos()
        token = self._peek()
        if token.kind == "string":
            self._advance()
            return ast.Literal("string", token.text, **pos)
        if token.matches("punct", "$"):
            self._advance()
            return ast.VariableReference(self._expect_name_text(), **pos)
        if token.matches("punct", "("):
            self._advance()
            key = self.parse_expression()
            self._expect("punct", ")")
            return key
        name = self._name_like()
        if name is not None:
            return ast.Literal("string", name.text, **pos)
        raise ParseException(
            "expected an object lookup key, found {!r}".format(token.text),
            line=token.line,
            column=token.column,
        )

    # -- Primary ---------------------------------------------------------------------------------------
    def _parse_primary(self) -> ast.Expression:
        pos = self._pos()
        token = self._peek()
        if (
            token.kind == "keyword"
            and token.text in _KEYWORD_FUNCTIONS
            and self._peek(1).matches("punct", "(")
        ):
            return self._parse_function_call()
        if token.kind == "string":
            self._advance()
            return ast.Literal("string", token.text, **pos)
        if token.kind == "integer":
            self._advance()
            return ast.Literal("integer", int(token.text), **pos)
        if token.kind == "decimal":
            self._advance()
            return ast.Literal("decimal", Decimal(token.text), **pos)
        if token.kind == "double":
            self._advance()
            return ast.Literal("double", float(token.text), **pos)
        if token.matches("keyword", "true"):
            self._advance()
            return ast.Literal("boolean", True, **pos)
        if token.matches("keyword", "false"):
            self._advance()
            return ast.Literal("boolean", False, **pos)
        if token.matches("keyword", "null"):
            self._advance()
            return ast.Literal("null", None, **pos)
        if token.matches("punct", "$$"):
            self._advance()
            return ast.ContextItem(**pos)
        if token.matches("punct", "$"):
            self._advance()
            return ast.VariableReference(self._expect_name_text(), **pos)
        if token.matches("punct", "("):
            self._advance()
            if self._accept("punct", ")"):
                return ast.EmptySequence(**pos)
            inner = self.parse_expression()
            self._expect("punct", ")")
            return inner
        if token.matches("punct", "{"):
            return self._parse_object_constructor()
        if token.matches("punct", "[]"):
            # The lexer fuses the empty array constructor into one token.
            self._advance()
            return ast.ArrayConstructor(None, **pos)
        if token.matches("punct", "["):
            return self._parse_array_constructor()
        if token.kind == "name" or (
            token.kind == "keyword" and token.text in _KEYWORD_FUNCTIONS
        ):
            if self._peek(1).matches("punct", "("):
                return self._parse_function_call()
            raise ParseException(
                "unexpected name {!r} (did you mean ${} or a function"
                " call?)".format(token.text, token.text),
                line=token.line,
                column=token.column,
            )
        raise ParseException(
            "unexpected token {!r}".format(token.text or "end of query"),
            line=token.line,
            column=token.column,
        )

    def _parse_object_constructor(self) -> ast.ObjectConstructor:
        pos = self._pos()
        self._expect("punct", "{")
        pairs: List[Tuple[ast.Expression, ast.Expression]] = []
        if self._accept("punct", "}"):
            return ast.ObjectConstructor(pairs, **pos)
        while True:
            key = self._parse_object_key()
            self._expect("punct", ":")
            value = self.parse_expression_single()
            pairs.append((key, value))
            if not self._accept("punct", ","):
                break
        self._expect("punct", "}")
        return ast.ObjectConstructor(pairs, **pos)

    def _parse_object_key(self) -> ast.Expression:
        """An object key: a literal shortcut when directly followed by
        ``:``, otherwise a full (dynamic) expression."""
        pos = self._pos()
        token = self._peek()
        follower = self._peek(1)
        if token.kind == "string" and follower.matches("punct", ":"):
            self._advance()
            return ast.Literal("string", token.text, **pos)
        if (
            token.kind in ("name", "keyword")
            and follower.matches("punct", ":")
        ):
            self._advance()
            return ast.Literal("string", token.text, **pos)
        return self.parse_expression_single()

    def _parse_array_constructor(self) -> ast.ArrayConstructor:
        pos = self._pos()
        self._expect("punct", "[")
        if self._accept("punct", "]"):
            return ast.ArrayConstructor(None, **pos)
        content = self.parse_expression()
        self._expect("punct", "]")
        return ast.ArrayConstructor(content, **pos)

    def _parse_function_call(self) -> ast.FunctionCall:
        pos = self._pos()
        name = self._advance().text  # name, or a whitelisted keyword
        self._expect("punct", "(")
        arguments: List[ast.Expression] = []
        if not self._accept("punct", ")"):
            while True:
                arguments.append(self.parse_expression_single())
                if not self._accept("punct", ","):
                    break
            self._expect("punct", ")")
        return ast.FunctionCall(name, arguments, **pos)

    # -- Types --------------------------------------------------------------------------------------------
    def _parse_sequence_type(self) -> ast.SequenceType:
        name = self._expect_name_text()
        if name == "empty-sequence":
            self._expect("punct", "(")
            self._expect("punct", ")")
            return ast.SequenceType("item", "()")
        if name not in _ITEM_TYPES:
            raise ParseException("unknown item type {!r}".format(name))
        if self._accept("punct", "("):
            self._expect("punct", ")")
        occurrence = ""
        token = self._peek()
        if token.kind == "punct" and token.text in ("?", "*", "+"):
            occurrence = self._advance().text
        return ast.SequenceType(name, occurrence)


def parse(text: str) -> ast.MainModule:
    """Parse a JSONiq main module (prolog + expression)."""
    return Parser(tokenize(text)).parse_module()


def parse_expression(text: str) -> ast.Expression:
    """Parse a single JSONiq expression (no prolog)."""
    return parse(text).expression
