"""AST, concrete syntax and static validation for the choice-Datalog dialect.

The dialect is Prolog-flavoured: `head :- goal, goal.` rules, `%` comments,
`\\=` disequality, `<` `=<` `>` `>=` comparisons, `C = C1 + C2` integer
arithmetic, and the goals `choice((X..),(Y..))`, `choice_least((X..),(C))`,
`choice_most((X..),(C))`.  See docs/dialect.md for the grammar.

All AST nodes are immutable and hashable; a parsed program can be shared
freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

MIN_INT = -(2**63)
MAX_INT = 2**63 - 1
_MAX_DIGITS = len(str(MAX_INT))  # 19; more significant digits never fit

CHOICE_KINDS = ("choice", "choice_least", "choice_most")
RESERVED_PREFIXES = ("chosen_", "diffchoice_")


class GdlogError(Exception):
    """Base class for all errors raised by this package."""


class DialectSyntaxError(GdlogError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


def int_in_range(text: str) -> int | None:
    """The integer that an optional '-' and one or more ASCII digits spell,
    or None when it lies outside the 64-bit signed range.  Any number of
    digits is fine: the digits are counted before int() reads them, which
    refuses strings longer than sys.get_int_max_str_digits()."""
    neg = text[0] == "-"
    digits = text[neg:].lstrip("0")
    if len(digits) > _MAX_DIGITS:
        return None
    value = int(digits or "0")
    if neg:
        value = -value
    return value if MIN_INT <= value <= MAX_INT else None


class ProgramError(GdlogError):
    """Raised by parse_program when a parsed program fails validation."""

    def __init__(self, diagnostics: list["Diagnostic"]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self):
        return f"Var({self.name})"


# Constants are plain Python values: 64-bit ints or interned symbol strings.
Const = Union[int, str]
Term = Union[Var, int, str]


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[Term, ...]

    @property
    def arity(self) -> int:
        return len(self.args)

    def vars(self) -> Iterator[Var]:
        for a in self.args:
            if isinstance(a, Var):
                yield a

    def is_ground(self) -> bool:
        return not any(isinstance(a, Var) for a in self.args)


@dataclass(frozen=True)
class Comparison:
    """Built-in test: `left op right` with op in \\=, <, =<, >, >=."""

    op: str
    left: Term
    right: Term

    def vars(self) -> Iterator[Var]:
        for t in (self.left, self.right):
            if isinstance(t, Var):
                yield t


@dataclass(frozen=True)
class PlusBinding:
    """Arithmetic binding `out = left + right` over 64-bit signed integers."""

    out: Var
    left: Term
    right: Term

    def vars(self) -> Iterator[Var]:
        yield self.out
        for t in (self.left, self.right):
            if isinstance(t, Var):
                yield t


BodyGoal = Union[Atom, Comparison, PlusBinding]


@dataclass(frozen=True)
class ChoiceGoal:
    """choice/choice_least/choice_most goal asserting the FD left -> right."""

    kind: str  # one of CHOICE_KINDS
    left: tuple[Var, ...]
    right: tuple[Var, ...]

    def vars(self) -> Iterator[Var]:
        yield from self.left
        yield from self.right


@dataclass(frozen=True)
class Rule:
    head: Atom
    body: tuple[BodyGoal, ...]
    choice_goals: tuple[ChoiceGoal, ...]
    rule_id: str = field(default="", compare=False)
    line: int = field(default=0, compare=False)

    def body_atoms(self) -> Iterator[Atom]:
        for g in self.body:
            if isinstance(g, Atom):
                yield g


@dataclass(frozen=True)
class Program:
    rules: tuple[Rule, ...]
    facts: tuple[Atom, ...]

    def predicates(self) -> dict[str, int]:
        """Predicate -> arity map across rules and facts."""
        out: dict[str, int] = {}
        for f in self.facts:
            out.setdefault(f.pred, f.arity)
        for r in self.rules:
            out.setdefault(r.head.pred, r.head.arity)
            for a in r.body_atoms():
                out.setdefault(a.pred, a.arity)
        return out


@dataclass(frozen=True)
class Diagnostic:
    rule_id: str
    message: str
    line: int = 0

    def __str__(self):
        where = self.rule_id or "program"
        return f"{where}: {self.message}"


# ---------------------------------------------------------------------------
# Lexer

_SYMBOLS = [":-", "=<", ">=", "\\=", "(", ")", ",", ".", "<", ">", "=", "+"]


@dataclass(frozen=True)
class _Tok:
    kind: str  # ident / var / int / punct / eof
    value: object
    line: int
    col: int
    quoted: bool  # an ident written between quotes


_DIGITS = "0123456789"  # str.isdigit would also take '²' and other scripts' digits


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                if text[j] == "\n":
                    raise DialectSyntaxError("unterminated quoted symbol", start_line, start_col)
                if text[j] in "\t\r":
                    # no fact or model cell can hold one
                    raise DialectSyntaxError(f"quoted symbol holds {text[j]!r}", start_line, start_col)
                j += 1
            if j >= n:
                raise DialectSyntaxError("unterminated quoted symbol", start_line, start_col)
            toks.append(_Tok("ident", text[i + 1 : j], start_line, start_col, True))
            col += j + 1 - i
            i = j + 1
            continue
        if c in _DIGITS or (c == "-" and i + 1 < n and text[i + 1] in _DIGITS):
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            value = int_in_range(text[i:j])
            if value is None:
                raise DialectSyntaxError("integer literal outside 64-bit range", start_line, start_col)
            toks.append(_Tok("int", value, start_line, start_col, False))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "var" if (c == "_" or c.isupper()) else "ident"
            toks.append(_Tok(kind, word, start_line, start_col, False))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(_Tok("punct", sym, start_line, start_col, False))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise DialectSyntaxError(f"unexpected character {c!r}", start_line, start_col)
    toks.append(_Tok("eof", None, line, col, False))
    return toks


# ---------------------------------------------------------------------------
# Parser

_COMPARE_OPS = ("\\=", "<", "=<", ">", ">=")


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self._anon = 0

    def peek(self, ahead: int = 0) -> _Tok:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, value: str) -> _Tok:
        t = self.next()
        if t.kind != "punct" or t.value != value:
            raise DialectSyntaxError(f"expected {value!r}, found {t.value!r}", t.line, t.col)
        return t

    def fail(self, msg: str) -> None:
        t = self.peek()
        raise DialectSyntaxError(msg, t.line, t.col)

    # grammar ---------------------------------------------------------------

    def program(self) -> Program:
        rules: list[Rule] = []
        facts: list[Atom] = []
        while self.peek().kind != "eof":
            self._anon = 0
            head_tok = self.peek()
            head = self.atom()
            t = self.next()
            if t.kind == "punct" and t.value == ".":
                if head.is_ground():
                    facts.append(head)
                else:
                    # keep the clause as a bodyless rule; validation reports
                    # the unbound head variables with a location
                    rules.append(Rule(head, (), (), rule_id=f"r{len(rules)+1}", line=head_tok.line))
                continue
            if not (t.kind == "punct" and t.value == ":-"):
                raise DialectSyntaxError(f"expected '.' or ':-', found {t.value!r}", t.line, t.col)
            if head.pred in CHOICE_KINDS and not head_tok.quoted:
                raise DialectSyntaxError(
                    f"a bare {head.pred} cannot head a rule; write '{head.pred}' to name a predicate",
                    head_tok.line,
                    head_tok.col,
                )
            body: list[BodyGoal] = []
            choices: list[ChoiceGoal] = []
            while True:
                goal = self.goal()
                if isinstance(goal, ChoiceGoal):
                    choices.append(goal)
                else:
                    body.append(goal)
                t = self.next()
                if t.kind == "punct" and t.value == ",":
                    continue
                if t.kind == "punct" and t.value == ".":
                    break
                raise DialectSyntaxError(f"expected ',' or '.', found {t.value!r}", t.line, t.col)
            rules.append(
                Rule(head, tuple(body), tuple(choices), rule_id=f"r{len(rules)+1}", line=head_tok.line)
            )
        return Program(tuple(rules), tuple(facts))

    def goal(self) -> Union[BodyGoal, ChoiceGoal]:
        t = self.peek()
        # a quoted 'choice' names a predicate; only the bare keyword starts
        # a choice goal
        if t.kind == "ident" and not t.quoted and t.value in CHOICE_KINDS and self._is_punct(1, "("):
            return self.choice_goal()
        if t.kind == "ident" and self._is_punct(1, "("):
            return self.atom()
        if t.kind == "ident" and not self._peek_is_compare(1):
            return self.atom()  # zero-arity predicate
        left = self.term()
        op = self.peek()
        if op.kind == "punct" and op.value in _COMPARE_OPS:
            self.next()
            right = self.term()
            return Comparison(str(op.value), left, right)
        if op.kind == "punct" and op.value == "=":
            if not isinstance(left, Var):
                raise DialectSyntaxError("left side of '=' must be a variable", op.line, op.col)
            self.next()
            a = self.term()
            self.expect("+")
            b = self.term()
            return PlusBinding(left, a, b)
        self.fail("expected a comparison or arithmetic operator")
        raise AssertionError  # unreachable

    def _is_punct(self, ahead: int, value: str) -> bool:
        t = self.peek(ahead)
        return t.kind == "punct" and t.value == value

    def _peek_is_compare(self, ahead: int) -> bool:
        t = self.peek(ahead)
        return t.kind == "punct" and t.value in _COMPARE_OPS

    def choice_goal(self) -> ChoiceGoal:
        kind = str(self.next().value)
        self.expect("(")
        left = self.var_list()
        self.expect(",")
        right = self.var_list()
        self.expect(")")
        return ChoiceGoal(kind, left, right)

    def var_list(self) -> tuple[Var, ...]:
        # either a parenthesized list `(X, Y)` (possibly empty) or a bare
        # variable; `choice((),X)` and `choice((),(X))` are the same goal
        if self._is_punct(0, "("):
            self.next()
            if self._is_punct(0, ")"):
                self.next()
                return ()
            out = [self.variable()]
            while self._is_punct(0, ","):
                self.next()
                out.append(self.variable())
            self.expect(")")
            return tuple(out)
        return (self.variable(),)

    def variable(self) -> Var:
        t = self.next()
        if t.kind != "var":
            raise DialectSyntaxError(f"expected a variable, found {t.value!r}", t.line, t.col)
        return self._mk_var(str(t.value))

    def _mk_var(self, name: str) -> Var:
        if name == "_":
            self._anon += 1
            return Var(f"_#{self._anon}")
        return Var(name)

    def atom(self) -> Atom:
        t = self.next()
        if t.kind != "ident":
            raise DialectSyntaxError(f"expected a predicate name, found {t.value!r}", t.line, t.col)
        pred = str(t.value)
        if pred.startswith("%"):
            # a model line starting with '%' is a comment to read_model
            raise DialectSyntaxError(f"predicate name {pred!r} starts with '%'", t.line, t.col)
        if not self._is_punct(0, "("):
            return Atom(pred, ())
        self.next()
        args = [self.term()]
        while self._is_punct(0, ","):
            self.next()
            args.append(self.term())
        self.expect(")")
        return Atom(pred, tuple(args))

    def term(self) -> Term:
        t = self.next()
        if t.kind == "var":
            return self._mk_var(str(t.value))
        if t.kind == "int":
            return int(t.value)  # type: ignore[arg-type]
        if t.kind == "ident":
            return str(t.value)
        raise DialectSyntaxError(f"expected a term, found {t.value!r}", t.line, t.col)


# ---------------------------------------------------------------------------
# Validation


def validate(program: Program) -> list[Diagnostic]:
    """Check every static invariant; an empty list means the program is well formed."""
    diags: list[Diagnostic] = []
    arities: dict[str, tuple[int, str]] = {}

    def check_arity(atom: Atom, rid: str, line: int):
        seen = arities.get(atom.pred)
        if seen is None:
            arities[atom.pred] = (atom.arity, rid)
        elif seen[0] != atom.arity:
            diags.append(
                Diagnostic(rid, f"arity clash: {atom.pred} used with {atom.arity} and {seen[0]} arguments", line)
            )

    for f in program.facts:
        check_arity(f, "fact", 0)
        _check_name(f.pred, "fact", 0, diags)

    for r in program.rules:
        rid = r.rule_id
        check_arity(r.head, rid, r.line)
        _check_name(r.head.pred, rid, r.line, diags)
        for a in r.body_atoms():
            check_arity(a, rid, r.line)
            _check_name(a.pred, rid, r.line, diags)

        # left-to-right binding discipline
        bound: set[Var] = set()
        for g in r.body:
            if isinstance(g, Atom):
                bound.update(g.vars())
            elif isinstance(g, Comparison):
                for v in g.vars():
                    if v not in bound:
                        diags.append(
                            Diagnostic(rid, f"comparison operand {_var_name(v)} is not bound by an earlier goal", r.line)
                        )
            else:  # PlusBinding
                for t in (g.left, g.right):
                    if isinstance(t, Var) and t not in bound:
                        diags.append(
                            Diagnostic(rid, f"arithmetic operand {_var_name(t)} is not bound by an earlier goal", r.line)
                        )
                if g.out in bound:
                    diags.append(
                        Diagnostic(rid, f"arithmetic result {_var_name(g.out)} is already bound", r.line)
                    )
                bound.add(g.out)

        for v in r.head.vars():
            if v not in bound:
                diags.append(Diagnostic(rid, f"head variable {_var_name(v)} is unbound", r.line))

        n_least = sum(1 for c in r.choice_goals if c.kind == "choice_least")
        n_most = sum(1 for c in r.choice_goals if c.kind == "choice_most")
        if n_least > 1:
            diags.append(Diagnostic(rid, "at most one choice_least goal per rule", r.line))
        if n_most > 1:
            diags.append(Diagnostic(rid, "at most one choice_most goal per rule", r.line))
        if n_least and n_most:
            diags.append(Diagnostic(rid, "choice_least and choice_most cannot share a rule", r.line))

        for c in r.choice_goals:
            if set(c.left) & set(c.right):
                diags.append(Diagnostic(rid, f"{c.kind}: X ∩ Y nonempty", r.line))
            for v in c.vars():
                if v not in bound:
                    diags.append(
                        Diagnostic(rid, f"{c.kind} variable {_var_name(v)} does not occur in the body", r.line)
                    )
            if c.kind in ("choice_least", "choice_most") and len(c.right) != 1:
                diags.append(Diagnostic(rid, f"{c.kind} right side must be a single cost variable", r.line))

    return diags


def _var_name(v: Var) -> str:
    return "_" if v.name.startswith("_#") else v.name


def predicate_name_error(pred: str) -> str | None:
    """What keeps pred from naming a predicate, or None.  chosen_r and
    diffchoice_r hold only what a run itself chooses; a model line starting
    with '%' is a comment to read_model; a tab, '\\n' or '\\r' would split
    the predicate's model and fact lines."""
    if pred.startswith(RESERVED_PREFIXES):
        return "uses a reserved prefix"
    if pred.startswith("%"):
        return "starts with '%'"
    return next((f"holds {c!r}" for c in "\t\n\r" if c in pred), None)


def _check_name(pred: str, rid: str, line: int, diags: list[Diagnostic]):
    if why := predicate_name_error(pred):
        diags.append(Diagnostic(rid, f"predicate name {pred} {why}", line))


def parse_program(text: str) -> Program:
    """Parse dialect source into a validated Program; a ProgramError
    carrying all diagnostics is raised if any check fails."""
    program = _Parser(text).program()
    diags = validate(program)
    if diags:
        raise ProgramError(diags)
    return program


# ---------------------------------------------------------------------------
# Canonical printer


def format_term(t: Term) -> str:
    if isinstance(t, Var):
        return _var_name(t)
    return format_const(t)


def format_const(c: Const) -> str:
    if isinstance(c, int):
        return str(c)
    if c and c[0].isalpha() and c[0].islower() and c.replace("_", "").isalnum():
        return c
    return f"'{c}'"


def format_atom(a: Atom) -> str:
    # a bare choice keyword in a body would read back as a choice goal
    pred = f"'{a.pred}'" if a.pred in CHOICE_KINDS else format_const(a.pred)
    if not a.args:
        return pred
    return f"{pred}({', '.join(format_term(t) for t in a.args)})"


def format_goal(g: Union[BodyGoal, ChoiceGoal]) -> str:
    if isinstance(g, Atom):
        return format_atom(g)
    if isinstance(g, Comparison):
        return f"{format_term(g.left)} {g.op} {format_term(g.right)}"
    if isinstance(g, PlusBinding):
        return f"{format_term(g.out)} = {format_term(g.left)} + {format_term(g.right)}"
    vs = lambda vars_: "(" + ", ".join(_var_name(v) for v in vars_) + ")"
    return f"{g.kind}({vs(g.left)}, {vs(g.right)})"


def format_rule(r: Rule) -> str:
    goals = [format_goal(g) for g in r.body] + [format_goal(c) for c in r.choice_goals]
    if not goals:
        return f"{format_atom(r.head)}."
    return f"{format_atom(r.head)} :- {', '.join(goals)}."


def format_program(p: Program) -> str:
    lines = [f"{format_atom(f)}." for f in p.facts]
    lines += [format_rule(r) for r in p.rules]
    return "\n".join(lines) + "\n"
