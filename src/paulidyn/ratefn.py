"""A small expression language for time-dependent decoherence rates.

Grammar (EBNF; also documented in the README):

    expr    := term { ("+" | "-") term } ;
    term    := factor { ("*" | "/") factor } ;
    factor  := unary { "^" unary } ;            (* left-associative power *)
    unary   := "-" unary | atom ;
    atom    := NUMBER | "t" | NAME "(" expr [ "," expr ] ")" | "(" expr ")" ;
    NAME    := "tanh" | "exp" | "ln" | "cosh" | "sinh" | "pow" ;

Precedence, tightest first: unary minus, "^", "*" and "/", "+" and "-";
so "-t^2" means "(-t)^2".  The operators live in one table, ``_OPERATORS``,
and the functions in ``_FUNCTIONS``; the tokenizer, the precedence-climbing
parser and the evaluator all read them.  The only variable is t.
A NUMBER must be a finite double: a literal beyond the double range, such as
1e999, is a :class:`ParseError` at its position, and so is nesting too deep
for the interpreter's stack.  Domain violations (ln of a nonpositive value,
division by zero, overflow) raise :class:`EvaluationError`, as does a
hand-built tree too deep to walk; evaluation never returns NaN silently.  A
tree is evaluated on a whole array of times in one unchecked walk followed by
a single finiteness test of every operator's output; only when that test fails
does a second, checked walk run, so the error names the first offending
operator and its earliest t.

Bundled presets cover the standard experiment families: the eternally
negative qubit rate set, its d-level generalization, the averaged-dephasing
mixture of d semigroups, and plain constant-rate semigroups.  Each preset is
one row of ``_PRESETS``: its summary and its rate sources at dimension d.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, InvalidInputError, ParseError, QuadratureError
from .mub import _check_dim

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


# The grammar, each fact written once.  A binary operator maps to its precedence
# level (from 1, the loosest; all are left-associative) and ufunc, a function to
# its ufunc, whose ``nin`` is the arity.  Unary minus binds tighter than them all.
_OPERATORS = {"+": (1, np.add), "-": (1, np.subtract), "*": (2, np.multiply),
              "/": (2, np.divide), "^": (3, np.power)}
_FUNCTIONS = {"tanh": np.tanh, "exp": np.exp, "ln": np.log, "cosh": np.cosh, "sinh": np.sinh,
              "pow": np.power}

_TOKEN_RE = re.compile(
    r"(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[" + re.escape("".join(_OPERATORS) + "(),") + "])"
    r"|(?P<bad>\S)"
)


def _tokenize(source: str) -> list:
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup  # the one alternative that matched: num, name, op or bad
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != symbol:
            raise ParseError(f"expected {symbol!r}", pos)
        return self.take()

    def parse(self):
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r} after expression", pos)
        return node

    def expr(self, level: int = 1):
        """Operands joined, left-associatively, by operators of ``level`` or tighter."""
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            op_level = _OPERATORS[text][0] if kind == "op" and text in _OPERATORS else 0
            if op_level < level:
                return node
            self.take()
            node = BinOp(text, node, self.expr(op_level + 1))

    def unary(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.take()
            return Neg(self.unary())
        return self.atom()

    def atom(self):
        kind, text, pos = self.take()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(f"number {text} is outside the double range", pos)
            return Num(value)
        if kind == "name":
            if text == "t":
                return Var()
            if text in _FUNCTIONS:
                self.expect_op("(")
                args = [self.expr()]
                nk, nt, npos = self.peek()
                if nk == "op" and nt == ",":
                    self.take()
                    args.append(self.expr())
                self.expect_op(")")
                arity = _FUNCTIONS[text].nin
                if len(args) != arity:
                    raise ParseError(f"{text} takes {arity} argument(s), got {len(args)}", pos)
                return Call(text, tuple(args))
            raise ParseError(f"unknown identifier {text!r}", pos)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input", pos)


# ---------------------------------------------------------------------------
# Public expression object, evaluation, integration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateExpr:
    source: str
    root: object


def parse(source: str) -> RateExpr:
    if not isinstance(source, str) or not source.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(source)
    try:
        return RateExpr(source=source, root=parser.parse())
    except RecursionError:
        position = parser.tokens[max(parser.i - 1, 0)][2]  # the last token taken
        raise ParseError("expression nested too deeply", position) from None


def _require(ok: np.ndarray, t: np.ndarray, message):
    """Raise EvaluationError at the earliest t where ``ok`` fails, via ``message(i)``."""
    if not ok.all():
        i = int(np.flatnonzero(~ok)[np.argmin(t[~ok])])
        raise EvaluationError(f"{message(i)} at t={float(t[i])!r}")


def _literal(node):
    """The value of a literal, a number or a negated number, as a Python float; else None."""
    kind = type(node)
    if kind is Num:
        return node.value
    if kind is Neg and type(node.operand) is Num:
        return -node.operand.value
    return None


def _walk(node, t: np.ndarray, checked: bool, outs: list) -> np.ndarray:
    """Values of the subtree at every time of ``t``; appends each operator's output to ``outs``.

    With ``checked``, after each operator: ln of a value <= 0, division by zero
    and any non-finite result raise :class:`EvaluationError` naming the earliest
    offending t.  Constants need no check: ``parse`` admits only finite literals.

    A literal beside a non-literal operand of + - * / goes in as a Python float,
    which numpy broadcasts to the same IEEE-754 result as an array filled with
    it.  Other literals stay filled arrays: the operands of ^, function
    arguments, and both operands of an operator on literals alone, whose result
    would otherwise be a scalar.  numpy's exp, tanh and power loops are not
    known to round alike for a scalar and an array.
    """
    kind = type(node)
    if kind is Var:
        return t
    if kind is Num:
        return np.full(t.shape, node.value)
    if kind is Neg:
        return -_walk(node.operand, t, checked, outs)
    if kind is Call:
        name, ufunc = node.name, _FUNCTIONS[node.name]
        args = [_walk(a, t, checked, outs) for a in node.args]
    else:
        name, ufunc = node.op, _OPERATORS[node.op][1]
        left, right = _literal(node.left), _literal(node.right)
        if name == "^" or (left is None) == (right is None):
            left = right = None
        args = [_walk(node.left, t, checked, outs) if left is None else left,
                _walk(node.right, t, checked, outs) if right is None else right]
    if checked and name == "ln":
        _require(args[0] > 0.0, t, lambda i: f"ln of nonpositive value {float(args[0][i])!r}")
    elif checked and name == "/":
        _require(np.broadcast_to(args[1] != 0.0, t.shape), t, lambda i: "division by zero")
    out = ufunc(*args)
    if checked:
        _require(np.isfinite(out), t,
                 lambda i: f"{'overflow' if np.isinf(out[i]) else 'domain error'} in {name}")
    outs.append(out)
    return out


def _eval_node(node, t: np.ndarray) -> np.ndarray:
    """Values of the subtree at every time of the 1-d array ``t``.

    One unchecked walk, then one finiteness test over every operator's output.
    ln of a value <= 0 and division by zero give -inf, inf or NaN, so the test
    fails exactly when a checked walk would raise; only then does the checked
    walk run, and its :class:`EvaluationError` names the first offending
    operator in evaluation order and its earliest offending t.
    """
    outs = []
    try:
        with np.errstate(all="ignore"):
            out = _walk(node, t, False, outs)
            if outs and not np.isfinite(np.concatenate(outs)).all():
                return _walk(node, t, True, [])
    except RecursionError:
        raise EvaluationError("expression nested too deeply") from None
    return out


def evaluate(expr: RateExpr, t: float) -> float:
    """Evaluate at time ``t``.  Raises :class:`EvaluationError` on any domain
    violation or non-finite result."""
    if not math.isfinite(t):
        raise InvalidInputError(f"t must be finite, got {t!r}")
    return float(_eval_node(expr.root, np.array([float(t)]))[0])


def integrate(expr: RateExpr, t0: float, t1: float, tol: float = 1e-10) -> float:
    """Integral of the expression over [t0, t1] by adaptive Simpson bisection.

    The estimated absolute error is kept below ``tol``.  Raises
    :class:`QuadratureError` when the bisection cannot reach the tolerance.
    """
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise InvalidInputError("integration limits must be finite")
    if t1 < t0:
        raise InvalidInputError(f"t1 must be >= t0, got [{t0!r}, {t1!r}]")
    if t1 == t0:
        return 0.0
    return float(running_integral(expr, np.array([float(t0), float(t1)]), tol)[1][1])


@np.errstate(over="ignore", invalid="ignore")  # sums beyond the double range raise below
def running_integral(expr: RateExpr, grid: np.ndarray, tol: float) -> tuple:
    """(values, integral from grid[0]) of the rate on an increasing grid.

    Every step is integrated to ``tol`` by adaptive Simpson, breadth-first over
    all steps at once: each level evaluates the rate once on the quarter points
    of every open interval, accepts those with |delta| <= 15 tol (adding
    delta/15) and bisects the rest with tol halved.  As in the recursive rule,
    a path may take 48 levels and a step 100k bisections.  Level values are
    folded back in tree order, so each step sums as the recursion sums it.

    The grid and the step midpoints are evaluated in one walk, and each level
    in one more; each walk tests finiteness once (see :func:`_eval_node`).
    An :class:`EvaluationError` names the first offending grid time if there
    is one, and otherwise the first offending midpoint or quarter point.  A
    Simpson sum or running integral beyond the double range raises
    :class:`QuadratureError`.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidInputError("tol must be positive and finite")
    a, b = grid[:-1], grid[1:]
    n = a.size
    m = 0.5 * (a + b)
    try:
        f = _eval_node(expr.root, np.concatenate((grid, m)))
    except EvaluationError:
        _eval_node(expr.root, grid)  # a bad grid time is reported before any midpoint
        raise
    f, fm = f[:n + 1], f[n + 1:]
    fa, fb = f[:-1], f[1:]
    # one row per quantity, one column per open interval
    state = np.array((a, b, m, fa, fb, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)))
    owner, spent, levels = np.arange(n), np.zeros(n, dtype=np.int64), []
    for depth in range(49):
        # (a, m) and (m, b), the ends of the two halves, and the rate there
        ends_lo, ends_hi, f_lo, f_hi = state[0:3:2], state[2:0:-1], state[3:6:2], state[5:3:-1]
        quarter = 0.5 * (ends_lo + ends_hi)
        f_quarter = _eval_node(expr.root, quarter.ravel()).reshape(2, -1)
        halves = (ends_hi - ends_lo) / 6.0 * (f_lo + 4.0 * f_quarter + f_hi)
        pair = halves[0] + halves[1]
        delta = pair - state[6]
        split = ~(np.abs(delta) <= 15.0 * tol)
        levels.append((pair + delta / 15.0, split))
        cut = np.flatnonzero(split)
        if not cut.size:
            break
        cut_owner = owner[cut]
        spent += np.bincount(cut_owner, minlength=n)
        # the open-interval cap ends a tolerance below rounding noise, which
        # doubles every level, before it exhausts memory
        if (not np.isfinite(delta).all() or depth == 48 or 2 * cut.size > 1 << 18
                or spent.max() >= 100_000):
            overflow, broke = ~np.isfinite(delta), split & (spent[owner] >= 100_000)
            k = int(np.argmax(overflow if overflow.any() else broke if broke.any() else split))
            where = "[{!r}, {!r}] of [{!r}, {!r}]".format(
                *map(float, (state[0, k], state[1, k], grid[owner[k]], grid[owner[k] + 1])))
            if overflow.any():
                raise QuadratureError(
                    f"adaptive Simpson sums overflow the double range on {where}")
            if depth == 48:
                raise QuadratureError(
                    f"adaptive Simpson failed to converge on {where} (residual {abs(delta[k]):.3e})"
                )
            raise QuadratureError(f"adaptive Simpson exceeded its subdivision budget near {where}")
        # both children of every split interval, interleaved: each row pair holds
        # one row of ``state`` for the left child and for the right child
        children = np.array((ends_lo, ends_hi, quarter, f_lo, f_hi, f_quarter, halves))
        state = children.transpose(0, 2, 1).take(cut, axis=1).reshape(7, -1)
        owner, tol = np.repeat(cut_owner, 2), 0.5 * tol
    total = levels[-1][0]
    for value, split in reversed(levels[:-1]):
        value[split] = total[0::2] + total[1::2]
        total = value
    integral = np.cumsum(np.concatenate(([0.0], total)))
    if not np.isfinite(integral[-1]):
        i = int(np.argmin(np.isfinite(integral)))
        raise QuadratureError(
            f"running integral overflows the double range at t={float(grid[i])!r}")
    return f, integral


# ---------------------------------------------------------------------------
# Rate sets and presets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateSet:
    """The d+1 scalar rate functions driving a d-dimensional evolution."""

    dim: int
    rates: tuple  # of RateExpr, length d+1


def rate_set(dim: int, sources) -> RateSet:
    exprs = tuple(parse(s) for s in sources)
    if len(exprs) != dim + 1:
        raise InvalidInputError(f"need {dim + 1} rate expressions for d={dim}, got {len(exprs)}")
    return RateSet(dim=dim, rates=exprs)


#: Each preset's ``paulidyn presets list`` summary and its rate sources at dimension d, given
#: the semigroup's finite constants (None for every other preset).
_PRESETS = {
    "eternal-qubit": (
        "d=2; rates (1, 1, -tanh t): one rate forever negative, map stays legitimate",
        lambda d, c: ["1", "1", "-tanh(t)"]),
    "eternal-general": (
        "requires --d; two rates 1+((d-2)/d)tanh t, d-1 rates -(2/d)tanh t",
        lambda d, c: [f"1 + (({d}-2)/{d})*tanh(t)"] * 2 + [f"-(2/{d})*tanh(t)"] * (d - 1)),
    "avg-decoherence": (
        "requires --d; d unit rates plus -(d-1)(e^{dt}-1)/(e^{dt}+d-1)",
        lambda d, c: ["1"] * d + [f"-({d}-1)*(exp({d}*t)-1)/(exp({d}*t)+{d}-1)"]),
    "semigroup": (
        "requires --c c1,...,c_{d+1}; constant rates (time-independent generator)",
        lambda d, c: [repr(x) for x in c]),
}

PRESET_NAMES = tuple(_PRESETS)

PRESET_SUMMARIES = {name: summary for name, (summary, _) in _PRESETS.items()}


def preset_rates(name: str, d: int | None = None, constants=None) -> RateSet:
    """The rate set of a named preset, a row of ``_PRESETS``, at dimension ``d``.

    Only ``semigroup`` takes ``constants`` (c_1..c_{d+1}, which fix its d), and
    ``eternal-qubit`` is d=2 alone; the other presets require ``d``.
    """
    if constants is not None and name != "semigroup":
        raise InvalidInputError(f"only the semigroup preset takes constants, not {name!r}")
    if name not in PRESET_NAMES:  # a tuple: an unhashable name is unknown, not a TypeError
        raise InvalidInputError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    if name == "eternal-qubit":
        if d not in (None, 2):
            raise InvalidInputError("eternal-qubit is a d=2 preset; use eternal-general for d>2")
        d = 2
    elif name == "semigroup":
        if constants is None:
            raise InvalidInputError("semigroup requires the constants c_1..c_{d+1}")
        constants = [float(c) for c in constants]
        if not all(math.isfinite(c) for c in constants):
            raise InvalidInputError(f"semigroup constants must be finite, got {constants!r}")
        if d is not None and d != len(constants) - 1:
            raise InvalidInputError(f"semigroup got {len(constants)} constants but d={d}")
        d = len(constants) - 1
    elif d is None:
        raise InvalidInputError(f"{name} requires d")
    d = _check_dim(d)
    return rate_set(d, _PRESETS[name][1](d, constants))
