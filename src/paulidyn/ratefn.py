"""A small expression language for time-dependent decoherence rates.

Grammar (EBNF; also documented in the README):

    expr    := term { ("+" | "-") term } ;
    term    := factor { ("*" | "/") factor } ;
    factor  := unary { "^" unary } ;            (* left-associative power *)
    unary   := "-" unary | atom ;
    atom    := NUMBER | "t" | NAME "(" expr [ "," expr ] ")" | "(" expr ")" ;
    NAME    := "tanh" | "exp" | "ln" | "cosh" | "sinh" | "pow" ;

Precedence, tightest first: unary minus, "^", "*" and "/", "+" and "-";
so "-t^2" means "(-t)^2".  The only variable is t.  Domain violations
(ln of a nonpositive value, division by zero, overflow) raise
:class:`EvaluationError`; evaluation never returns NaN silently.

Bundled presets cover the standard experiment families: the eternally
negative qubit rate set, its d-level generalization, the averaged-dephasing
mixture of d semigroups, and plain constant-rate semigroups.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, InvalidInputError, ParseError, QuadratureError

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


_FUNCS = {
    "tanh": np.tanh, "exp": np.exp, "cosh": np.cosh, "sinh": np.sinh, "ln": np.log,
    "pow": np.power, "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
    "^": np.power,
}
_FUNC_ARITY = {"tanh": 1, "exp": 1, "ln": 1, "cosh": 1, "sinh": 1, "pow": 2}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(source: str) -> list:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(source) - len(stripped)
            raise ParseError(f"unexpected character {source[bad_at]!r}", bad_at)
        kind = m.lastgroup  # the one alternative that matched: num, name or op
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
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

    def binary(self, ops: str, operand):
        """A left-associative chain of ``operand`` joined by the ``ops`` symbols."""
        node = operand()
        while True:
            kind, text, _ = self.peek()
            if kind != "op" or text not in ops:
                return node
            self.take()
            node = BinOp(text, node, operand())

    def expr(self):
        return self.binary("+-", self.term)

    def term(self):
        return self.binary("*/", self.factor)

    def factor(self):
        return self.binary("^", self.unary)

    def unary(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.take()
            return Neg(self.unary())
        return self.atom()

    def atom(self):
        kind, text, pos = self.take()
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            if text == "t":
                return Var()
            if text in _FUNC_ARITY:
                self.expect_op("(")
                args = [self.expr()]
                nk, nt, npos = self.peek()
                if nk == "op" and nt == ",":
                    self.take()
                    args.append(self.expr())
                self.expect_op(")")
                if len(args) != _FUNC_ARITY[text]:
                    raise ParseError(
                        f"{text} takes {_FUNC_ARITY[text]} argument(s), got {len(args)}", pos
                    )
                return Call(text, tuple(args))
            raise ParseError(f"unknown identifier {text!r}", pos)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input", pos)


# ---------------------------------------------------------------------------
# Printing (precedence-aware, reparses to the same tree)
# ---------------------------------------------------------------------------

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_POW, _LEVEL_UNARY, _LEVEL_ATOM = 1, 2, 3, 4, 5
_OP_LEVEL = {"+": _LEVEL_ADD, "-": _LEVEL_ADD, "*": _LEVEL_MUL, "/": _LEVEL_MUL, "^": _LEVEL_POW}


def _node_level(node) -> int:
    if isinstance(node, BinOp):
        return _OP_LEVEL[node.op]
    if isinstance(node, Neg):
        return _LEVEL_UNARY
    return _LEVEL_ATOM


def _emit(node, min_level: int) -> str:
    if isinstance(node, Num):
        text = repr(node.value)
    elif isinstance(node, Var):
        text = "t"
    elif isinstance(node, Neg):
        text = "-" + _emit(node.operand, _LEVEL_UNARY)
    elif isinstance(node, Call):
        text = node.name + "(" + ", ".join(_emit(a, _LEVEL_ADD) for a in node.args) + ")"
    elif isinstance(node, BinOp):
        lvl = _OP_LEVEL[node.op]
        # left-associative: the right operand must bind strictly tighter
        text = _emit(node.left, lvl) + f" {node.op} " + _emit(node.right, lvl + 1)
    else:  # pragma: no cover
        raise TypeError(f"not an AST node: {node!r}")
    if _node_level(node) < min_level:
        return "(" + text + ")"
    return text


def to_source(node) -> str:
    return _emit(node, _LEVEL_ADD)


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
    return RateExpr(source=source, root=_Parser(source).parse())


def _require(ok: np.ndarray, t: np.ndarray, message):
    """Raise EvaluationError at the earliest t where ``ok`` fails, via ``message(i)``."""
    if not ok.all():
        i = int(np.flatnonzero(~ok)[np.argmin(t[~ok])])
        raise EvaluationError(f"{message(i)} at t={float(t[i])!r}")


def _eval_node(node, t: np.ndarray) -> np.ndarray:
    """Values of the subtree at every time of the 1-d array ``t``, in one walk.

    After each node: ln of a value <= 0, division by zero and any non-finite
    result (overflow, or e.g. a fractional power of a negative number) raise
    :class:`EvaluationError` naming the earliest offending t.
    """
    if isinstance(node, Var):
        return t
    if isinstance(node, Neg):
        return -_eval_node(node.operand, t)
    if isinstance(node, Num):
        name, out = "constant", np.full(t.shape, node.value)
    else:
        name = node.name if isinstance(node, Call) else node.op
        args = [_eval_node(a, t)
                for a in (node.args if isinstance(node, Call) else (node.left, node.right))]
        if name == "ln":
            _require(args[0] > 0.0, t, lambda i: f"ln of nonpositive value {float(args[0][i])!r}")
        elif name == "/":
            _require(args[1] != 0.0, t, lambda i: "division by zero")
        with np.errstate(all="ignore"):
            out = _FUNCS[name](*args)
    _require(np.isfinite(out), t,
             lambda i: f"{'overflow' if np.isinf(out[i]) else 'domain error'} in {name}")
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
    A Simpson sum or running integral beyond the double range raises
    :class:`QuadratureError`.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidInputError("tol must be positive and finite")
    f = _eval_node(expr.root, grid)
    a, b, fa, fb = grid[:-1], grid[1:], f[:-1], f[1:]
    m = 0.5 * (a + b)
    fm = _eval_node(expr.root, m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    owner, spent, levels = np.arange(a.size), np.zeros(a.size, dtype=np.int64), []
    for depth in range(49):
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = np.split(_eval_node(expr.root, np.concatenate((lm, rm))), 2)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        split = ~(np.abs(delta) <= 15.0 * tol)
        levels.append((left + right + delta / 15.0, split))
        if not split.any():
            break
        spent += np.bincount(owner[split], minlength=spent.size)
        broke = split & (spent[owner] >= 100_000)
        overflow = ~np.isfinite(delta)
        k = int(np.argmax(overflow if overflow.any() else broke if broke.any() else split))
        where = "[{!r}, {!r}] of [{!r}, {!r}]".format(
            *map(float, (a[k], b[k], grid[owner[k]], grid[owner[k] + 1])))
        if overflow.any():
            raise QuadratureError(f"adaptive Simpson sums overflow the double range on {where}")
        if depth == 48:
            raise QuadratureError(
                f"adaptive Simpson failed to converge on {where} (residual {abs(delta[k]):.3e})"
            )
        # the open-interval cap ends a tolerance below rounding noise, which
        # doubles every level, before it exhausts memory
        if broke.any() or 2 * split.sum() > 1 << 18:
            raise QuadratureError(f"adaptive Simpson exceeded its subdivision budget near {where}")

        def halves(lo, hi):  # both children of every split interval, interleaved
            return np.stack((lo[split], hi[split]), axis=1).ravel()

        a, b, m, fa, fb, fm, whole = (halves(a, m), halves(m, b), halves(lm, rm), halves(fa, fm),
                                      halves(fm, fb), halves(flm, frm), halves(left, right))
        owner, tol = np.repeat(owner[split], 2), 0.5 * tol
    total = levels[-1][0]
    for value, split in reversed(levels[:-1]):
        value[split] = total[0::2] + total[1::2]
        total = value
    integral = np.cumsum(np.r_[0.0, total])
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

    def sample(self, t: float) -> list:
        return [evaluate(r, t) for r in self.rates]


def rate_set(dim: int, sources) -> RateSet:
    exprs = tuple(parse(s) for s in sources)
    if len(exprs) != dim + 1:
        raise InvalidInputError(f"need {dim + 1} rate expressions for d={dim}, got {len(exprs)}")
    return RateSet(dim=dim, rates=exprs)


def preset_rates(name: str, d: int | None = None, constants=None) -> RateSet:
    """Named rate-set presets.

    - ``eternal-qubit``: (1, 1, -tanh t) for d=2.
    - ``eternal-general``: two rates 1 + ((d-2)/d) tanh t, the remaining d-1
      rates -(2/d) tanh t.
    - ``avg-decoherence``: d unit rates plus the negative companion rate
      -(d-1)(e^{dt}-1)/(e^{dt}+d-1) of the uniform d-semigroup mixture.
    - ``semigroup``: the given constants c_1..c_{d+1}.
    """
    if name == "eternal-qubit":
        if d not in (None, 2):
            raise InvalidInputError("eternal-qubit is a d=2 preset; use eternal-general for d>2")
        return rate_set(2, ["1", "1", "-tanh(t)"])
    if name == "eternal-general":
        if d is None:
            raise InvalidInputError("eternal-general requires d")
        _require_preset_dim(d)
        lead = f"1 + (({d}-2)/{d})*tanh(t)"
        tail = f"-(2/{d})*tanh(t)"
        return rate_set(d, [lead, lead] + [tail] * (d - 1))
    if name == "avg-decoherence":
        if d is None:
            raise InvalidInputError("avg-decoherence requires d")
        _require_preset_dim(d)
        last = f"-({d}-1)*(exp({d}*t)-1)/(exp({d}*t)+{d}-1)"
        return rate_set(d, ["1"] * d + [last])
    if name == "semigroup":
        if constants is None:
            raise InvalidInputError("semigroup requires the constants c_1..c_{d+1}")
        values = [float(c) for c in constants]
        if not all(math.isfinite(c) for c in values):
            raise InvalidInputError(f"semigroup constants must be finite, got {values!r}")
        dim = len(values) - 1
        if d is not None and d != dim:
            raise InvalidInputError(f"semigroup got {len(values)} constants but d={d}")
        _require_preset_dim(dim)
        return rate_set(dim, [repr(c) for c in values])
    raise InvalidInputError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")


def _require_preset_dim(d: int):
    if not isinstance(d, (int,)) or d < 2:
        raise InvalidInputError(f"preset dimension must be an integer >= 2, got {d!r}")


PRESET_NAMES = ("eternal-qubit", "eternal-general", "avg-decoherence", "semigroup")

PRESET_SUMMARIES = {
    "eternal-qubit": "d=2; rates (1, 1, -tanh t): one rate forever negative, map stays legitimate",
    "eternal-general": "requires --d; two rates 1+((d-2)/d)tanh t, d-1 rates -(2/d)tanh t",
    "avg-decoherence": "requires --d; d unit rates plus -(d-1)(e^{dt}-1)/(e^{dt}+d-1)",
    "semigroup": "requires --c c1,...,c_{d+1}; constant rates (time-independent generator)",
}
