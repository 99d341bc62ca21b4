"""Helpers the tests share and the package does not use: entrywise matrix equality, a
random unitary, the axis blocks of an operator by basis rotation, and a printer of
rate-expression trees (the generator of the parser's random-AST round-trip property)."""

import numpy as np

from paulidyn.linalg import as_square_matrix, random_complex_matrix
from paulidyn.ratefn import _OPERATORS, BinOp, Call, Neg, Num, Var

#: default entrywise tolerance for matrix equality
EQUALITY_TOL = 1e-12


def matrices_close(a, b, tol: float = EQUALITY_TOL) -> bool:
    """Entrywise equality within an absolute tolerance."""
    am = as_square_matrix(a)
    bm = as_square_matrix(b, len(am))
    return bool(np.abs(am - bm).max() <= tol)


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish unitary from the QR decomposition of a Ginibre matrix."""
    q, r = np.linalg.qr(random_complex_matrix(d, rng))
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def rotation_axis_blocks(family, x):
    """B_alpha(x) = dephase_alpha(x) - x0*I, x0 = Tr(x)/d, for x of shape (..., d, d), by a
    change into each basis, its diagonal, and the way back: (..., d+1, d, d).  The O(d^4)
    form the Weyl-coefficient kernel replaced, kept as its reference."""
    bases = family.bases
    x0 = np.trace(x, axis1=-2, axis2=-1) / family.dim
    rotated = bases.conj() @ x[..., None, :, :]  # rows <b_al| x
    diag = (rotated * bases).sum(axis=-1)
    blocks = (np.swapaxes(bases, -1, -2) * diag[..., None, :]) @ bases.conj()
    r = np.arange(family.dim)
    blocks[..., r, r] -= x0[..., None, None]
    return blocks


# ---------------------------------------------------------------------------
# Printing (precedence-aware, reparses to the same tree)
# ---------------------------------------------------------------------------

_LEVEL_UNARY = 1 + max(level for level, _ in _OPERATORS.values())


def _emit(node, min_level: int) -> str:
    level = _LEVEL_UNARY + 1  # an atom
    if isinstance(node, Num):
        text = repr(node.value)
    elif isinstance(node, Var):
        text = "t"
    elif isinstance(node, Neg):
        level = _LEVEL_UNARY
        text = "-" + _emit(node.operand, level)
    elif isinstance(node, Call):
        text = node.name + "(" + ", ".join(_emit(a, 1) for a in node.args) + ")"
    elif isinstance(node, BinOp):
        level = _OPERATORS[node.op][0]
        # left-associative: the right operand must bind strictly tighter
        text = _emit(node.left, level) + f" {node.op} " + _emit(node.right, level + 1)
    else:  # pragma: no cover
        raise TypeError(f"not an AST node: {node!r}")
    return "(" + text + ")" if level < min_level else text


def to_source(node) -> str:
    return _emit(node, 1)
