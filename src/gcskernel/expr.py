"""Scalar expression trees and the flat tape that evaluates them.

Residual equations are written as small immutable trees over the seven
operations the compiler emits: ``const``, ``var``, ``add``, ``sub``, ``mul``,
``sin`` and ``cos``.  ``dot`` and ``square`` expand to scalar nodes at
construction time, so a tree only ever holds scalars.  Trees are rendered
(:func:`render`) but never walked to evaluate them: the compiler emits each
batch of rows once into a :class:`Tape`.  A tape stores every row's ops
contiguously in topological order (an operation shared within a row once)
as opcode, argument-slot and depth arrays, interned so that rows of equal
structure share them, plus each row's variables and constants.

A :class:`Plan` gathers the ops of a selection of rows, from one tape or
several, and orders them by depth and opcode.  It then runs them vectorised
over the nodes of equal depth: :meth:`Plan.values` gives the rows' values,
and :meth:`Plan.derivatives` their forward-mode derivatives, with one
gradient slot per distinct variable of a row, as (row, column, value)
triplets.  Every node performs the operations of a recursive tree walk in
the same order (a product's derivative is ``da * b + db * a``, a sine's
``da * cos(a)``, a cosine's ``da * -sin(a)``), so values and derivatives are
those of the walk, with ``np.sin``/``np.cos`` in place of ``math.sin``/
``math.cos``.  Griewank and Walther, "Evaluating Derivatives", 2nd ed.
(SIAM, 2008), describe tapes and the forward mode.
"""

from __future__ import annotations

import functools
import itertools
from typing import Sequence

import numpy as np


def _coerce(value) -> "Expr":
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return const(float(value))
    raise TypeError(f"cannot build expression from {type(value).__name__}")


class Expr:
    """One node of an expression tree."""

    __slots__ = ("op", "args", "value", "index")

    def __init__(self, op: str, args: tuple["Expr", ...] = (), value: float = 0.0,
                 index: int = -1):
        self.op = op
        self.args = args
        self.value = value  # payload for "const"
        self.index = index  # payload for "var"

    def __repr__(self) -> str:
        return f"Expr({self.op!r}, {self.args!r}, value={self.value!r}, index={self.index!r})"

    def __add__(self, other):
        return Expr("add", (self, _coerce(other)))

    def __radd__(self, other):
        return Expr("add", (_coerce(other), self))

    def __sub__(self, other):
        return Expr("sub", (self, _coerce(other)))

    def __rsub__(self, other):
        return Expr("sub", (_coerce(other), self))

    def __mul__(self, other):
        return Expr("mul", (self, _coerce(other)))

    def __rmul__(self, other):
        return Expr("mul", (_coerce(other), self))

    def __neg__(self):
        return Expr("sub", (const(0.0), self))


def const(value: float) -> Expr:
    return Expr("const", value=float(value))


def var(index: int) -> Expr:
    return Expr("var", index=index)


def sin(e) -> Expr:
    return Expr("sin", (_coerce(e),))


def cos(e) -> Expr:
    return Expr("cos", (_coerce(e),))


def square(e) -> Expr:
    e = _coerce(e)
    return e * e


def dot(a: Sequence, b: Sequence) -> Expr:
    """Inner product of two equal-length expression vectors."""
    if len(a) != len(b):
        raise ValueError("dot: length mismatch")
    terms = [_coerce(x) * _coerce(y) for x, y in zip(a, b)]
    out = terms[0]
    for t in terms[1:]:
        out = out + t
    return out


def render(e: Expr, names: Sequence[str]) -> str:
    """Deterministic infix rendering for debug listings."""
    op = e.op
    if op == "const":
        return f"{e.value:g}"
    if op == "var":
        return names[e.index]
    if op in ("add", "sub", "mul"):
        sym = {"add": " + ", "sub": " - ", "mul": "*"}[op]
        return f"({render(e.args[0], names)}{sym}{render(e.args[1], names)})"
    return f"{op}({render(e.args[0], names)})"


CONST, VAR, ADD, SUB, MUL, SIN, COS = range(7)
OPCODES = {"const": CONST, "var": VAR, "add": ADD, "sub": SUB, "mul": MUL,
           "sin": SIN, "cos": COS}

# Row structures, interned: the keys, first arguments and second arguments of
# a row's nodes, concatenated -> id; _STRUCTURES[id] holds the three lists.
# A node's key is 8 * depth + opcode (depth 0 for const and var, else one
# more than its deepest operand).  An operation's arguments are the row
# positions of its operands (a unary op repeats its one operand); a var's
# are 0 and its gradient slot (the rank of its variable's first appearance
# in the row); a const's are 0 and 0.  Structures are few: a dozen serve the
# corpus and the strips, one per constraint kind and entity kinds.
_SHAPES: dict[tuple[int, ...], int] = {}
_STRUCTURES: dict[int, tuple[list[int], list[int], list[int]]] = {}
_shape_ids = itertools.count()


class Tape:
    """The ops of a batch of rows, emitted once.

    Row ``i``'s ops are the nodes of its tree in topological order, the root
    last (an operation shared within the row once, a leaf at each use).
    They are stored as the
    row's structure (the id of interned opcode and argument-slot arrays,
    shared by every row of the same structure) and its payload: the
    variable of each ``var`` node and the value of each ``const`` node, in
    node order.  ``rows[i]`` is (structure, variables of the var nodes,
    values of the const nodes, the row's distinct variables by first
    appearance, one per gradient slot); ``variables[i]`` lists the distinct
    variables in ascending order.
    """

    def __init__(self, roots: Sequence[Expr]):
        self.rows: list[tuple[int, list[int], list[float], tuple[int, ...]]] = []
        self.variables: list[tuple[int, ...]] = []

        def node(e: Expr) -> int:
            """Append e's unseen nodes, operands first; return e's position.
            Leaves are appended at each use, operations once per row."""
            op = e.op
            if op == "var":
                key.append(VAR)
                arg0.append(0)
                arg1.append(gradient_slot.setdefault(e.index, len(gradient_slot)))
                var_index.append(e.index)
                return len(key) - 1
            if op == "const":
                key.append(CONST)
                arg0.append(0)
                arg1.append(0)
                const_value.append(e.value)
                return len(key) - 1
            slot = seen.get(e)
            if slot is None:
                args = e.args
                a = node(args[0])
                b = node(args[1]) if len(args) == 2 else a
                ka, kb = key[a], key[b]
                key.append(((ka if ka > kb else kb) | 7) + 1 + OPCODES[op])
                arg0.append(a)
                arg1.append(b)
                slot = seen[e] = len(key) - 1
            return slot

        for root in roots:
            key: list[int] = []
            arg0: list[int] = []
            arg1: list[int] = []
            var_index: list[int] = []
            const_value: list[float] = []
            seen: dict[Expr, int] = {}
            gradient_slot: dict[int, int] = {}
            node(root)
            signature = (*key, *arg0, *arg1)
            shape = _SHAPES.get(signature)
            if shape is None:
                # store the structure before publishing its id, so that two
                # threads interning at once never pair an id with another row
                shape = next(_shape_ids)
                _STRUCTURES[shape] = (key, arg0, arg1)
                shape = _SHAPES.setdefault(signature, shape)
            self.rows.append((shape, var_index, const_value, tuple(gradient_slot)))
            self.variables.append(tuple(sorted(gradient_slot)))


class _Schedule:
    """The evaluation order of a sequence of row structures.

    The rows' nodes are renumbered in (depth, opcode) order, so the nodes
    one numpy call computes are a contiguous run of slots and every operand
    sits at a smaller depth.  The sort is stable, so the const slots come
    first and the var slots next, each in row order: a plan fills them from
    its rows' payloads as they are.
    """

    def __init__(self, shapes: tuple[int, ...]):
        key: list[int] = []
        arg0: list[int] = []
        arg1: list[int] = []
        shift: list[int] = []
        roots: list[int] = []
        widths: list[int] = []
        for shape in shapes:
            k, a0, a1 = _STRUCTURES[shape]
            at = len(key)
            key += k
            arg0 += a0
            arg1 += a1
            shift += [at] * len(k)
            roots.append(len(key) - 1)
            widths.append(max((b + 1 for c, b in zip(k, a1) if c == VAR), default=0))
        n = len(key)
        keys = np.array(key, dtype=np.intp)
        args = np.array([arg0, arg1], dtype=np.intp).reshape(2, n)
        args += np.array(shift, dtype=np.intp) * (keys > VAR)
        order = np.argsort(keys, kind="stable")
        slot = np.empty(n, dtype=np.intp)
        slot[order] = np.arange(n)
        keys = keys[order]
        args = args[:, order]
        self.n_const, self.n_leaves = np.searchsorted(keys, [VAR, ADD]).tolist()
        args[:, self.n_leaves:] = slot[args[:, self.n_leaves:]]
        self.n_nodes = n
        self.n_rows = len(shapes)
        self.roots = slot[roots]
        self.width = max(widths, default=0)
        # a var node's derivative is 1 in its gradient slot, in the flat gradients
        self.seeds = (np.arange(self.n_const, self.n_leaves) * self.width
                      + args[1, self.n_const:self.n_leaves])

        # per depth: one gather of every operand, then (opcode, outputs, operands)
        cuts = [self.n_leaves,
                *(np.flatnonzero(np.diff(keys[self.n_leaves:])) + self.n_leaves + 1).tolist(), n]
        levels: dict[int, tuple[list, list]] = {}
        for lo, hi in zip(cuts, cuts[1:]):
            if hi == lo:
                continue
            depth, code = divmod(int(keys[lo]), 8)
            gather, groups = levels.setdefault(depth, ([], []))
            at = sum(g.size for g in gather)
            size = hi - lo
            gather.append(args[0, lo:hi])
            second = None
            if code not in (SIN, COS):
                gather.append(args[1, lo:hi])
                second = slice(at + size, at + 2 * size)
            groups.append((code, slice(lo, hi), slice(at, at + size), second))
        self.levels = [(np.concatenate(gather), groups) for gather, groups in levels.values()]

        # derivative triplets: row i's gradient slots 0 .. widths[i] - 1
        counts = np.array(widths, dtype=np.intp)
        self.rows = np.repeat(np.arange(self.n_rows), counts)
        firsts = np.repeat(np.cumsum(counts) - counts, counts)
        self.triplets = self.roots[self.rows] * self.width + np.arange(self.rows.size) - firsts


# A schedule depends only on its rows' structures, and a few dozen serve every
# solve, check and decomposition of the corpus and the strip ladders, so a
# small cache keeps them all.
_schedule = functools.lru_cache(maxsize=256)(_Schedule)


class Plan:
    """A selection of tape rows, ready for vectorised evaluation.

    ``parts`` lists (tape, row indices) pairs; the plan's rows are their rows
    in that order, over ``n_columns`` variables.  Its schedule depends only
    on the rows' structures, so plans of rows of equal structure share one.
    ``rows`` and ``cols`` are the (row, column) pairs of the derivative
    triplets: each row's distinct variables by first appearance.
    """

    def __init__(self, parts: Sequence[tuple[Tape, Sequence[int]]], n_columns: int):
        shapes: list[int] = []
        var_index: list[int] = []
        const_value: list[float] = []
        cols: list[int] = []
        for tape, local in parts:
            rows = tape.rows
            for r in local:
                shape, variables, constants, columns = rows[r]
                shapes.append(shape)
                var_index += variables
                const_value += constants
                cols += columns
        self.schedule = _schedule(tuple(shapes))
        self.n_rows = len(shapes)
        self.n_columns = n_columns
        self._var_index = np.array(var_index, dtype=np.intp)
        self._const_value = np.array(const_value, dtype=float)
        self._cols = cols

    @property
    def rows(self) -> np.ndarray:
        return self.schedule.rows

    @functools.cached_property
    def cols(self) -> np.ndarray:
        return np.array(self._cols, dtype=np.intp)

    @functools.cached_property
    def _entries(self) -> np.ndarray:
        return self.schedule.rows * self.n_columns + self.cols

    def _leaves(self, x: np.ndarray) -> np.ndarray:
        s = self.schedule
        vals = np.empty(s.n_nodes)
        vals[:s.n_const] = self._const_value
        vals[s.n_const:s.n_leaves] = x[self._var_index]
        return vals

    def values(self, x: np.ndarray) -> np.ndarray:
        """The value of each row at ``x``."""
        vals = self._leaves(x)
        for gather, groups in self.schedule.levels:
            operands = vals[gather]
            for op, out, a, b in groups:
                if op == ADD:
                    np.add(operands[a], operands[b], out=vals[out])
                elif op == SUB:
                    np.subtract(operands[a], operands[b], out=vals[out])
                elif op == MUL:
                    np.multiply(operands[a], operands[b], out=vals[out])
                elif op == SIN:
                    np.sin(operands[a], out=vals[out])
                else:
                    np.cos(operands[a], out=vals[out])
        return vals[self.schedule.roots]

    def derivatives(self, x: np.ndarray) -> np.ndarray:
        """d row / d column at ``x`` for each (``rows``, ``cols``) pair."""
        s = self.schedule
        vals = self._leaves(x)
        grads = np.zeros((s.n_nodes, s.width))
        grads.ravel()[s.seeds] = 1.0
        for gather, groups in s.levels:
            operands = vals[gather]
            partials = grads[gather]
            for op, out, a, b in groups:
                if op == ADD:
                    np.add(operands[a], operands[b], out=vals[out])
                    np.add(partials[a], partials[b], out=grads[out])
                elif op == SUB:
                    np.subtract(operands[a], operands[b], out=vals[out])
                    np.subtract(partials[a], partials[b], out=grads[out])
                elif op == MUL:
                    va, vb = operands[a], operands[b]
                    np.multiply(va, vb, out=vals[out])
                    g = grads[out]
                    np.multiply(partials[a], vb[:, None], out=g)
                    g += partials[b] * va[:, None]
                elif op == SIN:
                    va = operands[a]
                    np.sin(va, out=vals[out])
                    np.multiply(partials[a], np.cos(va)[:, None], out=grads[out])
                else:
                    va = operands[a]
                    np.cos(va, out=vals[out])
                    np.multiply(partials[a], -np.sin(va)[:, None], out=grads[out])
        return grads.ravel()[s.triplets]

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """The dense Jacobian of the plan's rows: the triplets scattered."""
        J = np.zeros((self.n_rows, self.n_columns))
        J.ravel()[self._entries] = self.derivatives(x)
        return J
