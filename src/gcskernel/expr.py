"""Residual rows written onto flat tapes, and their vectorised evaluation.

A residual row exists only as the ops of a :class:`Tape`.  The compiler
writes each row through :class:`Term` operand handles, in the infix syntax
of its equations (``a - b``, ``x * y``, :func:`sin`, :func:`cos`,
:func:`square`, :func:`dot`), over seven operations: ``const``, ``var``,
``add``, ``sub``, ``mul``, ``sin`` and ``cos``.  An operation is appended to
the row once, when it is written, and a leaf (a variable or a number) at
each use, so a row holds its ops in topological order and ends at its root.
A tape interns each row's opcode, argument-slot and depth arrays, so that
rows of equal structure share them, and keeps the row's variables and
constants; a row of a structure already interned can be stamped from those
alone, without its terms.

A :class:`Plan` gathers the ops of a selection of rows, from one tape or
several, orders them by depth and opcode and runs them vectorised over the
nodes of equal depth: :meth:`Plan.values` gives the rows' values and
:meth:`Plan.derivatives` their forward-mode derivatives, one gradient slot
per distinct variable of a row, as (row, column, value) triplets.  Every
node performs the operations of a scalar forward walk over its row in the
same order (a product's derivative is ``da * b + db * a``, a sine's
``da * cos(a)``, a cosine's ``da * -sin(a)``), with ``np.sin``/``np.cos``
in place of ``math.sin``/``math.cos``.  Griewank and Walther, "Evaluating
Derivatives", 2nd ed. (SIAM, 2008), describe tapes and the forward mode.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator, Sequence

import numpy as np

CONST, VAR, ADD, SUB, MUL, SIN, COS = range(7)
_FORMATS = {ADD: "({} + {})", SUB: "({} - {})", MUL: "({}*{})", SIN: "sin({})", COS: "cos({})"}

# Row structures, interned: the (key, first argument, second argument) of each
# of a row's nodes -> id; _STRUCTURES[id] holds the keys, first arguments and
# second arguments as three lists.
# A node's key is 8 * depth + opcode (depth 0 for const and var, else one
# more than its deepest operand).  An operation's arguments are the row
# positions of its operands (a unary op repeats its one operand); a var's
# are 0 and its gradient slot (the rank of its variable's first appearance
# in the row); a const's are 0 and 0.  Structures are few: a dozen serve the
# corpus and the strips, one per constraint kind and entity kinds.
_SHAPES: dict[tuple[tuple[int, int, int], ...], int] = {}
_STRUCTURES: dict[int, tuple[list[int], list[int], list[int]]] = {}
_shape_ids = itertools.count()


def _operators(code: int):
    """The methods ``a <op> b`` and its reflection ``b <op> a`` of an opcode."""
    return (lambda a, b: a.tape.op(code, a, b)), (lambda a, b: a.tape.op(code, b, a))


class Term:
    """An operand of a row being written on ``tape``: the op at position
    ``at`` of the row whose nodes are ``row``, or, when ``at`` is -1,
    variable ``index``, which is appended at each use.  A number in its
    place is a constant, appended the same way."""

    __slots__ = ("tape", "at", "row", "index")

    def __init__(self, tape: "Tape", at: int, row: list | None, index: int):
        self.tape = tape
        self.at = at
        self.row = row
        self.index = index

    __add__, __radd__ = _operators(ADD)
    __sub__, __rsub__ = _operators(SUB)
    __mul__, __rmul__ = _operators(MUL)


def sin(e: Term) -> Term:
    return e.tape.op(SIN, e)


def cos(e: Term) -> Term:
    return e.tape.op(COS, e)


def square(e: Term) -> Term:
    return e * e


def dot(a: Sequence, b: Sequence) -> Term:
    """Inner product of two equal-length operand vectors."""
    if len(a) != len(b):
        raise ValueError("dot: length mismatch")
    terms = [x * y for x, y in zip(a, b)]
    out = terms[0]
    for t in terms[1:]:
        out = out + t
    return out


class Tape:
    """A batch of rows, each written once through :class:`Term` handles.

    A row's ops are its nodes in the order they were written: operands
    first, an operation once, a leaf at each use, the root last.  They are
    stored as the row's structure (the id of interned opcode and
    argument-slot arrays, shared by every row of the same structure) and its
    payload: the variable of each ``var`` node and the value of each
    ``const`` node, in node order.  ``rows[i]`` is (structure, variables of
    the var nodes, values of the const nodes, the row's distinct variables
    by first appearance, one per gradient slot); ``variables[i]`` lists the
    distinct variables in ascending order.  :meth:`stamp` appends a row
    from its structure and payload alone.
    """

    def __init__(self):
        self.rows: list[tuple[int, list[int], list[float], tuple[int, ...]]] = []
        self.variables: list[tuple[int, ...]] = []
        self._begin()

    def _begin(self) -> None:
        self._nodes: list[tuple[int, int, int]] = []  # (key, first and second argument)
        self._var_index: list[int] = []
        self._const_value: list[float] = []
        self._slots: dict[int, int] = {}

    def var(self, index: int) -> Term:
        """A handle on variable ``index`` for the rows of this tape."""
        return Term(self, -1, None, index)

    def _place(self, x) -> int:
        """The position of operand ``x`` on the current row: an op's own; a
        variable or a number is appended now."""
        nodes = self._nodes
        if type(x) is Term:
            if x.at >= 0:
                if x.row is not nodes:
                    raise ValueError("operand of another row")
                return x.at
            slots = self._slots
            nodes.append((VAR, 0, slots.setdefault(x.index, len(slots))))
            self._var_index.append(x.index)
        else:
            nodes.append((CONST, 0, 0))
            self._const_value.append(float(x))
        return len(nodes) - 1

    def op(self, code: int, a, b=None) -> Term:
        """Append operation ``code`` of ``a`` (and ``b``) to the current row."""
        nodes = self._nodes
        i = a.at if type(a) is Term and a.row is nodes else self._place(a)
        j = i if b is None else b.at if type(b) is Term and b.row is nodes else self._place(b)
        ka, kb = nodes[i][0], nodes[j][0]
        nodes.append((((ka if ka > kb else kb) | 7) + 1 + code, i, j))
        return Term(self, len(nodes) - 1, nodes, -1)

    def end_row(self, root) -> None:
        """End the current row at ``root``, which must be its last op or a
        leaf, appended now, and intern the row's structure."""
        nodes = self._nodes
        if self._place(root) != len(nodes) - 1:
            raise ValueError("a row must end at its root")
        signature = tuple(nodes)
        shape = _SHAPES.get(signature)
        if shape is None:
            # store the structure before publishing its id, so that two
            # threads interning at once never pair an id with another row
            shape = next(_shape_ids)
            _STRUCTURES[shape] = tuple(map(list, zip(*nodes)))
            shape = _SHAPES.setdefault(signature, shape)
        slots = self._slots
        self.rows.append((shape, self._var_index, self._const_value, tuple(slots)))
        self.variables.append(tuple(sorted(slots)))
        self._begin()

    def stamp(self, shape: int, variables: list[int], constants: list[float]) -> None:
        """Append a row of the interned structure ``shape`` whose var nodes
        read ``variables`` and whose const nodes hold ``constants``, in node
        order: the row its terms would write, when equal variables fall on
        equal gradient slots of the structure."""
        slots = tuple(dict.fromkeys(variables))
        self.rows.append((shape, variables, constants, slots))
        self.variables.append(tuple(sorted(slots)))

    def ops(self, i: int) -> Iterator[tuple[int, int, int, float | int | None]]:
        """Row ``i``'s nodes in order, as (opcode, first operand, second
        operand, leaf): a var's leaf is its variable, a const's its value,
        an operation's None."""
        shape, variables, constants, _ = self.rows[i]
        leaves = (iter(constants), iter(variables))
        for key, a, b in zip(*_STRUCTURES[shape]):
            code = key & 7
            yield code, a, b, next(leaves[code]) if code <= VAR else None

    def render(self, i: int, names: Sequence[str]) -> str:
        """Row ``i`` in infix, each operation in parentheses."""
        text: list[str] = []
        for code, a, b, leaf in self.ops(i):
            if code == VAR:
                text.append(names[leaf])
            elif code == CONST:
                text.append(f"{leaf:g}")
            else:
                text.append(_FORMATS[code].format(text[a], text[b]))
        return text[-1]


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
    triplets: each row's distinct variables by first appearance.  ``reads``,
    when given, are the positions of the assignment that the var nodes read,
    one per node in row order, in place of the variables the tapes name: so
    rows can read different values of one variable from one assignment,
    whose length is then ``n_columns``.  Such a plan serves :meth:`values`
    only: it gathers neither the tapes' variables nor ``cols``.
    """

    def __init__(self, parts: Sequence[tuple[Tape, Sequence[int]]], n_columns: int,
                 reads: Sequence[int] | None = None):
        shapes: list[int] = []
        var_index: list[int] = []
        const_value: list[float] = []
        cols: list[int] = []
        for tape, local in parts:
            rows = tape.rows
            for r in local:
                shape, variables, constants, columns = rows[r]
                shapes.append(shape)
                const_value += constants
                if reads is None:
                    var_index += variables
                    cols += columns
        self.schedule = _schedule(tuple(shapes))
        self.n_rows = len(shapes)
        self.n_columns = n_columns
        self._var_index = np.array(var_index if reads is None else reads, dtype=np.intp)
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
