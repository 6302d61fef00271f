"""Finite dimensional modules with exact rational weight bookkeeping.

Supported kinds: "standard", "exterior(d)", "adjoint", and one tensor layer
"tensor(a,b)" whose operands are non-tensor kinds.  A vector is a row of
integer coordinates over one positive denominator, and a grading a row of
integer levels over one denominator.  Group and algebra elements act on the
row through one exact rule per kind, an integer map with a denominator built
from the element's integer rows, so applying a rule makes no ``Fraction``;
the matrix of an action, where one is needed, is that rule applied to each
basis vector.  The diagonal flow acts through weights.  No tolerances
appear anywhere in this package.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction as Q
from operator import mul
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from .. import exact
from ..exact import IntRows, Mat, Vec
from .cartan import h_principal

_EXTERIOR_RE = re.compile(r"^exterior\((\d+)\)$")
_TENSOR_RE = re.compile(r"^tensor\(([^,]+),([^,]+)\)$")


def _beta_row(eps: Sequence[int]) -> Tuple[int, ...]:
    """The weight sum_j eps_j e_j in beta coordinates, over n + 1: on
    traceless diagonals it is sum_i m_i beta_i, m_i = sum(eps)/(n+1) - eps_i."""
    total, m = sum(eps), len(eps)
    return tuple(total - m * e for e in eps[1:])


@dataclass(frozen=True)
class WeightModule:
    n: int
    kind: str
    dim: int
    # each basis weight by its coefficients (m_1, ..., m_n) on the functionals
    # beta_i(diag(a_0, ..., a_n)) = a_0 - a_i, as integers over n + 1; sorting
    # these rows sorts the weights
    weights: IntRows
    # kind-specific basis data (index tuples for exterior, (i, j) pairs and
    # diagonal slots for adjoint, operand pair for tensor)
    basis_data: tuple

    def __repr__(self) -> str:
        return f"WeightModule(kind={self.kind!r}, n={self.n}, dim={self.dim})"

    # -- weight structure ---------------------------------------------------

    @functools.cached_property
    def _gradings(self) -> Dict[tuple, Tuple[Tuple[int, ...], int]]:
        return {}

    @functools.cached_property
    def _cache(self) -> Dict[tuple, tuple]:
        """Rules of fixed elements and integer level tables, built once and
        kept under their caller's key."""
        return {}

    def grading(self, h: Sequence) -> Tuple[Tuple[int, ...], int]:
        """Exact level of every basis index on the diagonal element h, as
        integers over one denominator, n + 1 times the common denominator
        of h's entries; evaluated once per module and h."""
        key = tuple(map(exact._ratio, h))  # hashes faster than Fractions
        out = self._gradings.get(key)
        if out is None:
            if len(key) != self.n + 1:
                raise ValueError("diagonal has wrong size")
            hd = math.lcm(*(b for _, b in key))
            hi = [a * (hd // b) for a, b in key]
            diffs = [hi[0] - c for c in hi[1:]]  # the beta values of h, over hd
            out = self._gradings[key] = (
                tuple(sum(map(mul, row, diffs)) for row in self.weights), (self.n + 1) * hd)
        return out

    @functools.cached_property
    def levels(self) -> Tuple[Q, ...]:
        """Values of each basis weight on the principal diagonal element, as
        exact Fractions for reports and the float layers."""
        ints, d = self.grading(h_principal(self.n))
        return tuple(Q(a, d) for a in ints)

    def level_set(self) -> Tuple[Q, ...]:
        return tuple(sorted(set(self.levels)))

    # -- actions ------------------------------------------------------------

    def group_action(self, g: Mat) -> Mat:
        """Exact matrix of the module action of g in GL(n+1, Q): the group
        rule applied to each basis vector."""
        return _matrix_of(self, _group_rule(self, *exact._scaled(g)))

    def algebra_action(self, x: Mat) -> Mat:
        """Exact matrix of the derived action of x in gl(n+1, Q): the algebra
        rule applied to each basis vector."""
        return _matrix_of(self, _algebra_rule(self, *exact._scaled(x)))

    def group_action_float(self, g: np.ndarray) -> np.ndarray:
        """Float matrices of the action of a stack (..., n+1, n+1) of group
        elements, as a stack (..., dim, dim), for numeric grids."""
        g = np.asarray(g, dtype=float)
        if g.shape[-2:] != (self.n + 1, self.n + 1):
            raise ValueError("group element has wrong size")
        return _group_action_float(self, g)


def build_module(kind: str, n: int) -> WeightModule:
    """Construct a module over sl(n+1) by kind string.

    Kinds: "standard", "exterior(d)" with 1 <= d <= n+1, "adjoint",
    "tensor(a,b)" with non-tensor operands.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    kind = kind.strip()
    if kind == "standard":
        weights = tuple(
            _beta_row([int(i == j) for i in range(n + 1)]) for j in range(n + 1))
        return WeightModule(n, "standard", n + 1, weights, ("standard",))
    m = _EXTERIOR_RE.match(kind)
    if m:
        d = int(m.group(1))
        if not 1 <= d <= n + 1:
            raise ValueError(f"exterior degree {d} out of range for n={n}")
        combos = tuple(itertools.combinations(range(n + 1), d))
        weights = []
        for c in combos:
            eps = [0] * (n + 1)
            for j in c:
                eps[j] = 1
            weights.append(_beta_row(eps))
        return WeightModule(n, f"exterior({d})", len(combos), tuple(weights),
                            ("exterior", d, combos))
    if kind == "adjoint":
        pairs = tuple((i, j) for i in range(n + 1) for j in range(n + 1) if i != j)
        weights = []
        for (i, j) in pairs:
            eps = [0] * (n + 1)
            eps[i] += 1
            eps[j] -= 1
            weights.append(_beta_row(eps))
        weights += [(0,) * n] * n
        return WeightModule(n, "adjoint", (n + 1) ** 2 - 1, tuple(weights), ("adjoint", pairs))
    m = _TENSOR_RE.match(kind)
    if m:
        left = build_module(m.group(1).strip(), n)
        right = build_module(m.group(2).strip(), n)
        weights = tuple(tuple(map(sum, zip(wa, wb)))
                        for wa in left.weights for wb in right.weights)
        return WeightModule(n, f"tensor({left.kind},{right.kind})", left.dim * right.dim,
                            weights, ("tensor", left, right))
    raise ValueError(f"unknown module kind: {kind!r}")


# -- the action on vectors, one exact rule per kind ----------------------------

# A rule is an integer map on coordinate rows with its nonzero denominator:
# it sends the vector w / d to image(w) / (d * denom).  A rule captures the
# module's n, dim and basis data, never the module itself: modules keep their
# rules in their cache, and a reference back would hold each module in a
# cycle until the cyclic collector runs.
Image = Callable[[Sequence[int]], Sequence[int]]
Rule = Tuple[Image, int]


def _group_rule(mod: WeightModule, gi: IntRows, gd: int) -> Rule:
    """The map v -> g v, for g = gi / gd given by integer rows over a
    nonzero denominator."""
    if len(gi) != mod.n + 1 or any(len(row) != mod.n + 1 for row in gi):
        raise ValueError("group element has wrong size")
    tag = mod.basis_data[0]
    if tag == "tensor":
        # rho_a(g) V rho_b(g)^T on the dim_a x dim_b coefficient matrix V
        _, left, right = mod.basis_data
        (rho_a, da), (rho_b, db) = _group_rule(left, gi, gd), _group_rule(right, gi, gd)
        width = right.dim
        return lambda w: _on_cols(rho_a, _on_rows(rho_b, w, width), width), da * db
    if tag == "standard":
        return functools.partial(exact._imatvec, gi), gd
    if tag == "exterior":
        # g(e_I) = sum over J of minor(g; J, I) e_J; the minors of the integer
        # rows are over gd^d, one column I at a time as w needs it
        _, d, combos = mod.basis_data
        dim = mod.dim

        @functools.cache
        def column(cols):
            return tuple(
                exact._bareiss_det([[gi[r][c] for c in cols] for r in rows])
                for rows in combos
            )

        def image(w):
            out = [0] * dim
            for c, cols in zip(w, combos):
                if c:
                    out = [a + c * m for a, m in zip(out, column(cols))]
            return out

        return image, gd**d
    if tag == "adjoint":
        hi, hd = exact._inverse_ints(gi, gd)
        gcols = tuple(zip(*gi))
        n, (_, pairs), dim = mod.n, mod.basis_data, mod.dim

        def image(w):
            # g X h over the support of X: a zero column j of X gives a zero
            # column of g X, which drops row j of h from the second product,
            # and a column with one entry x_ij is x_ij times column i of g; so
            # X = E_ij costs one outer product, column i of g times row j of
            # h, and a dense X two dense products
            cols, rows = [], []
            for xcol, hrow in zip(zip(*_adjoint_matrix(n, pairs, w)), hi):
                zeros = xcol.count(0)
                if zeros == len(xcol):
                    continue
                if zeros == len(xcol) - 1:
                    i = next(i for i, c in enumerate(xcol) if c)
                    cols.append([xcol[i] * b for b in gcols[i]])
                else:
                    cols.append([sum(map(mul, xcol, grow)) for grow in gi])
                rows.append(hrow)
            if not cols:
                return (0,) * dim
            if len(cols) == 1:
                return _adjoint_coords(n, pairs, [[c * b for b in rows[0]] for c in cols[0]])
            return _adjoint_coords(n, pairs, exact._imul(tuple(zip(*cols)), rows))

        return image, gd * hd
    raise AssertionError(tag)


def _algebra_rule(mod: WeightModule, xi: IntRows, xd: int) -> Rule:
    """The map v -> x v of the derived action, for x = xi / xd given by
    integer rows over a nonzero denominator."""
    if len(xi) != mod.n + 1 or any(len(row) != mod.n + 1 for row in xi):
        raise ValueError("algebra element has wrong size")
    tag = mod.basis_data[0]
    if tag == "tensor":
        # x V + V x^T on the dim_a x dim_b coefficient matrix V; both operand
        # rules are over xd
        _, left, right = mod.basis_data
        (x_a, _), (x_b, _) = _algebra_rule(left, xi, xd), _algebra_rule(right, xi, xd)
        width = right.dim
        return (lambda w: tuple(
            p + q for p, q in zip(_on_cols(x_a, w, width), _on_rows(x_b, w, width))
        ), xd)
    if tag == "standard":
        return functools.partial(exact._imatvec, xi), xd
    if tag == "exterior":
        # x acts as a derivation: x e_j = sum_i x_ij e_i in each factor of e_I
        combos, m, dim = mod.basis_data[2], mod.n + 1, mod.dim
        where = {idx: k for k, idx in enumerate(combos)}

        def image(w):
            out = [0] * dim
            for c, idx in zip(w, combos):
                for pos, j in enumerate(idx if c else ()):
                    for i in range(m):
                        if xi[i][j] == 0 or (i != j and i in idx):
                            continue
                        # sorting e_i into place passes the indices between i and j
                        sign = (-1) ** sum(min(i, j) < k < max(i, j) for k in idx)
                        target = tuple(sorted(idx[:pos] + (i,) + idx[pos + 1 :]))
                        out[where[target]] += sign * xi[i][j] * c
            return out

        return image, xd
    if tag == "adjoint":
        # [x, X] over the support of x: x_ij E_ij X is x_ij times row j of X
        # put in row i, and X x_ij E_ij is x_ij times column i of X put in
        # column j; so x = E_ij costs two vector updates
        support = [(i, j, c) for i, row in enumerate(xi) for j, c in enumerate(row) if c]
        n, (_, pairs) = mod.n, mod.basis_data

        def image(w):
            x = _adjoint_matrix(n, pairs, w)
            out = [[0] * len(x) for _ in x]
            for i, j, c in support:
                out[i] = [a + c * b for a, b in zip(out[i], x[j])]
                for row, xrow in zip(out, x):
                    row[j] -= c * xrow[i]
            return _adjoint_coords(n, pairs, out)

        return image, xd
    raise AssertionError(tag)


def _on_rows(image: Image, w: Sequence[int], width: int) -> tuple:
    """W -> W image^T on the row-major coefficient matrix W of a tensor."""
    return tuple(c for i in range(0, len(w), width) for c in image(w[i : i + width]))


def _on_cols(image: Image, w: Sequence[int], width: int) -> tuple:
    """W -> image W on the row-major coefficient matrix W of a tensor."""
    cols = [image(w[k::width]) for k in range(width)]
    return tuple(c for row in zip(*cols) for c in row)


def _matrix_of(mod: WeightModule, rule: Rule) -> Mat:
    """The matrix whose column b is the rule applied to basis vector b."""
    image, denom = rule
    cols = [image(basis_vector(mod, b).ints) for b in range(mod.dim)]
    return exact._over(zip(*cols), denom)


def _adjoint_matrix(n: int, pairs: tuple, v: Sequence) -> tuple:
    """The traceless matrix X_v whose adjoint coordinates are v in the
    adjoint basis of sl(n+1) with off-diagonal slots ``pairs``, with entries
    of the type of v's (integers for integer v)."""
    m = n + 1
    rows = [[0] * m for _ in range(m)]
    for (i, j), c in zip(pairs, v):
        rows[i][j] = c
    # the coefficient of D_k = E_kk - E_{k+1,k+1} enters diagonal slots k, k+1
    d = (0,) + tuple(v[len(pairs) :]) + (0,)
    for k in range(m):
        rows[k][k] = d[k + 1] - d[k]
    return tuple(tuple(row) for row in rows)


def _adjoint_coords(n: int, pairs: tuple, y) -> tuple:
    """Coordinates of a traceless matrix in the adjoint basis of sl(n+1)
    with off-diagonal slots ``pairs``, in the type of its entries (integers
    for an integer matrix)."""
    coords = [y[i][j] for (i, j) in pairs]
    # diagonal part: coefficients of D_k = E_kk - E_{k+1,k+1} are the
    # partial sums of the diagonal entries
    running = 0
    for k in range(n):
        running += y[k][k]
        coords.append(running)
    if running + y[n][n] != 0:
        raise ValueError("adjoint coordinates of a non-traceless matrix")
    return tuple(coords)


def _group_action_float(mod: WeightModule, g: np.ndarray) -> np.ndarray:
    tag = mod.basis_data[0]
    if tag == "standard":
        return g.copy()
    if tag == "exterior":
        # entry (a, b) is the minor on rows combos[a] and columns combos[b]
        idx = np.array(mod.basis_data[2])
        return np.linalg.det(g[..., idx[:, None, :, None], idx[None, :, None, :]])
    if tag == "adjoint":
        # column b holds the adjoint coordinates of g X_b g^{-1}
        basis = np.array([
            [[float(c) for c in row]
             for row in _adjoint_matrix(mod.n, mod.basis_data[1], basis_vector(mod, b).ints)]
            for b in range(mod.dim)
        ])
        y = g[..., None, :, :] @ basis @ np.linalg.inv(g)[..., None, :, :]
        i, j = np.array(mod.basis_data[1]).T
        diag = np.cumsum(np.diagonal(y, axis1=-2, axis2=-1), axis=-1)[..., : mod.n]
        return np.concatenate([y[..., i, j], diag], axis=-1).swapaxes(-1, -2)
    if tag == "tensor":
        _, left, right = mod.basis_data
        a = _group_action_float(left, g)[..., :, None, :, None]
        b = _group_action_float(right, g)[..., None, :, None, :]
        return (a * b).reshape(g.shape[:-2] + (mod.dim, mod.dim))
    raise AssertionError(tag)


# -- vectors ------------------------------------------------------------------


@dataclass(frozen=True)
class ModuleVector:
    """A module vector: integer coordinates ``ints`` over one positive
    denominator, normalised to gcd 1, so equal vectors have equal fields."""

    module: WeightModule
    ints: Tuple[int, ...]
    denom: int = 1

    def __post_init__(self):
        if len(self.ints) != self.module.dim:
            raise ValueError("coordinate count does not match module dimension")
        if self.denom == 0:
            raise ZeroDivisionError("vector denominator is zero")
        g = math.gcd(*self.ints, self.denom)
        if self.denom < 0:
            g = -g
        object.__setattr__(self, "ints", tuple(a // g for a in self.ints))
        object.__setattr__(self, "denom", self.denom // g)

    @property
    def coords(self) -> Vec:
        """The coordinates as exact Fractions, for reports and tests."""
        return tuple(Q(a, self.denom) for a in self.ints)

    def is_zero(self) -> bool:
        return not any(self.ints)

    def to_floats(self) -> np.ndarray:
        # int / int is correctly rounded, like float() of each coordinate
        return np.array([a / self.denom for a in self.ints])


def basis_vector(module: WeightModule, index: int) -> ModuleVector:
    return ModuleVector(module, tuple(int(i == index) for i in range(module.dim)))


def vector(module: WeightModule, coords: Sequence) -> ModuleVector:
    """The vector with the given exact coordinates (floats at their exact
    binary values)."""
    (ints,), denom = exact._scaled((coords,))
    return ModuleVector(module, ints, denom)


def _apply_rule(rule: Rule, v: ModuleVector) -> ModuleVector:
    """The image of v under a vector rule, in integers throughout."""
    image, denom = rule
    return ModuleVector(v.module, image(v.ints), v.denom * denom)


# -- support -------------------------------------------------------------------


def support_indices(v: ModuleVector) -> Tuple[int, ...]:
    """One basis index per distinct weight carrying a nonzero coordinate
    (the first), in sorted weight order."""
    seen: Dict[Tuple[int, ...], int] = {}
    for idx, (c, beta) in enumerate(zip(v.ints, v.module.weights)):
        if c:
            seen.setdefault(beta, idx)
    return tuple(seen[key] for key in sorted(seen))


def extreme_part(v: ModuleVector, levels: Sequence[int],
                 pick=max) -> Tuple[int, ModuleVector]:
    """The top level of a nonzero v in the grading ``levels`` (the bottom one
    with ``pick=min``) and the part of v at that level."""
    top = pick(lev for lev, c in zip(levels, v.ints) if c)
    return top, ModuleVector(v.module, tuple(c if lev == top else 0
                                             for c, lev in zip(v.ints, levels)), v.denom)
