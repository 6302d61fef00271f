"""Finite dimensional modules with exact rational weight bookkeeping.

Supported kinds: "standard", "exterior(d)", "adjoint", and one tensor layer
"tensor(a,b)" whose operands are non-tensor kinds.  Group elements act through
exact matrices over the rationals; the diagonal flow acts through weights.
No tolerances appear anywhere in this package.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .. import exact
from ..exact import Mat, Vec
from .cartan import Weight

_EXTERIOR_RE = re.compile(r"^exterior\((\d+)\)$")
_TENSOR_RE = re.compile(r"^tensor\(([^,]+),([^,]+)\)$")


def _wedge_sign_and_target(indices: Tuple[int, ...]) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """Sort a wedge index tuple; None if two indices collide."""
    idx = list(indices)
    sign = 1
    for a in range(len(idx)):
        for b in range(len(idx) - 1 - a):
            if idx[b] == idx[b + 1]:
                return None
            if idx[b] > idx[b + 1]:
                idx[b], idx[b + 1] = idx[b + 1], idx[b]
                sign = -sign
    return sign, tuple(idx)


@dataclass(frozen=True)
class WeightModule:
    n: int
    kind: str
    dim: int
    labels: Tuple[str, ...]
    weights: Tuple[Weight, ...]
    # kind-specific basis data (index tuples for exterior, (i, j) pairs and
    # diagonal slots for adjoint, operand pair for tensor)
    basis_data: tuple

    def __repr__(self) -> str:
        return f"WeightModule(kind={self.kind!r}, n={self.n}, dim={self.dim})"

    # -- weight structure ---------------------------------------------------

    def levels(self) -> Tuple[Q, ...]:
        """Values of each basis weight on the principal diagonal element."""
        from .cartan import h_principal

        h = h_principal(self.n)
        return tuple(w.evaluate(h) for w in self.weights)

    def level_set(self) -> Tuple[Q, ...]:
        return tuple(sorted(set(self.levels())))

    # -- actions ------------------------------------------------------------

    def group_action(self, g: Mat) -> Mat:
        """Exact matrix of the module action of g in GL(n+1, Q)."""
        if len(g) != self.n + 1:
            raise ValueError("group element has wrong size")
        return _group_action(self, g)

    def algebra_action(self, x: Mat) -> Mat:
        """Exact matrix of the derived action of x in gl(n+1, Q)."""
        if len(x) != self.n + 1:
            raise ValueError("algebra element has wrong size")
        return _algebra_action(self, x)

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
        labels = tuple(f"e{j}" for j in range(n + 1))
        weights = tuple(
            Weight.from_eps(tuple(1 if i == j else 0 for i in range(n + 1)))
            for j in range(n + 1)
        )
        return WeightModule(n, "standard", n + 1, labels, weights, ("standard",))
    m = _EXTERIOR_RE.match(kind)
    if m:
        d = int(m.group(1))
        if not 1 <= d <= n + 1:
            raise ValueError(f"exterior degree {d} out of range for n={n}")
        combos = tuple(itertools.combinations(range(n + 1), d))
        labels = tuple("^".join(f"e{j}" for j in c) for c in combos)
        weights = []
        for c in combos:
            eps = [0] * (n + 1)
            for j in c:
                eps[j] = 1
            weights.append(Weight.from_eps(eps))
        return WeightModule(
            n, f"exterior({d})", len(combos), labels, tuple(weights), ("exterior", d, combos)
        )
    if kind == "adjoint":
        pairs = tuple((i, j) for i in range(n + 1) for j in range(n + 1) if i != j)
        labels = [f"E{i},{j}" for (i, j) in pairs]
        weights = []
        for (i, j) in pairs:
            eps = [0] * (n + 1)
            eps[i] += 1
            eps[j] -= 1
            weights.append(Weight.from_eps(eps))
        for k in range(n):
            labels.append(f"D{k}")
            weights.append(Weight.zero(n))
        dim = (n + 1) ** 2 - 1
        return WeightModule(
            n, "adjoint", dim, tuple(labels), tuple(weights), ("adjoint", pairs)
        )
    m = _TENSOR_RE.match(kind)
    if m:
        left = build_module(m.group(1).strip(), n)
        right = build_module(m.group(2).strip(), n)
        labels = tuple(
            f"{a}*{b}" for a in left.labels for b in right.labels
        )
        weights = tuple(wa + wb for wa in left.weights for wb in right.weights)
        return WeightModule(
            n,
            f"tensor({left.kind},{right.kind})",
            left.dim * right.dim,
            labels,
            weights,
            ("tensor", left, right),
        )
    raise ValueError(f"unknown module kind: {kind!r}")


# -- matrix action construction, per kind ------------------------------------


def _group_action(mod: WeightModule, g: Mat) -> Mat:
    tag = mod.basis_data[0]
    if tag == "standard":
        return exact.mat(g)
    if tag == "exterior":
        _, d, combos = mod.basis_data
        return tuple(
            tuple(exact.minor(g, rows, cols) for cols in combos) for rows in combos
        )
    if tag == "adjoint":
        g_inv = exact.inverse(g)
        cols = []
        for b in range(mod.dim):
            x = _adjoint_basis_matrix(mod, b)
            cols.append(_adjoint_coords(mod, exact.matmul(exact.matmul(g, x), g_inv)))
        return tuple(tuple(cols[b][a] for b in range(mod.dim)) for a in range(mod.dim))
    if tag == "tensor":
        _, left, right = mod.basis_data
        return _kron(left.group_action(g), right.group_action(g))
    raise AssertionError(tag)


def _algebra_action(mod: WeightModule, x: Mat) -> Mat:
    tag = mod.basis_data[0]
    if tag == "standard":
        return exact.mat(x)
    if tag == "exterior":
        _, d, combos = mod.basis_data
        index_of = {c: a for a, c in enumerate(combos)}
        out = [[Q(0)] * mod.dim for _ in range(mod.dim)]
        for b, c in enumerate(combos):
            for pos in range(d):
                j = c[pos]
                for i in range(mod.n + 1):
                    coeff = x[i][j]
                    if coeff == 0:
                        continue
                    replaced = c[:pos] + (i,) + c[pos + 1 :]
                    st = _wedge_sign_and_target(replaced)
                    if st is None:
                        continue
                    sign, target = st
                    out[index_of[target]][b] += sign * coeff
        return tuple(tuple(row) for row in out)
    if tag == "adjoint":
        cols = []
        for b in range(mod.dim):
            y = _adjoint_basis_matrix(mod, b)
            cols.append(_adjoint_coords(mod, exact.commutator(x, y)))
        return tuple(tuple(cols[b][a] for b in range(mod.dim)) for a in range(mod.dim))
    if tag == "tensor":
        _, left, right = mod.basis_data
        xl = left.algebra_action(x)
        xr = right.algebra_action(x)
        return exact.add(
            _kron(xl, exact.identity(right.dim)), _kron(exact.identity(left.dim), xr)
        )
    raise AssertionError(tag)


def _adjoint_basis_matrix(mod: WeightModule, b: int) -> Mat:
    _, pairs = mod.basis_data
    n = mod.n
    if b < len(pairs):
        i, j = pairs[b]
        return exact.elementary(n + 1, i, j)
    k = b - len(pairs)
    return exact.sub(
        exact.elementary(n + 1, k, k), exact.elementary(n + 1, k + 1, k + 1)
    )


def _adjoint_coords(mod: WeightModule, y: Mat) -> Vec:
    """Coordinates of a traceless matrix in the adjoint basis."""
    _, pairs = mod.basis_data
    n = mod.n
    coords = [y[i][j] for (i, j) in pairs]
    # diagonal part: coefficients of D_k = E_kk - E_{k+1,k+1} are the
    # partial sums of the diagonal entries
    running = Q(0)
    for k in range(n):
        running += y[k][k]
        coords.append(running)
    if sum(y[k][k] for k in range(n + 1)) != 0:
        raise ValueError("adjoint coordinates of a non-traceless matrix")
    return tuple(coords)


def _kron(a: Mat, b: Mat) -> Mat:
    bn = len(b)
    return tuple(
        tuple(a[i][j] * b[k][l] for j in range(len(a[0])) for l in range(len(b[0])))
        for i in range(len(a))
        for k in range(bn)
    )


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
            [[float(v) for v in row] for row in _adjoint_basis_matrix(mod, b)]
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
    module: WeightModule
    coords: Vec

    def __post_init__(self):
        if len(self.coords) != self.module.dim:
            raise ValueError("coordinate count does not match module dimension")
        object.__setattr__(self, "coords", tuple(Q(c) for c in self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def sup_norm(self) -> Q:
        return exact.sup_norm(self.coords)

    def to_floats(self) -> np.ndarray:
        return np.array([float(c) for c in self.coords])

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        self._check_same(other)
        return ModuleVector(
            self.module, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        self._check_same(other)
        return ModuleVector(
            self.module, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self) -> "ModuleVector":
        return ModuleVector(self.module, tuple(-a for a in self.coords))

    def __rmul__(self, c) -> "ModuleVector":
        cq = Q(c)
        return ModuleVector(self.module, tuple(cq * a for a in self.coords))

    def _check_same(self, other: "ModuleVector") -> None:
        if other.module is not self.module and other.module != self.module:
            raise ValueError("vectors live in different modules")

    def __repr__(self) -> str:
        parts = [
            f"{c}*{lab}"
            for c, lab in zip(self.coords, self.module.labels)
            if c != 0
        ]
        return "ModuleVector(" + (" + ".join(parts) if parts else "0") + ")"


def basis_vector(module: WeightModule, index: int) -> ModuleVector:
    return ModuleVector(
        module, tuple(Q(1) if i == index else Q(0) for i in range(module.dim))
    )


def vector(module: WeightModule, coords: Sequence) -> ModuleVector:
    return ModuleVector(module, tuple(Q(c) for c in coords))


def act(g: Mat, v: ModuleVector) -> ModuleVector:
    """Apply an exact group element (an (n+1)x(n+1) rational matrix)."""
    rho = v.module.group_action(exact.mat(g))
    return ModuleVector(v.module, exact.matvec(rho, v.coords))


def act_algebra(x: Mat, v: ModuleVector) -> ModuleVector:
    """Apply the derived action of an algebra element, exactly."""
    rho = v.module.algebra_action(exact.mat(x))
    return ModuleVector(v.module, exact.matvec(rho, v.coords))


# -- support -------------------------------------------------------------------


def weight_support(v: ModuleVector) -> Tuple[Weight, ...]:
    """Distinct weights carrying a nonzero coordinate, sorted."""
    seen: Dict[Tuple[Q, ...], Weight] = {}
    for c, w in zip(v.coords, v.module.weights):
        if c != 0:
            seen[w.coeffs] = w
    return tuple(seen[key] for key in sorted(seen))
