"""Stress-model generator: so(n) action algebroids on R^n.

The anchor of basis element e_(i,j), i < j, is the linear vector field
X_A(x) = A x for A = E_ij - E_ji.  Linear vector fields satisfy
[X_A, X_B] = X_[B,A], so the structure constants that make the anchor
a bracket morphism are the coordinates of B A - A B in the basis.

The anchor, structure constants, conformal metric and the tower's
3-form are fixed by n.  The seed only draws the coefficients of the
non-structural blocks (b_field, eta_boundary, mu and the tower's eta),
always nonzero, so every seed yields the same expression structure and
therefore the same amount of work.
"""

from __future__ import annotations

import itertools
import json
import random


def _basis(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n), 2))


def _matrix(n: int, pair: tuple[int, int]) -> list[list[int]]:
    i, j = pair
    m = [[0] * n for _ in range(n)]
    m[i][j] = 1
    m[j][i] = -1
    return m


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def structure_constants(n: int) -> dict[tuple[int, int, int], int]:
    """Nonzero C^c_ab (0-based, a < b) with [X_a, X_b] = C^c_ab X_c."""
    basis = _basis(n)
    mats = [_matrix(n, p) for p in basis]
    out = {}
    for a, b in itertools.combinations(range(len(basis)), 2):
        ba = _matmul(mats[b], mats[a])
        ab = _matmul(mats[a], mats[b])
        comm = [[ba[i][j] - ab[i][j] for j in range(n)] for i in range(n)]
        for c, (i, j) in enumerate(basis):
            # the basis is orthogonal; E_ij - E_ji has its coefficient at (i, j)
            if comm[i][j]:
                out[(c, a, b)] = comm[i][j]
    return out


def _coef(rng: random.Random) -> float:
    return round(rng.choice((-1, 1)) * rng.uniform(0.25, 1.25), 6)


def _term(rng: random.Random, monomial: str) -> str:
    return f"{_coef(rng)!r}*{monomial}"


def _linear(rng: random.Random, coords, k: int) -> str:
    """Two seeded linear terms, in the coordinates after position k."""
    n = len(coords)
    return f"{_term(rng, coords[k % n])} + {_term(rng, coords[(k + 1) % n])}".replace("+ -", "- ")


def _quadratic(rng: random.Random, coords, k: int) -> str:
    """Two seeded quadratic terms: a cross term and a square."""
    n = len(coords)
    cross = f"{coords[k % n]}*{coords[(k + 1) % n]}"
    square = f"{coords[(k + 2) % n]}^2"
    return f"{_term(rng, cross)} + {_term(rng, square)}".replace("+ -", "- ")


def son_model_doc(n: int, seed: int) -> dict:
    """The so(n) action model on R^n as a model-file object."""
    rng = random.Random(seed)
    coords = [f"x{i + 1}" for i in range(n)]
    basis = _basis(n)
    rank = len(basis)
    anchor = []
    for a, (i, j) in enumerate(basis):
        # X_A = A x for A = E_ij - E_ji: component i is x_j, component j is -x_i
        anchor.append({"idx": [a + 1, i + 1], "expr": coords[j]})
        anchor.append({"idx": [a + 1, j + 1], "expr": "-" + coords[i]})
    structure = [
        {"idx": [c + 1, a + 1, b + 1], "expr": str(v)}
        for (c, a, b), v in sorted(structure_constants(n).items())
    ]
    radius2 = " + ".join(f"{x}^2" for x in coords)
    metric = [{"idx": [i + 1, i + 1], "expr": f"1 + ({radius2})/8"} for i in range(n)]
    b_field = [{"idx": [i + 1, j + 1], "expr": repr(_coef(rng))} for i, j in basis]
    eta_boundary = [{"idx": [i + 1], "expr": _linear(rng, coords, i)} for i in range(n)]
    mu = [{"idx": [a + 1], "expr": _quadratic(rng, coords, a)} for a in range(rank)]
    h = [{"idx": [i + 1 for i in t], "expr": "1"} for t in itertools.combinations(range(n), 3)]
    eta0 = [
        {"idx_form": [], "idx_bundle": [a + 1, b + 1], "expr": _linear(rng, coords, a + b)}
        for a, b in itertools.combinations(range(rank), 2)
    ]
    eta1 = [
        {"idx_form": [i + 1], "idx_bundle": [a + 1], "expr": _linear(rng, coords, i + a)}
        for i in range(n)
        for a in range(rank)
    ]
    eta2 = [{"idx": [i + 1, j + 1], "expr": _linear(rng, coords, i + j)} for i, j in basis]
    return {
        "schema": 1,
        "chart": {"coordinates": coords, "box": [[-1.5, 1.5]] * n},
        "algebroid": {"rank": rank, "anchor": anchor, "structure": structure},
        "metric": metric,
        "b_field": b_field,
        "eta_boundary": eta_boundary,
        "mu": mu,
        "multisym": {"n": 2, "h": h, "eta": {"0": eta0, "1": eta1, "2": eta2}},
        "sampling": {"seed": 42, "points": 32},
    }


class GeneratorError(RuntimeError):
    """A generated model failed its own axiom gate."""


def son_model_bytes(n: int, seed: int) -> bytes:
    """Model JSON bytes, emitted only if the so(n) axioms hold on it."""
    from momsec import RunConfig, load_model_bytes, run

    raw = (json.dumps(son_model_doc(n, seed), indent=2, sort_keys=True) + "\n").encode()
    report = run(load_model_bytes(raw), "axioms", RunConfig(points=8, seed=seed))
    for name in ("axioms/anchor-morphism", "axioms/jacobi-cyclic"):
        row = report.find(name)
        if not row.passed:
            raise GeneratorError(f"so({n}) model: {name} residual {row.max_residual!r}")
    return raw
