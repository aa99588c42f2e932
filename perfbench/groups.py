"""Groups generated by integer matrices, in plain Python integers.

Shared by the search-workload generator, which uses the ball to pick a depth
with a given frontier size, and the oracle, which checks tiltkit's frontier
and search verdicts against it.  Matrices are flat row-major tuples.
"""

from __future__ import annotations

import hashlib


def _sparse(g: list[list[int]]) -> list[tuple[int, tuple[int, ...]]]:
    n = len(g)
    return [(col, tuple(g[r][col] for r in range(n))) for col in range(n)
            if any(g[r][col] != int(r == col) for r in range(n))]


def _times(m: tuple[int, ...], n: int, sparse) -> tuple[int, ...]:
    out = list(m)
    for col, v in sparse:
        for r in range(n):
            row = r * n
            out[row + col] = sum(m[row + k] * v[k] for k in range(n) if v[k])
    return tuple(out)


def is_negated_permutation(m: tuple[int, ...], n: int) -> bool:
    if any(x not in (0, -1) for x in m):
        return False
    return all(sum(m[r * n:(r + 1) * n]) == -1 for r in range(n)) and all(
        sum(m[r * n + c] for r in range(n)) == -1 for c in range(n))


def plain_ball(gens: dict[str, list[list[int]]], depth: int) -> dict:
    """What a breadth-first search of the generated group to ``depth`` sees,
    in plain integers: the radius reached (less than ``depth`` when the
    group is finite), the node count, the product count (each expanded node
    times each generator), the depth of the first negated permutation if
    any, and a digest of the node set.
    """
    n = len(next(iter(gens.values())))
    names = sorted(gens)
    sparse = [_sparse(gens[name]) for name in names]
    start = tuple(int(r == c) for r in range(n) for c in range(n))
    seen = {start}
    layers = [[start]]
    closed = False
    while len(layers) <= depth:
        nxt = []
        for m in layers[-1]:
            for s in sparse:
                p = _times(m, n, s)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        if not nxt:
            closed = True  # a finite group: the last layer was expanded too
            break
        layers.append(nxt)
    expanded = layers if closed else layers[:-1]
    first_hit = next((d for d, layer in enumerate(layers)
                      if any(is_negated_permutation(p, n) for p in layer)), None)
    return {
        "radius": len(layers) - 1,
        "nodes": len(seen),
        "products": len(names) * sum(len(layer) for layer in expanded),
        "first_hit": first_hit,
        "digest": node_digest(seen),
    }


def node_digest(nodes) -> str:
    h = hashlib.sha256()
    for m in sorted(nodes):
        h.update(repr(m).encode())
    return h.hexdigest()
