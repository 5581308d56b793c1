"""Graph isomorphism at desk scale: canonical forms, connected classes, relabelings.

Graphs are tuples of neighbour bitmasks. The canonical form refines the
vertex partition to an equitable one, individualises a vertex of the
first non-singleton cell and refines again, down to discrete partitions;
each leaf orders the vertices, and the smallest adjacency code over the
leaves names the class (Read 1978; McKay, "Isomorph-free exhaustive
generation", J. Algorithms 1998). Twins, vertices whose neighbourhoods
agree apart from each other, are swapped by an automorphism that fixes
the partition, so only one per cell is individualised. Every step
depends on cell order and neighbour counts, never on vertex labels, so
isomorphic graphs get the same form.

The package's enumeration and brute-force optimum run on these classes
rather than on every labeled graph; nothing here is built at import.
"""

from __future__ import annotations

from itertools import combinations, permutations


def _refine(adj, cells: list) -> list:
    """Split cells (vertex masks, in order) by neighbour counts into each
    cell until the partition is equitable; smaller counts go first."""
    changed = True
    while changed:
        changed = False
        for splitter in cells:
            split = []
            for cell in cells:
                if not cell & (cell - 1):
                    split.append(cell)
                    continue
                groups = {}
                m = cell
                while m:
                    low = m & -m
                    m ^= low
                    k = (adj[low.bit_length() - 1] & splitter).bit_count()
                    groups[k] = groups.get(k, 0) | low
                if len(groups) > 1:
                    changed = True
                    split.extend(groups[k] for k in sorted(groups))
                else:
                    split.append(cell)
            if changed:
                cells = split
                break
    return cells


def _relabeled(adj, order) -> tuple:
    """Adjacency of the graph with vertex ``order[i]`` renamed i."""
    pos = [0] * len(order)
    for i, v in enumerate(order):
        pos[v] = i
    out = []
    for v in order:
        row = 0
        m = adj[v]
        while m:
            low = m & -m
            m ^= low
            row |= 1 << pos[low.bit_length() - 1]
        out.append(row)
    return tuple(out)


def canonical_graph(adj) -> tuple:
    """Adjacency of the canonical relabeling of ``adj``, the smallest
    relabeled adjacency tuple over the leaves: equal for isomorphic graphs,
    different otherwise."""
    best = None

    def search(cells):
        nonlocal best
        cells = _refine(adj, cells)
        for i, cell in enumerate(cells):
            if cell & (cell - 1):
                break
        else:
            relabeled = _relabeled(adj, [c.bit_length() - 1 for c in cells])
            if best is None or relabeled < best:
                best = relabeled
            return
        tried = []
        m = cell
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            if any(adj[v] & ~(1 << u) == adj[u] & ~low for u in tried):
                continue  # a twin of a tried vertex gives the same leaves
            tried.append(v)
            search(cells[:i] + [low, cell ^ low] + cells[i + 1:])

    search([(1 << len(adj)) - 1])
    return best


def connected_classes(n: int) -> list:
    """One canonical adjacency per isomorphism class of connected graphs on
    n vertices, in ascending order.

    Every connected graph with n >= 2 vertices has a vertex whose removal
    leaves it connected (a leaf of a spanning tree), so adding a vertex
    with every nonempty neighbour set to each class on n - 1 vertices
    reaches every class; the canonical form removes the duplicates.
    """
    if n < 1:
        return []
    classes = [(0,)]
    for size in range(2, n + 1):
        forms = set()
        new = 1 << (size - 1)
        for adj in classes:
            for nbrs in range(1, new):
                grown = [row | new if nbrs >> v & 1 else row for v, row in enumerate(adj)]
                grown.append(nbrs)
                forms.add(canonical_graph(grown))
        classes = sorted(forms)
    return classes


def relabelings(n: int) -> list:
    """One index tuple per vertex relabeling p of n vertices: entry i is
    p[a] * n + p[b] for the i-th pair (a, b) in lexicographic order, so it
    reads the relabeled pair's value off a row-major n x n table."""
    pairs = list(combinations(range(n), 2))
    return [tuple(p[a] * n + p[b] for a, b in pairs) for p in permutations(range(n))]
