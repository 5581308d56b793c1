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

The search also collects automorphisms: two leaves with equal relabeled
adjacency differ by one, and so do twins. The connected classes on n
vertices grow each class on n - 1 vertices by one new vertex, with one
neighbour set per orbit of those automorphisms; a global set of
canonical forms drops the remaining duplicates.

The package's enumeration and brute-force optimum run on these classes
rather than on every labeled graph; nothing here is built at import.
"""

from __future__ import annotations

from itertools import combinations, permutations


def _refine(adj, cells: list, quiet: set) -> list:
    """Split cells (vertex masks, in order) by neighbour counts into each
    cell until the partition is equitable; smaller counts go first, and
    after each split the splitters are taken from the first cell again.

    ``quiet`` holds masks known to split no cell. A finer partition keeps
    them so, so skipping them leaves the result as it was; it gains every
    splitter that splits nothing, so the search hands it down the tree.
    The counts into a splitter are bit-sliced: bit j of every vertex's
    count sits in ``planes[j]``, so cells split by the planes from the
    highest down, the zeros of each before its ones."""
    i = 0
    big = [cell for cell in cells if cell & (cell - 1)]
    while i < len(cells) and big:
        splitter = cells[i]
        i += 1
        if splitter in quiet:
            continue
        planes = []
        m = splitter
        while m:
            low = m & -m
            m ^= low
            carry = adj[low.bit_length() - 1]
            for j, plane in enumerate(planes):
                planes[j] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            else:
                if carry:
                    planes.append(carry)
        if not any(0 != cell & plane != cell for plane in planes for cell in big):
            quiet.add(splitter)
            continue
        for plane in reversed(planes):
            split = []
            for cell in cells:
                ones = cell & plane
                if ones and ones != cell:
                    split.append(cell ^ ones)
                    split.append(ones)
                else:
                    split.append(cell)
            cells = split
        big = [cell for cell in cells if cell & (cell - 1)]
        i = 0
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


def _canonical_search(adj) -> tuple:
    """(form, generators): the canonical form of canonical_graph and the
    automorphisms of ``adj`` met on the way, each a tuple g mapping vertex
    u to g[u]. Two leaves with equal relabeled adjacency give one, and each
    twin left untried gives its transposition; together they generate a
    subgroup of Aut(adj), which may be trivial when the group is not."""
    n = len(adj)
    best = best_order = None
    generators = set()

    def search(cells, quiet):
        nonlocal best, best_order
        cells = _refine(adj, cells, quiet)
        for i, cell in enumerate(cells):
            if cell & (cell - 1):
                break
        else:
            order = [c.bit_length() - 1 for c in cells]
            relabeled = _relabeled(adj, order)
            if best is None or relabeled < best:
                best, best_order = relabeled, order
            elif relabeled == best:
                g = [0] * n
                for u, w in zip(best_order, order):
                    g[u] = w
                generators.add(tuple(g))
            return
        tried = []
        m = cell
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            twin = next((u for u in tried if adj[v] & ~(1 << u) == adj[u] & ~low), None)
            if twin is not None:  # swapping twins fixes adj and gives the same leaves
                g = list(range(n))
                g[v], g[twin] = twin, v
                generators.add(tuple(g))
                continue
            tried.append(v)
            search(cells[:i] + [low, cell ^ low] + cells[i + 1:], set(quiet))

    search([(1 << n) - 1], set())
    return best, generators


def canonical_graph(adj) -> tuple:
    """Adjacency of the canonical relabeling of ``adj``, the smallest
    relabeled adjacency tuple over the leaves: equal for isomorphic graphs,
    different otherwise."""
    return _canonical_search(adj)[0]


def _subset_orbits(generators, n: int):
    """Yield the least member of each orbit of the group ``generators``
    generate on the nonempty vertex subsets of n vertices, in ascending
    order."""
    images = []
    for g in generators:
        image = [0] * (1 << n)
        for s in range(1, 1 << n):
            low = s & -s
            image[s] = image[s ^ low] | 1 << g[low.bit_length() - 1]
        images.append(image)
    seen = bytearray(1 << n)
    for s in range(1, 1 << n):
        if seen[s]:
            continue
        seen[s] = 1
        orbit = [s]
        for t in orbit:
            for image in images:
                u = image[t]
                if not seen[u]:
                    seen[u] = 1
                    orbit.append(u)
        yield s


def connected_classes(n: int) -> list:
    """One canonical adjacency per isomorphism class of connected graphs on
    n vertices, in ascending order.

    Every connected graph with n >= 2 vertices has a vertex whose removal
    leaves it connected (a leaf of a spanning tree), so adding a vertex
    with every nonempty neighbour set to each class on n - 1 vertices
    reaches every class; the canonical form removes the duplicates. An
    automorphism of the class maps one neighbour set onto another with an
    isomorphic result, so one set per orbit of the automorphisms that the
    class's own canonical search finds is enough.
    """
    if n < 1:
        return []
    classes = [(0,)]
    for size in range(2, n + 1):
        forms = set()
        new = 1 << (size - 1)
        for adj in classes:
            for nbrs in _subset_orbits(_canonical_search(adj)[1], size - 1):
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
