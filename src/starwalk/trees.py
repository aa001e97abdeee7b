"""Graph construction: paths, starlike trees, coalescence, free-tree census.

Graphs are immutable adjacency-list structures over vertices 0..n-1. The only
builders exposed mutate nothing; operations like coalescence return fresh
graphs. A starlike tree is a plain graph too, fixed by its sorted branch
list: `make_starlike` attaches its branches as pendant paths
(`attach_paths`) to a lone center at vertex 0, consecutively and
nondecreasing, each starting at its center-adjacent vertex, so that walk
counts at addressable vertices are reproducible across runs.

One breadth-first walk (`_reach`) serves connectivity, the rooting of a
forest that its charpoly and inertia counts read, tree centers and
canonical codes.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

from .partitions import Partition, parse_partition


class Graph(NamedTuple):
    n: int
    adj: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if v in nbrs[u]:
                raise ValueError(f"duplicate edge ({u},{v})")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return cls(n, tuple(tuple(sorted(s)) for s in nbrs))

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)


def make_path(n: int) -> Graph:
    """Path on n vertices, 0-1-...-(n-1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def make_starlike(branches: Partition | Sequence[int]) -> Graph:
    """Build S(a_1,...,a_k): k paths of those lengths glued at a new center.

    The center is vertex 0; the branches follow in nondecreasing order, each
    numbered outward from its center-adjacent vertex.
    """
    return attach_paths(make_path(1), 0, Partition(branches).parts)


def coalescence(g: Graph, u: int, h: Graph, v: int) -> Graph:
    """Glue disjoint copies of g and h by identifying g's u with h's v.

    Vertices of g keep their labels; the surviving vertices of h follow.
    """
    if not (0 <= u < g.n):
        raise ValueError(f"u={u} out of range")
    if not (0 <= v < h.n):
        raise ValueError(f"v={v} out of range")

    def relabel(w: int) -> int:
        if w == v:
            return u
        return g.n + (w if w < v else w - 1)

    edges = g.edges() + [(relabel(a), relabel(b)) for a, b in h.edges()]
    return Graph.from_edges(g.n + h.n - 1, edges)


def attach_paths(g: Graph, u: int, lengths: Iterable[int]) -> Graph:
    """Attach pendant paths with the given edge counts at vertex u of g.

    The new vertices follow g's, one path after another, each numbered
    outward from u; a length of 0 attaches nothing.
    """
    if not (0 <= u < g.n):
        raise ValueError(f"u={u} out of range")
    edges = g.edges()
    nxt = g.n
    for length in lengths:
        if length < 0:
            raise ValueError("path lengths must be nonnegative")
        prev = u
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph.from_edges(nxt, edges)


class CycleError(ValueError):
    """The graph has a cycle; `rooted_forest`, and the charpolys and
    inertia counts read on its rooting, take forests only."""


def _reach(g: Graph, root: int, seen: list[bool], parent: list[int]) -> list[int]:
    """The vertices not yet seen that root reaches, root first and breadth
    first, each after its parent; marks them seen and sets parent[w] for
    every one but root."""
    seen[root] = True
    reached = [root]
    for v in reached:  # the list grows while it is read
        for w in g.adj[v]:
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                reached.append(w)
    return reached


def is_connected(g: Graph) -> bool:
    return g.n > 0 and len(_reach(g, 0, [False] * g.n, [-1] * g.n)) == g.n


def is_tree(g: Graph) -> bool:
    return g.n >= 1 and g.edge_count == g.n - 1 and is_connected(g)


def rooted_forest(g: Graph) -> tuple[list[int], list[int]]:
    """(order, parent) of the forest g, each component rooted at its least
    vertex: order lists every vertex after its parent, breadth first, and a
    root's parent is -1. Raises CycleError on a cycle: a forest has n minus
    its component count edges, and any other graph more."""
    parent = [-1] * g.n
    seen = [False] * g.n
    order: list[int] = []
    roots = 0
    for root in range(g.n):
        if not seen[root]:
            order += _reach(g, root, seen, parent)
            roots += 1
    if g.edge_count != g.n - roots:
        raise CycleError("charpoly is implemented for forests only")
    return order, parent


def tree_centers(g: Graph) -> tuple[int, ...]:
    """The one or two middle vertices of a tree: the middle of a longest
    path. The last vertex a walk reaches ends one, and a walk from that end
    reaches the other end last, so its parents give the path."""
    if not is_tree(g):
        raise ValueError("centers are defined for trees only")
    end = _reach(g, 0, [False] * g.n, [-1] * g.n)[-1]
    parent = [-1] * g.n
    v = _reach(g, end, [False] * g.n, parent)[-1]
    path = [v]
    while v != end:
        v = parent[v]
        path.append(v)
    return tuple(sorted(path[(len(path) - 1) // 2 : len(path) // 2 + 1]))


def canonical_code(g: Graph) -> str:
    """Isomorphism-invariant code of a free tree: "c" and the code of its
    center, or "e" and the sorted codes of the two sides of its central
    edge. A vertex's code is "1", its children's codes sorted and joined,
    then "0", built leaves first on one walk from a center. No code is a
    proper prefix of another, so codes sort as nested tuples of sorted
    child codes would."""
    centers = tree_centers(g)
    parent = [-1] * g.n
    kids: dict[int, list[str]] = {}
    tops = []
    for v in reversed(_reach(g, centers[0], [False] * g.n, parent)):
        code = "1" + "".join(sorted(kids.pop(v, ()))) + "0"
        if v in centers:  # the other center's side stays off the first's
            tops.append(code)
        else:
            kids.setdefault(parent[v], []).append(code)
    return ("c" if len(tops) == 1 else "e") + "".join(sorted(tops))


def is_starlike(g: Graph) -> bool:
    """Tree with at most one vertex of degree >= 3 (paths count)."""
    return g.n == 1 or starlike_branches(g) is not None


def starlike_branches(g: Graph) -> Optional[Partition]:
    """Branch lengths of a starlike tree, or None if g is not one.

    Paths are reported from one end, i.e. P_n maps to the single branch
    (n-1); the one-vertex tree has no branches and returns None. One O(n)
    pass: with n - 1 edges and at most one vertex of degree >= 3 (else the
    first leaf) as center, every branch is walked outward. A walk that comes
    back to the center closes a cycle; branches that cover all n - 1 other
    vertices make g connected, hence a tree.
    """
    if g.n < 2 or g.edge_count != g.n - 1:
        return None
    high = [v for v, nbrs in enumerate(g.adj) if len(nbrs) >= 3]
    if len(high) > 1:
        return None
    # a path is walked from its first end; with no end, g has a cycle
    center = high[0] if high else next((v for v, a in enumerate(g.adj) if len(a) == 1), -1)
    if center < 0:
        return None
    lengths = []
    for cur in g.adj[center]:
        prev, length = center, 1
        while len(g.adj[cur]) == 2:
            a, b = g.adj[cur]
            prev, cur = cur, b if a == prev else a
            if cur == center:
                return None
            length += 1
        lengths.append(length)
    if sum(lengths) != g.n - 1:
        return None
    return Partition(lengths)


def enumerate_free_trees(n: int) -> list[Graph]:
    """One representative per isomorphism class of trees on n vertices.

    Grown by attaching a leaf everywhere on each (n-1)-tree and deduplicating
    canonical codes; every n-tree arises this way since removing any leaf of
    it yields an (n-1)-tree. Capped at n <= 12: class counts stay small but
    the census cost grows quickly past that.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > 12:
        raise ValueError("free-tree census capped at n <= 12")
    level = {canonical_code(make_path(1)): make_path(1)}
    for size in range(2, n + 1):
        nxt: dict[str, Graph] = {}
        for tree in level.values():
            edges = tree.edges()
            for v in range(tree.n):
                candidate = Graph.from_edges(size, edges + [(v, size - 1)])
                code = canonical_code(candidate)
                if code not in nxt:
                    nxt[code] = candidate
        level = nxt
    return [level[code] for code in sorted(level)]


def parse_branches(text: str) -> Partition:
    """The branch lengths of a descriptor like "S(1,2,3)", without building
    the tree: its cost grows with the text, not with the vertex count."""
    s = text.strip()
    if not (s.startswith("S(") and s.endswith(")")):
        raise ValueError(f"malformed tree descriptor {text!r}")
    return parse_partition(s[2:-1])


def parse_edge_list(text: str) -> Graph:
    """Parse whitespace-separated "u v" lines; blank lines and # comments ok.

    The vertices are 0 to the largest id, and each must lie on some edge,
    so the graph never outgrows the file; a missing id raises ValueError."""
    edges = []
    max_v = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"line {lineno}: expected integers, got {raw!r}") from None
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: negative vertex id in {raw!r}")
        edges.append((u, v))
        max_v = max(max_v, u, v)
    seen = {x for edge in edges for x in edge}
    if len(seen) <= max_v:
        # the first gap is at most len(seen), so this stops early
        missing = next(x for x in range(max_v + 1) if x not in seen)
        raise ValueError(f"vertex {missing} lies on no edge (ids run 0..{max_v})")
    return Graph.from_edges(max_v + 1, edges)
