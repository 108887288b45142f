"""The structural lemmas behind the loss-parameterized solver, as checkers.

The fpt-dbar dynamic program never calls these; they state the paper's
proof devices so tests can check them on worked fixtures and exhaustively
on small trees.  ``is_good`` and ``is_q_grounding`` are the per-tuple and
base-case predicates of the table recursion, ``check_color_respectful``
the five conditions on an anchored set, ``find_valid_ordering`` its
extinction-ordered insertion sequence, and ``anchored_set_for_sacrifice``
the construction that anchors any proper sacrifice set.
``injective_coloring`` gives every edge globally fresh colors.  The
predicates work on any tree, since tuples carry their sibling edge
explicitly.
"""

from rescuepd.color_loss import LossColoring
from rescuepd.errors import RescuePDError
from rescuepd.model import DerivedIndex, PhyloTree

from reference import candidate_tuples, path_has_unique_colors


def path_between(tree: PhyloTree, v: str, x: str) -> tuple[str, ...]:
    """Edges from strict ancestor v down to leaf x, named by child vertex."""
    path = []
    u = x
    while u != v:
        path.append(u)
        u = tree.parent[u]
    return tuple(reversed(path))


def is_good(tree: PhyloTree, coloring: LossColoring, tup, c1: int, c2: int) -> bool:
    """Goodness of one tuple against disjoint color sets (bitmasks)."""
    x, v, e = tup
    path = path_between(tree, v, x)
    if any(p not in coloring.eligible for p in path):
        return False
    if not path_has_unique_colors(coloring, path):
        return False
    if coloring.path_mask(path) & ~c1:
        return False
    return bool(coloring.key_bit(e) & c2)


def is_q_grounding(c1: int, c2: int, q: int, coloring: LossColoring,
                   idx: DerivedIndex) -> bool:
    """No candidate tuple for class q is good: the recursion bottoms out."""
    if c1 & c2:
        raise RescuePDError("grounding is defined for disjoint color sets")
    tree = idx.instance.tree
    for x, v, e, path in candidate_tuples(tree, coloring, idx, q):
        if coloring.path_mask(path) & ~c1 == 0 and coloring.key_bit(e) & c2:
            return False
    return True


def find_valid_ordering(tree: PhyloTree, coloring: LossColoring, anchored,
                        deadline_of):
    """Extinction-ordered insertion sequence, or None.

    At each step any remaining tuple with the smallest deadline may come
    next provided its sibling key color avoids every path color seen so far
    (including its own path); ties are explored with backtracking.
    """
    items = list(anchored)
    n = len(items)
    used = [False] * n
    order = []

    def rec(seen_mask):
        if len(order) == n:
            return True
        best = min(deadline_of(items[i][0]) for i in range(n) if not used[i])
        for i in range(n):
            if used[i] or deadline_of(items[i][0]) != best:
                continue
            x, v, e = items[i]
            new_mask = seen_mask | coloring.path_mask(path_between(tree, v, x))
            if coloring.key_bit(e) & new_mask:
                continue
            used[i] = True
            order.append(items[i])
            if rec(new_mask):
                return True
            used[i] = False
            order.pop()
        return False

    return tuple(order) if rec(0) else None


def check_color_respectful(anchored, coloring: LossColoring, idx: DerivedIndex) -> bool:
    """All five structural color conditions on an anchored taxa set."""
    tree = idx.instance.tree
    paths = [path_between(tree, v, x) for x, v, e in anchored]
    plus = set()
    for p in paths:
        plus.update(p)
    total = sum(coloring.color_mask(e).bit_count() for e in plus)
    union = 0
    for e in plus:
        union |= coloring.color_mask(e)
    if total != union.bit_count():
        return False
    keys = [coloring.key_color[e] for _, _, e in anchored]
    if len(set(keys)) != len(keys):
        return False
    if any(e not in coloring.eligible for e in plus):
        return False
    seen = set()
    for p in paths:
        if seen & set(p):
            return False
        seen.update(p)
    return find_valid_ordering(tree, coloring, anchored,
                               lambda x: idx.instance.deadline(x)) is not None


def anchored_set_for_sacrifice(tree: PhyloTree, sacrificed, deadline_of):
    """Iterative witness construction for a nonempty sacrifice set.

    Taxa are added in deadline order; each step anchors at the top of the
    newly dead path segment, and the sibling edge is either the path edge of
    the next tuple sharing the anchor or the first still-alive outgoing
    edge.  The union of the anchored paths equals the dead edge set.
    """
    xs = sorted(sacrificed, key=lambda x: (deadline_of(x), x))
    if not xs:
        return []
    if set(xs) == set(tree.taxa):
        raise RescuePDError("anchoring is undefined when every taxon is sacrificed")
    alive = {}
    for v in reversed(tree.preorder()):
        cs = tree.children.get(v, ())
        alive[v] = sum(alive[c] for c in cs) if cs else 1
    step_died: dict = {}   # edge (child vertex) -> step at which it died
    anchors = []           # (x_i, v_i, w_i)
    for i, x in enumerate(xs):
        alive[x] -= 1
        a = x
        while a != tree.root:
            a = tree.parent[a]
            alive[a] -= 1
        # the newly dead edges form a contiguous path segment above x
        top = x
        u = x
        while alive[u] == 0:
            step_died[u] = i
            top = u
            if tree.parent[u] == tree.root:
                break
            u = tree.parent[u]
        anchors.append((x, tree.parent[top], top))
    tuples = []
    for i, (x, v, w) in enumerate(anchors):
        sibling = None
        for j in range(i + 1, len(anchors)):
            if anchors[j][1] == v:
                sibling = anchors[j][2]
                break
        if sibling is None:
            # any outgoing edge still alive right after step i works
            for c in tree.children[v]:
                if step_died.get(c, len(xs)) > i:
                    sibling = c
                    break
        if sibling is None:  # pragma: no cover - impossible for proper subsets
            raise RescuePDError(f"no live sibling edge at anchor {v!r}")
        tuples.append((x, v, sibling))
    return tuples


def injective_coloring(tree: PhyloTree) -> LossColoring:
    """Every edge gets globally fresh colors; useful for structural checks."""
    key, extras = {}, {}
    nxt = 1
    for e in tree.edge_order:
        key[e] = nxt
        mask = 0
        for _ in range(tree.weight[e] - 1):
            nxt += 1
            mask |= 1 << (nxt - 1)
        extras[e] = mask
        nxt += 1
    half = max(1, (nxt + 1) // 2)
    return LossColoring(2 * half, key, extras, frozenset(tree.edge_order))
