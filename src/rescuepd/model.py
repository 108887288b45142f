"""Core data model: trees, taxa, teams, and derived capacity quantities.

Conventions used throughout the package:

* Timeslots are 1-based.  A team with window (s, e) works during the slots
  j with s < j <= e, i.e. for e - s person-hours.
* Deadline classes are 0-indexed.  ``ex_values[0] < ex_values[1] < ...`` are
  the distinct extinction times; class k holds the taxa that go extinct at
  ``ex_values[k]``, and the prefix up to class k is every taxon with a
  deadline <= ``ex_values[k]``.
* A taxa set is any iterable of leaf labels; canonical form is the sorted
  tuple of labels.

All types are immutable after construction and safe to share across threads.
``build_derived_index`` relies on that: it keeps the last index it built
and returns it again for the same instance object.
"""

from __future__ import annotations

import heapq
import itertools
import numbers
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .errors import BadParams, InvalidInstance, UnknownTaxon

MAX_HOURS = 2**63 - 1  # capacities are kept within 64-bit range

COLLABORATIVE = "collaborative"
STRICT = "strict"
MODES = (COLLABORATIVE, STRICT)


def _integer(value) -> bool:
    """Is value an int that is not a bool?"""
    return isinstance(value, int) and not isinstance(value, bool)


def check_size(value, what: str) -> None:
    """BadParams unless value is an integer >= 0 and not a bool."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 0:
        raise BadParams(f"{what} must be an integer >= 0, got {value!r}")


@dataclass(frozen=True)
class TaxonInfo:
    """Per-taxon rescue data: person-hours needed and last usable timeslot."""

    rescue_length: int
    extinction_time: int


@dataclass(frozen=True)
class TeamWindow:
    """Availability window of one team: slots j with start < j <= end."""

    start: int
    end: int

    def hours_until(self, deadline: int) -> int:
        """Person-hours this team can contribute in slots <= deadline."""
        return max(0, min(self.end, deadline) - self.start)


class PhyloTree:
    """Rooted tree with positive integer edge weights and labeled leaves.

    Vertices are arbitrary strings; leaves double as taxon labels.  Child
    order is stable (source order), which fixes the canonical edge order:
    edges are listed by preorder traversal and identified by their child
    vertex.  The tree is walked once, when built; ``preorder()`` returns it.
    """

    __slots__ = ("root", "children", "parent", "weight", "taxa", "_preorder")

    def __init__(self, root: str, children: dict[str, tuple[str, ...]],
                 weight: dict[str, int]):
        self.root = root
        try:
            self.children = {v: tuple(cs) for v, cs in children.items()}
            self.weight = dict(weight)
            self.parent = {}
            for v, cs in self.children.items():
                for c in cs:
                    if c in self.parent:
                        raise InvalidInstance(f"vertex {c!r} has two parents")
                    self.parent[c] = v
            hash(root)
        except (AttributeError, TypeError, ValueError) as exc:  # not mappings, or unhashable
            raise InvalidInstance(f"a tree needs hashable vertices and mappings of children "
                                  f"and weights: {exc}") from None
        self._preorder = self._walk()
        try:
            self.taxa = tuple(sorted(v for v in self._preorder if not self.children.get(v)))
        except TypeError:
            raise InvalidInstance("leaf labels must be mutually ordered") from None

    @classmethod
    def from_edges(cls, edges: list[tuple[str, str, int]]) -> "PhyloTree":
        """Build a tree from (parent, child, weight) triples in source order."""
        children: dict[str, list[str]] = {}
        weight: dict[str, int] = {}
        try:
            for u, v, w in edges:
                children.setdefault(u, []).append(v)
                children.setdefault(v, [])
                if v in weight:
                    raise InvalidInstance(f"edge into {v!r} listed twice")
                weight[v] = w
        except (TypeError, ValueError) as exc:  # not triples, or unhashable
            raise InvalidInstance(f"edges must be hashable triples: {exc}") from None
        roots = [v for v in children if v not in weight]  # every child has a weight
        if len(roots) != 1:
            raise InvalidInstance(f"expected one root, found {sorted(roots, key=str)}")
        return cls(roots[0], {v: tuple(cs) for v, cs in children.items()}, weight)

    def _walk(self) -> tuple[str, ...]:
        """The preorder, checked on the way; with one parent per vertex and
        none for the root, it reaches each vertex once."""
        if self.root in self.parent or self.root in self.weight:
            raise InvalidInstance(f"root {self.root!r} has a parent or an edge weight")
        order, stack = [], [self.root]
        while stack:
            v = stack.pop()
            order.append(v)
            cs = self.children.get(v, ())
            stack.extend(reversed(cs))
            # only a one-edge tree's root has out-degree 1
            if len(cs) == 1 and (v != self.root or self.children.get(cs[0])):
                raise InvalidInstance(f"internal vertex {v!r} has out-degree 1")
            w = self.weight.get(v)
            if v != self.root and (not _integer(w) or w < 1):
                raise InvalidInstance(f"edge into {v!r} has weight {w!r}; "
                                      "weights must be integers >= 1")
        unreached = self.children.keys() - order
        if unreached:
            raise InvalidInstance(f"vertices {sorted(unreached, key=str)} unreachable")
        return tuple(order)

    def is_leaf(self, v: str) -> bool:
        return not self.children.get(v)

    def preorder(self) -> tuple[str, ...]:
        """Every vertex, root first, children in source order."""
        return self._preorder

    @property
    def edge_order(self) -> tuple[str, ...]:
        """Canonical edge order; an edge is named by its child vertex."""
        return self._preorder[1:]

    def root_path(self, label: str) -> tuple[str, ...]:
        """Edges (as child vertices) from the root down to a leaf."""
        if label not in self.parent and label != self.root:
            raise UnknownTaxon(f"unknown taxon {label!r}")
        path = []
        v = label
        while v != self.root:
            path.append(v)
            v = self.parent[v]
        return tuple(reversed(path))

    def is_binary(self) -> bool:
        return all(len(cs) == 2 for cs in self.children.values() if cs)

    def is_star(self) -> bool:
        return all(self.is_leaf(c) for c in self.children.get(self.root, ()))

    def total_weight(self) -> int:
        return sum(self.weight.values())

    def __eq__(self, other):
        return (isinstance(other, PhyloTree) and self.root == other.root
                and self.children == other.children and self.weight == other.weight)

    def __hash__(self):
        return hash((self.root, tuple(sorted(self.weight.items()))))


@dataclass(frozen=True)
class Instance:
    """One rescue-planning problem: tree, taxa data, teams, target, mode."""

    tree: PhyloTree
    taxa: dict  # label -> TaxonInfo
    teams: tuple  # of TeamWindow
    target: int
    mode: str = COLLABORATIVE

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidInstance(f"mode must be one of {MODES}, got {self.mode!r}")
        if not isinstance(self.tree, PhyloTree):
            raise InvalidInstance(f"tree must be a PhyloTree, got {self.tree!r}")
        if not isinstance(self.taxa, Mapping):
            raise InvalidInstance(f"taxa must map leaves to TaxonInfo, got {self.taxa!r}")
        if set(self.taxa) != set(self.tree.taxa):
            missing = set(self.tree.taxa) ^ set(self.taxa)
            raise InvalidInstance(f"taxa map and tree leaves differ on {sorted(missing, key=str)}")
        if not isinstance(self.teams, Sequence) or not self.teams:
            raise InvalidInstance(f"at least one team is required, got {self.teams!r}")
        for i, t in enumerate(self.teams):
            if not isinstance(t, TeamWindow):
                raise InvalidInstance(f"team {i} must be a TeamWindow, got {t!r}")
            if not (_integer(t.start) and _integer(t.end)):
                raise InvalidInstance(f"team {i} window ({t.start!r}, {t.end!r}) "
                                      "needs integer ends")
            if not (0 <= t.start < t.end):
                raise InvalidInstance(f"team {i} window ({t.start}, {t.end}) "
                                      "needs 0 <= start < end")
        for x, info in self.taxa.items():
            if not isinstance(info, TaxonInfo):
                raise InvalidInstance(f"taxon {x!r} must have a TaxonInfo, got {info!r}")
            if not (_integer(info.rescue_length) and _integer(info.extinction_time)):
                raise InvalidInstance(f"taxon {x!r} needs an integer rescue length and "
                                      f"extinction time, got {info!r}")
            if info.rescue_length < 1:
                raise InvalidInstance(f"taxon {x!r} has rescue length < 1")
            if info.extinction_time < 1:
                raise InvalidInstance(f"taxon {x!r} has extinction time < 1")
        if not _integer(self.target):
            raise InvalidInstance(f"target diversity must be an integer, got {self.target!r}")
        if self.target < 0:
            raise InvalidInstance("target diversity must be >= 0")

    def length(self, x: str) -> int:
        try:
            return self.taxa[x].rescue_length
        except (KeyError, TypeError):
            raise UnknownTaxon(f"unknown taxon {x!r}") from None

    def deadline(self, x: str) -> int:
        try:
            return self.taxa[x].extinction_time
        except (KeyError, TypeError):
            raise UnknownTaxon(f"unknown taxon {x!r}") from None

    def pairs_by_slot(self):
        """All (team index, timeslot) pairs where some team can work, in
        (slot, team) order, generated lazily by merging the teams' windows,
        so a consumer pays only for the pairs it takes."""
        runs = (zip(range(t.start + 1, t.end + 1), itertools.repeat(i))
                for i, t in enumerate(self.teams))
        return ((i, j) for j, i in heapq.merge(*runs))

    def pair_count(self) -> int:
        """Number of (team, slot) pairs, without listing them."""
        return sum(t.end - t.start for t in self.teams)


@dataclass(frozen=True)
class DerivedIndex:
    """Everything the solvers derive from an instance.

    ``hours[k]`` is the total person-hours available up to the k-th distinct
    deadline, ``team_hours[i][k]`` the same for team i alone, and
    ``deficits[k]`` the (possibly negative) shortfall between the hours
    needed to save every taxon in the k-th prefix and ``hours[k]``.
    """

    instance: Instance
    ex_values: tuple[int, ...]
    order: tuple[str, ...]          # taxa sorted by (deadline, label)
    class_of: dict                  # label -> class index (0-based)
    hours: tuple[int, ...]
    team_hours: tuple[tuple[int, ...], ...]
    deficits: tuple[int, ...]
    pd_total: int
    loss_budget: int                # pd_total - target; negative => trivial no
    max_ex: int

    @property
    def n_classes(self) -> int:
        return len(self.ex_values)


_last_index = None  # the index last built; it holds its instance


def build_derived_index(instance: Instance) -> DerivedIndex:
    """Populate every derived quantity; raises InvalidInstance on bad input.

    The last index built is kept and returned again for the very same
    instance object (identity, not equality), which is sound because
    instances are immutable.  One slot holds one instance, which the next
    build of another instance releases; a build that raises keeps nothing.
    """
    global _last_index
    last = _last_index
    if last is not None and last.instance is instance:
        return last
    tree, taxa = instance.tree, instance.taxa
    ex_values = tuple(sorted({info.extinction_time for info in taxa.values()}))
    order = tuple(sorted(taxa, key=lambda x: (taxa[x].extinction_time, x)))
    classes = tuple(tuple(members) for _, members in itertools.groupby(
        order, key=lambda x: taxa[x].extinction_time))
    class_of = {x: k for k, members in enumerate(classes) for x in members}
    team_hours = tuple(tuple(t.hours_until(ex) for ex in ex_values)
                       for t in instance.teams)
    hours = tuple(sum(col) for col in zip(*team_hours))
    if hours and hours[-1] > MAX_HOURS:
        raise InvalidInstance("total person-hours overflow 64-bit range")
    need = 0
    deficits = []
    for k, members in enumerate(classes):
        need += sum(taxa[x].rescue_length for x in members)
        deficits.append(need - hours[k])
    pd_total = tree.total_weight()
    idx = DerivedIndex(
        instance=instance,
        ex_values=ex_values,
        order=order,
        class_of=class_of,
        hours=hours,
        team_hours=team_hours,
        deficits=tuple(deficits),
        pd_total=pd_total,
        loss_budget=pd_total - instance.target,
        max_ex=ex_values[-1],
    )
    _last_index = idx
    return idx


def capped_product(factors, limit: int) -> int:
    """Product of the factors, or limit + 1 once the running product passes
    limit.  A factor base ** e >= 2 ** e may be passed as base ** min(e,
    limit.bit_length()), which keeps a huge cost cheap and the result equal."""
    product = 1
    for factor in factors:
        product *= factor
        if product > limit:
            return limit + 1
    return product


def _read_back(order, improved, cell, shrink) -> list:
    """The set a by-cell table holds at cell, from ``improved``, the cells
    that each taxon of ``order`` improved as it joined: walking the taxa
    backwards, the last one that improved the cell joins the set, and the
    cell becomes ``shrink(taxon, cell)``, what the set held before it."""
    taxa = []
    for x, cells in zip(reversed(order), reversed(improved)):
        if cell in cells:
            taxa.append(x)
            cell = shrink(x, cell)
    return taxa


def pd_of_subset(tree: PhyloTree, taxa_set) -> int:
    """Total weight of edges with at least one member of the set below them:
    the union of the members' root paths, each walked up to the first edge
    already counted.  A member that is not a leaf, or a set that is not
    iterable, raises UnknownTaxon."""
    parent, counted = tree.parent, set()
    try:
        members = iter(taxa_set)
    except TypeError:
        raise UnknownTaxon(f"{taxa_set!r} is not a set of taxon labels") from None
    for x in members:
        try:
            leaf = (x in parent or x == tree.root) and not tree.children.get(x)
        except TypeError:  # unhashable
            leaf = False
        if not leaf:
            raise UnknownTaxon(f"unknown taxon {x!r}")
        while x in parent and x not in counted:
            counted.add(x)
            x = parent[x]
    return sum(map(tree.weight.__getitem__, counted))


def savable_alone(instance: Instance, idx: DerivedIndex, x: str) -> bool:
    """Can {x} be saved by itself (mode-aware)?"""
    need, deadline = instance.length(x), instance.deadline(x)
    if instance.mode == STRICT:
        return any(t.hours_until(deadline) >= need for t in instance.teams)
    return need <= idx.hours[idx.class_of[x]]


def canon(taxa_set) -> tuple[str, ...]:
    """Canonical form of a taxa set: sorted tuple of labels.  Labels that
    cannot be ordered are not all leaves of one tree: UnknownTaxon."""
    try:
        return tuple(sorted(taxa_set))
    except TypeError:
        raise UnknownTaxon(f"cannot order the labels of {taxa_set!r}") from None
