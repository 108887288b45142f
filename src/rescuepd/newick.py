"""Newick parsing and serialization with integer branch lengths.

Supported form: nested parentheses with ``name:length`` on every non-root
edge, e.g. ``((x1:3,x2:2):1,x3:5);``.  Internal vertices may carry labels;
unlabeled ones are named ``_1``, ``_2``, ... in parse order.  Branch lengths
must be positive integers.  Depth is not limited: neither direction
recurses.  A text that does not describe a valid tree raises ParseError.
"""

from __future__ import annotations

import re

from .errors import DuplicateLeaf, InvalidInstance, NonIntegerWeight, ParseError
from .model import PhyloTree

_LABEL = re.compile(r"[A-Za-z0-9_.\-|/]*")
_LENGTH = re.compile(r"[0-9.+\-eE]*")


def parse_newick(text: str) -> PhyloTree:
    """Parse a Newick string into a PhyloTree (stable child order)."""
    if not isinstance(text, str):
        raise ParseError(f"a Newick tree must be a str, got {type(text).__name__}")
    text = text.strip()
    children, weight = {}, {}
    open_kids = []  # the child list of each open '('
    labels, counter, pos = None, 0, 0
    while True:
        # a subtree starts at pos: open its groups, then read its first leaf
        while text.startswith("(", pos):
            open_kids.append([])
            pos += 1
        end = _LABEL.match(text, pos).end()
        name = text[pos:end]
        if not name:
            raise ParseError(f"expected a leaf label at byte {pos}")
        pos = end
        if name in children:
            raise DuplicateLeaf(f"leaf {name!r} appears twice (byte {pos})")
        children[name] = ()
        # give the vertex its length; a ',' starts the next subtree, and a
        # ')' closes the group, whose vertex is read next
        while open_kids:
            if not text.startswith(":", pos):
                raise ParseError(f"expected ':<length>' at byte {pos}")
            start = pos + 1
            pos = _LENGTH.match(text, start).end()
            raw = text[start:pos]
            if not raw:
                raise ParseError(f"missing branch length at byte {pos}")
            try:
                value = int(raw)
            except ValueError:
                raise NonIntegerWeight(
                    f"branch length {raw!r} at byte {start} is not an integer") from None
            if value < 1:
                raise NonIntegerWeight(f"branch length {value} at byte {start} must be >= 1")
            weight[name] = value
            open_kids[-1].append(name)
            if text.startswith(",", pos):
                pos += 1
                break
            if not text.startswith(")", pos):
                raise ParseError(f"expected ')' or ',' at byte {pos}")
            end = _LABEL.match(text, pos + 1).end()
            name = text[pos + 1:end]
            pos = end
            if not name:
                # skip every label in the text, also those still to come
                if labels is None:
                    labels = set(_LABEL.findall(text))
                counter += 1
                while f"_{counter}" in labels:
                    counter += 1
                name = f"_{counter}"
            if name in children:
                raise ParseError(f"duplicate vertex name {name!r} at byte {pos}")
            children[name] = open_kids.pop()
        if not open_kids:
            break
    if text.startswith(":", pos):
        raise ParseError(f"root must not carry a branch length at byte {pos}")
    if not text.startswith(";", pos):
        raise ParseError(f"expected ';' at byte {pos}")
    pos += 1
    if pos != len(text):
        raise ParseError(f"trailing characters after ';' at byte {pos}")
    if not weight:
        raise ParseError(f"tree needs at least one edge at byte {pos}")
    try:
        return PhyloTree(name, children, weight)
    except InvalidInstance as exc:
        raise ParseError(f"not a valid tree: {exc}") from exc


def to_newick(tree: PhyloTree) -> str:
    """Serialize with source child order; inverse of parse_newick."""
    parts = []
    for v in tree.preorder():
        if tree.children.get(v):
            parts.append("(")
            continue
        parts.append(v)
        # after a leaf, close every group whose last child ends here
        while v != tree.root:
            parent = tree.parent[v]
            parts.append(f":{tree.weight[v]}")
            if tree.children[parent][-1] != v:
                parts.append(",")
                break
            parts.append(")" if parent.startswith("_") else ")" + parent)
            v = parent
    parts.append(";")
    return "".join(parts)
