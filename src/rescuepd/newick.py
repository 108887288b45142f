"""Newick parsing and serialization with integer branch lengths.

Supported form: nested parentheses with ``name:length`` on every non-root
edge, e.g. ``((x1:3,x2:2):1,x3:5);``.  Internal vertices may carry labels;
unlabeled ones are named ``_1``, ``_2``, ... in parse order.  Branch lengths
must be positive integers.
"""

from __future__ import annotations

import re

from .errors import DuplicateLeaf, NonIntegerWeight, ParseError
from .model import PhyloTree

_LABEL_CHARS = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                   "0123456789_.-|/")
_LABEL_RUN = re.compile(f"[{re.escape(''.join(sorted(_LABEL_CHARS)))}]+")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.counter = 0
        self.names = set()
        self.labels = None  # every label-like run of the text, once needed

    def error(self, message):
        raise ParseError(f"{message} at byte {self.pos}")

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_label(self):
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _LABEL_CHARS:
            self.pos += 1
        return self.text[start:self.pos]

    def take_length(self):
        if self.peek() != ":":
            self.error("expected ':<length>'")
        self.pos += 1
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789.+-eE":
            self.pos += 1
        raw = self.text[start:self.pos]
        if not raw:
            self.error("missing branch length")
        try:
            value = int(raw)
        except ValueError:
            raise NonIntegerWeight(
                f"branch length {raw!r} at byte {start} is not an integer") from None
        if value < 1:
            raise NonIntegerWeight(f"branch length {value} at byte {start} must be >= 1")
        return value

    def fresh_name(self):
        # skip every label in the text, also those still to come
        if self.labels is None:
            self.labels = set(_LABEL_RUN.findall(self.text))
        self.counter += 1
        name = f"_{self.counter}"
        while name in self.labels:
            self.counter += 1
            name = f"_{self.counter}"
        return name

    def node(self, edges):
        """Parse one subtree; returns (vertex name, wants_length)."""
        if self.peek() == "(":
            self.pos += 1
            children = [self.node_with_length(edges)]
            while self.peek() == ",":
                self.pos += 1
                children.append(self.node_with_length(edges))
            if self.peek() != ")":
                self.error("expected ')' or ','")
            self.pos += 1
            label = self.take_label()  # optional internal label
            name = label or self.fresh_name()
            if name in self.names:
                self.error(f"duplicate vertex name {name!r}")
            self.names.add(name)
            for child, weight in children:
                edges.append((name, child, weight))
            return name
        label = self.take_label()
        if not label:
            self.error("expected a leaf label")
        if label in self.names:
            raise DuplicateLeaf(f"leaf {label!r} appears twice (byte {self.pos})")
        self.names.add(label)
        return label

    def node_with_length(self, edges):
        name = self.node(edges)
        return name, self.take_length()


def parse_newick(text: str) -> PhyloTree:
    """Parse a Newick string into a PhyloTree (stable child order)."""
    parser = _Parser(text.strip())
    edges: list = []
    try:
        root = parser.node(edges)
    except RecursionError:
        raise ParseError("tree is nested too deeply to parse") from None
    if parser.peek() == ":":
        parser.error("root must not carry a branch length")
    if parser.peek() != ";":
        parser.error("expected ';'")
    parser.pos += 1
    if parser.pos != len(parser.text):
        parser.error("trailing characters after ';'")
    if not edges:
        parser.error("tree needs at least one edge")
    return PhyloTree.from_edges(edges)


def to_newick(tree: PhyloTree) -> str:
    """Serialize with source child order; inverse of parse_newick."""

    def render(v):
        cs = tree.children.get(v, ())
        if not cs:
            return v
        inner = ",".join(f"{render(c)}:{tree.weight[c]}" for c in cs)
        label = "" if v.startswith("_") else v
        return f"({inner}){label}"

    return render(tree.root) + ";"
