"""Regex-lite: the shared pattern matcher of the interpreter workloads.

Backs mini-Perl's ``m/../`` and ``split`` and mini-AWK's ``~`` operator
and ``/pattern/`` rules.

Supports the subset a perl4-era report-extraction script leans on:
literal characters, ``.``, character classes ``[a-z0-9]`` (with ranges and
``^`` negation), the escapes ``\\d``, ``\\w``, ``\\s``, anchors ``^``/``$``,
and the postfix quantifiers ``*``, ``+``, ``?`` on single atoms.  Matching
is a classic backtracking walk (Thompson would disapprove; Perl 4 would
not).

Compiled patterns are traced allocations — one node per atom, compiled
once per script and long-lived, like Perl's compiled regexps.  Each
``match`` call allocates one short-lived match-state record, modelling the
per-match scratch the original interpreter mallocs.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.runtime.heap import HeapObject, TracedHeap

__all__ = ["RegexError", "Regex", "compile_pattern", "RX_NODE_SIZE",
           "MATCH_STATE_SIZE"]

#: Modelled size of one compiled pattern node.
RX_NODE_SIZE = 24
#: Modelled size of the per-match scratch state.
MATCH_STATE_SIZE = 32


class RegexError(Exception):
    """Raised on malformed regex-lite patterns."""


class _Atom:
    """One compiled pattern element."""

    __slots__ = ("kind", "data", "repeat", "handle")

    def __init__(self, kind: str, data: object, handle: HeapObject):
        self.kind = kind  # "char" | "any" | "class"
        self.data = data
        self.repeat = ""  # "", "*", "+", "?"
        self.handle = handle


def _expand_class(body: str) -> Tuple[bool, frozenset]:
    """Parse a character-class body into (negated, member set)."""
    negated = body.startswith("^")
    if negated:
        body = body[1:]
    members = set()
    i = 0
    while i < len(body):
        if i + 2 < len(body) and body[i + 1] == "-":
            lo, hi = ord(body[i]), ord(body[i + 2])
            if lo > hi:
                raise RegexError(f"bad range {body[i:i+3]!r}")
            members.update(chr(c) for c in range(lo, hi + 1))
            i += 3
        else:
            members.add(body[i])
            i += 1
    return negated, frozenset(members)


_ESCAPES = {
    "d": (False, frozenset("0123456789")),
    "w": (False, frozenset(
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"
    )),
    "s": (False, frozenset(" \t\n\r")),
}


class Regex:
    """A compiled regex-lite pattern."""

    def __init__(self, heap: TracedHeap, pattern: str,
                 atoms: List[_Atom], anchored_start: bool, anchored_end: bool):
        self.heap = heap
        self.pattern = pattern
        self.atoms = atoms
        self.anchored_start = anchored_start
        self.anchored_end = anchored_end

    def match(self, text: str, state_alloc: Callable[[int], HeapObject]) -> bool:
        """Whether the pattern occurs in ``text`` (Perl's ``=~`` semantics).

        ``state_alloc`` supplies the traced allocation for the match state
        so the caller's chain owns the allocation site.
        """
        state = state_alloc(MATCH_STATE_SIZE)
        try:
            starts = range(1) if self.anchored_start else range(len(text) + 1)
            for start in starts:
                if self._match_here(text, start, 0):
                    return True
            return False
        finally:
            self.heap.free(state)

    def _match_here(self, text: str, pos: int, atom_index: int) -> bool:
        if atom_index == len(self.atoms):
            return pos == len(text) if self.anchored_end else True
        atom = self.atoms[atom_index]
        self.heap.touch(atom.handle, 1)
        if atom.repeat == "*":
            return self._match_repeat(text, pos, atom_index, minimum=0)
        if atom.repeat == "+":
            return self._match_repeat(text, pos, atom_index, minimum=1)
        if atom.repeat == "?":
            if (
                pos < len(text)
                and self._matches_atom(atom, text[pos])
                and self._match_here(text, pos + 1, atom_index + 1)
            ):
                return True
            return self._match_here(text, pos, atom_index + 1)
        if pos < len(text) and self._matches_atom(atom, text[pos]):
            return self._match_here(text, pos + 1, atom_index + 1)
        return False

    def _match_repeat(self, text: str, pos: int, atom_index: int,
                      minimum: int) -> bool:
        atom = self.atoms[atom_index]
        count = 0
        # Greedy: consume as much as possible, then backtrack.
        while pos + count < len(text) and self._matches_atom(
            atom, text[pos + count]
        ):
            count += 1
        while count >= minimum:
            if self._match_here(text, pos + count, atom_index + 1):
                return True
            count -= 1
        return False

    @staticmethod
    def _matches_atom(atom: _Atom, ch: str) -> bool:
        if atom.kind == "char":
            return ch == atom.data
        if atom.kind == "any":
            return True
        negated, members = atom.data
        return (ch in members) != negated


def compile_pattern(
    heap: TracedHeap,
    pattern: str,
    node_alloc: Callable[[int], HeapObject],
) -> Regex:
    """Compile ``pattern``, allocating one traced node per atom."""
    src = pattern
    anchored_start = src.startswith("^")
    if anchored_start:
        src = src[1:]
    anchored_end = src.endswith("$") and not src.endswith("\\$")
    if anchored_end:
        src = src[:-1]

    atoms: List[_Atom] = []
    i = 0
    while i < len(src):
        ch = src[i]
        handle = node_alloc(RX_NODE_SIZE)
        if ch == "\\":
            i += 1
            if i >= len(src):
                raise RegexError(f"{pattern!r}: trailing backslash")
            escape = src[i]
            if escape in _ESCAPES:
                atom = _Atom("class", _ESCAPES[escape], handle)
            else:
                atom = _Atom("char", escape, handle)
        elif ch == ".":
            atom = _Atom("any", None, handle)
        elif ch == "[":
            end = src.find("]", i + 1)
            if end < 0:
                raise RegexError(f"{pattern!r}: unterminated class")
            atom = _Atom("class", _expand_class(src[i + 1 : end]), handle)
            i = end
        elif ch in "*+?":
            raise RegexError(f"{pattern!r}: quantifier with nothing to repeat")
        else:
            atom = _Atom("char", ch, handle)
        i += 1
        if i < len(src) and src[i] in "*+?":
            atom.repeat = src[i]
            i += 1
        atoms.append(atom)
    return Regex(heap, pattern, atoms, anchored_start, anchored_end)
