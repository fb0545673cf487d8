"""Pure-Python pattern-growth kernel.

Works on integer-encoded endpoint sequences (code = 2 * service + is_end).
A prefix is extended one endpoint at a time under the alternation rule: a
start is legal only while the service is closed, an end only while it is
open. Patterns are reported when every start has been closed.

Each projected entry is a sequence index plus the next-occurrence table of
its suffix (code -> index of the first occurrence at or after the suffix
start), built once per sequence and position, so a sequence of n endpoints
over k distinct codes costs O(n * k) table entries. Projecting past a code
is one lookup, and the codes in a table are exactly those its suffix holds.

Pruning: the search carries the end codes of the services the prefix
leaves open. Before a prefix is expanded, every entry whose suffix lacks
one of those end codes is dropped, and the prefix is not expanded at all
once fewer than minsup entries remain. This leaves the results unchanged.
Every reported descendant of the prefix closes each open service, so it
contains each open end after the prefix's leftmost embedding; an entry
whose suffix lacks one supports no reported descendant, and a prefix with
fewer than minsup such entries has none. Only subtrees that report nothing
are cut, so the reported patterns, their supporting sequences and the
order in which they are found stay the same.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain


def mine_sequences(seqs, minsup, max_len):
    """Grow frequent closed endpoint patterns over encoded sequences.

    Returns a dict mapping each pattern (tuple of codes) to the ascending
    list of indices of the sequences that contain it.
    """
    results = {}
    # tables[si][pos]: code -> first index >= pos in seqs[si]
    tables = []
    for seq in seqs:
        after = [{}]
        for j in range(len(seq) - 1, -1, -1):
            after.append({**after[-1], seq[j]: j})
        tables.append(after[::-1])

    def grow(prefix, open_ends, entries):
        if len(prefix) >= max_len:
            return
        if open_ends:
            entries = [(si, nxt) for si, nxt in entries if nxt.keys() >= open_ends]
            if len(entries) < minsup:
                return
        counts = Counter(chain.from_iterable(nxt for _, nxt in entries))
        for code in sorted(counts):
            if counts[code] < minsup:
                continue
            if code & 1:
                if code not in open_ends:
                    continue
                new_open = open_ends - {code}
            else:
                if code | 1 in open_ends:
                    continue
                new_open = open_ends | {code | 1}
            new_entries = [
                (si, tables[si][nxt[code] + 1]) for si, nxt in entries if code in nxt
            ]
            prefix.append(code)
            if not new_open:
                results[tuple(prefix)] = [si for si, _ in new_entries]
            grow(prefix, new_open, new_entries)
            prefix.pop()

    grow([], frozenset(), [(si, table[0]) for si, table in enumerate(tables)])
    return results
