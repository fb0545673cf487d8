"""Pure-Python pattern-growth kernel.

Works on integer-encoded endpoint sequences (code = 2 * service + is_end).
A prefix is extended one endpoint at a time under the alternation rule: a
start is legal only while the service is closed, an end only while it is
open. Patterns are reported when every start has been closed.

Each projected entry is a sequence index, the next-occurrence table of its
suffix (code -> index of the first occurrence at or after the suffix
start) and the positions of the prefix's start codes. The tables are built
once per sequence and position, so a sequence of n endpoints over k
distinct codes costs O(n * k) table entries. Projecting past a code is one
lookup, and the codes in a table are exactly those its suffix holds.

Projection always moves to the first occurrence of the code, so an entry's
positions are those of the prefix's leftmost embedding in its sequence. The
positions tuple grows only on a start code: a pattern's instance is its
start endpoints, and each end is found again from its start's event.

Pruning: the search carries the end codes of the services the prefix
leaves open. When a prefix is extended, every projected entry whose new
suffix lacks one of the extension's open end codes is dropped in the same
pass, and the extension is neither reported nor expanded once fewer than
minsup entries remain. This leaves the results unchanged.
Every reported descendant of the prefix closes each open service, so it
contains each open end after the prefix's leftmost embedding; an entry
whose suffix lacks one supports no reported descendant, and a prefix with
fewer than minsup such entries has none. Only subtrees that report nothing
are cut, so the reported patterns, their embeddings and the order in which
they are found stay the same.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain


def mine_sequences(seqs, minsup, max_len):
    """Grow frequent closed endpoint patterns over encoded sequences.

    Returns a dict mapping each pattern (tuple of codes) to a list of
    (sequence index, start positions) pairs, one per supporting sequence in
    ascending index order. The start positions index that sequence at the
    pattern's start codes, in pattern order, along its leftmost embedding.
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
        counts = Counter(chain.from_iterable(nxt for _, nxt, _ in entries))
        for code in sorted(counts):
            if counts[code] < minsup:
                continue
            # project past the code's first occurrence; keep an entry only
            # if its new suffix holds every end the extension leaves open
            if code & 1:
                if code not in open_ends:
                    continue
                new_open = open_ends - {code}
                new_entries = [
                    (si, suffix, starts)
                    for si, nxt, starts in entries
                    if code in nxt
                    and (suffix := tables[si][nxt[code] + 1]).keys() >= new_open
                ]
            else:
                if code | 1 in open_ends:
                    continue
                new_open = open_ends | {code | 1}
                new_entries = [
                    (si, suffix, starts + (j,))
                    for si, nxt, starts in entries
                    if (j := nxt.get(code)) is not None
                    and (suffix := tables[si][j + 1]).keys() >= new_open
                ]
            if len(new_entries) < minsup:
                continue
            prefix.append(code)
            if not new_open:
                results[tuple(prefix)] = [(si, starts) for si, _, starts in new_entries]
            grow(prefix, new_open, new_entries)
            prefix.pop()

    grow([], frozenset(), [(si, table[0], ()) for si, table in enumerate(tables)])
    return results
