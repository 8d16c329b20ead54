"""Epimorphisms between two-bridge knot groups via the ORS pattern.

The Ohtsuki-Riley-Sakuma construction characterizes when one two-bridge
knot group surjects onto another: the big knot's reduced even word must
interleave 2r+1 signed copies of the target word a (alternating with
its reversal) with even connector entries 2*c_j,

    (eps_1 a, 2c_1, eps_2 a^rev, 2c_2, ..., 2c_{2r}, eps_{2r+1} a),

where eps_1 = +1.  A zero connector is deleted and the two adjacent
block-boundary entries merge by addition; the constraint eps_{j+1} =
eps_j for c_j = 0 keeps the merged entry nonzero and even.

Generation spells these words onto a given target, pruned by crossing
number and braid index (``ors_words``).  ``epi_graph`` takes every edge
from the words onto the knots with at most a third of its crossing
bound, and ``classify.table1`` its rows from the words onto the
2-strand torus knots; neither searches.

Detection, the search behind ``epi_targets``, ``admits_epi`` and
``is_minimal``, reads the targets off the big word.  In each orientation
w of the big word (w and its reverse-negation) the first block is the
target itself, so a target of length n is w[:n] or, after a zero first
connector, w[:n-1] followed by w[n-1]/2 if even; a pattern a is kept if 3
crossing(a) <= crossing(big), and no census of targets is enumerated.
``_parse`` reads w once per pattern, block by block.  Each block
boundary admits one reading only, whatever r is, so one read without
backtracking finds the only parse in O(L).  A composition spells one
word, so no witness is found twice, and it canonicalises to the big
knot exactly when it is the big word in one of its orientations; each
parse is still composed again and compared before it becomes a witness.

Every returned witness carries an audit splitting the braid-index gap
braid(big) - 3 braid(target) + 4 into four non-negative terms; the
audit recomputes everything from the parameters and the composed word,
trusting nothing from the search or the walk.

``write_dot`` and ``write_json`` stream the graph as it is enumerated; the
JSON is that of ``json.dumps(..., indent=2)``, byte for byte.
"""

from __future__ import annotations

from itertools import accumulate, chain, groupby, repeat
from operator import getitem
from typing import Iterator, NamedTuple, TextIO

from .census import canonical_slices, enumerate_words
from .contfrac import (
    Word,
    check_even_word,
    format_json,
    format_word,
    parse_word,
    rev_neg,
    reverse,
    sign_changes,
)
from .knot import (
    KNOT_NAMES,
    KnotClass,
    canonical_word,
    crossing_number,
    display_name,
    knot_from_word,
)

# The largest --max-c of epi graph, whose cost grows exponentially in c: at 22
# it writes 50 MB of dot in 0.7 s, or 124 MB of json in 0.9 s, at 30 MB peak
# RSS (a fresh process, 2-vCPU host, Python 3.11).
EPI_GRAPH_C_MAX = 22
# Longest word the CLI reads, and the search's one bound.  On a word of L
# entries the search checks at most two patterns of each even length
# n <= (L-1)//3 + 1 in each of two orientations, and reads each at most
# (L-1)//(n-1) blocks deep: at most 4 * sum(1 + (L-1)//(n-1)) steps, 2,372,080
# at 100,000 entries.  The most measured there is 1,184,214, on 4 repeated.
# At that length, with cli.main called in process on a 2-vCPU host, epi
# targets takes 0.07 s on T(100001,2), 0.7 s on 2,4 repeated and 0.8 s on 4
# repeated, of which building the knot is 0.01 s.  From a shell, Linux's
# 131,072-byte limit on one argv string stops a word near 65,000 one-digit
# entries.
WORD_MAX = 100_000


class AuditFailure(AssertionError):
    """An audit term came out negative or the terms missed the slack."""


class _OrsFields(NamedTuple):
    target: Word
    r: int
    eps: tuple[int, ...]
    cvec: tuple[int, ...]


class OrsParams(_OrsFields):
    """Parameters of one interleaving: target expansion, r, signs, connectors.

    The constructor makes tuples of the three sequences and validates them;
    ``_make`` and ``_replace`` would skip both, so nothing calls them.
    """

    __slots__ = ()

    def __new__(cls, target, r, eps, cvec):
        target, eps, cvec = tuple(target), tuple(eps), tuple(cvec)
        check_even_word(target)
        if r < 1:
            raise ValueError(f"r must be >= 1, got {r}")
        if len(eps) != 2 * r + 1:
            raise ValueError(f"need {2 * r + 1} signs, got {len(eps)}")
        if any(e not in (1, -1) for e in eps):
            raise ValueError(f"signs must be +-1, got {eps}")
        if eps[0] != 1:
            raise ValueError("leading sign must be +1")
        if len(cvec) != 2 * r:
            raise ValueError(f"need {2 * r} connectors, got {len(cvec)}")
        for j, cj in enumerate(cvec):
            if cj == 0 and eps[j + 1] != eps[j]:
                raise ValueError(
                    f"connector {j + 1} is zero but adjacent signs differ: {eps}"
                )
        return super().__new__(cls, target, r, eps, cvec)

    def to_json(self) -> dict:
        return {
            "target": format_word(self.target),
            "r": self.r,
            "eps": list(self.eps),
            "cvec": list(self.cvec),
        }


class InequalityAudit(NamedTuple):
    """Decomposition of braid(big) - 3 braid(target) + 4 into >= 0 terms."""

    term_copies: int     # (2r - 2) (braid(target) - 2)
    term_cbudget: int    # sum over c_j != 0 of |c_j| - 1
    term_zero: int       # 2r - #{c_j != 0}
    term_signs: int      # (2r+1) t(target) + 2 #{c_j != 0} - t(big)
    slack: int           # braid(big) - 3 braid(target) + 4

    @property
    def terms(self) -> tuple[int, int, int, int]:
        return (self.term_copies, self.term_cbudget, self.term_zero, self.term_signs)

    def to_json(self) -> dict:
        return self._asdict()


class EpiWitness(NamedTuple):
    big: KnotClass
    small: KnotClass
    params: OrsParams
    audit: InequalityAudit

    def sort_key(self):
        return (
            self.small.canon,
            self.params.r,
            self.params.target,
            self.params.cvec,
            self.params.eps,
        )

    def to_json(self) -> dict:
        return {key: value.to_json() for key, value in self._asdict().items()}


def ors_compose(params: OrsParams) -> Word:
    """Interleave the blocks and connectors; delete-and-merge zero connectors."""
    forward = params.target
    backward = reverse(forward)
    out = [params.eps[0] * e for e in forward]
    for j in range(2 * params.r):
        block = backward if j % 2 == 0 else forward
        sign = params.eps[j + 1]
        cj = params.cvec[j]
        if cj != 0:
            out.append(2 * cj)
            out.extend(sign * e for e in block)
        else:
            # eps_{j+1} = eps_j and block j ends with block j+1's first entry,
            # so the merged entry is twice a nonzero one
            out[-1] += sign * block[0]
            out.extend(sign * e for e in block[1:])
    return tuple(out)


def ors_words(
    target: Word, c_max: int, braid_max: int | None = None
) -> Iterator[tuple[OrsParams, Word]]:
    """(params, word) of every ORS word onto ``target`` within both bounds, depth first.

    The walk appends one connector and block at a time, carrying the
    prefix's sum of magnitudes and sign changes.  A block a adds sum|a|
    and t(a), also after a zero connector, which doubles the boundary
    entry and keeps its sign; a connector x adds |x| and at most two
    sign changes more.  As crossing(a) >= 2 and braid(a) >= 2, neither
    crossing number nor braid index ever decreases: a prefix past a bound
    is pruned with its extensions, and with every larger |x| of its signs.
    """
    target = check_even_word(target)
    size, flips = sum(map(abs, target)), sign_changes(target)
    # block j+1 follows connector j: the reversal for odd j (1-based)
    bodies = {
        (parity, sign): tuple(sign * e for e in block)
        for parity, block in enumerate((reverse(target), target))
        for sign in (1, -1)
    }

    # a knot word's braid index is at most its crossing number
    braid_cap = c_max if braid_max is None else braid_max

    def within(total: int, changes: int) -> bool:
        return total - changes <= c_max and total // 2 - changes + 1 <= braid_cap

    def walk(word, eps, cvec, total, changes):
        if cvec and len(cvec) % 2 == 0:
            yield OrsParams(target, len(cvec) // 2, eps, cvec), word
        edge = word[-1]
        grown, inner = total + size, changes + flips
        for sign in (1, -1):
            body = bodies[len(cvec) % 2, sign]
            if sign == eps[-1] and within(grown, inner):
                merged = word[:-1] + (2 * edge,) + body[1:]
                yield from walk(merged, eps + (sign,), cvec + (0,), grown, inner)
            for direction in (1, -1):
                x = 2 * direction
                crossed = inner + (edge * x < 0) + (x * body[0] < 0)
                while within(grown + abs(x), crossed):
                    yield from walk(
                        word + (x,) + body, eps + (sign,), cvec + (x // 2,),
                        grown + abs(x), crossed,
                    )
                    x += 2 * direction

    yield from walk(target, (1,), (), size, flips)


def audit_params(params: OrsParams, composed: Word | None = None) -> InequalityAudit:
    """Compute and check the four-term decomposition for one composition."""
    if composed is None:
        composed = ors_compose(params)
    target, r, cvec = params.target, params.r, params.cvec
    t_small, t_big = sign_changes(target), sign_changes(composed)
    # braid = sum|e| / 2 - t + 1, from the one count of each word's sign changes
    braid_small = sum(map(abs, target)) // 2 - t_small + 1
    braid_big = sum(map(abs, composed)) // 2 - t_big + 1
    nonzero = len(cvec) - cvec.count(0)
    audit = InequalityAudit(
        term_copies=(2 * r - 2) * (braid_small - 2),
        term_cbudget=sum(map(abs, cvec)) - nonzero,  # sum over c_j != 0 of |c_j| - 1
        term_zero=2 * r - nonzero,
        term_signs=(2 * r + 1) * t_small + 2 * nonzero - t_big,
        slack=braid_big - 3 * braid_small + 4,
    )
    if min(audit.terms) < 0:
        raise AuditFailure(f"negative audit term for {params}: {audit}")
    if sum(audit.terms) != audit.slack:
        raise AuditFailure(f"audit terms do not sum to the slack for {params}: {audit}")
    return audit


def _recompose_and_audit(params: OrsParams, big: KnotClass) -> InequalityAudit:
    """Audit ``params`` once they recompose to ``big``; AuditFailure if not."""
    composed = ors_compose(params)
    if canonical_word(composed) != big.canon:
        raise AuditFailure(f"parameters do not recompose to {format_word(big.canon)}: {params}")
    return audit_params(params, composed)


def audit_inequality(witness: EpiWitness) -> InequalityAudit:
    """Re-derive the audit of a witness from scratch and verify it."""
    return _recompose_and_audit(witness.params, witness.big)


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


def _orientations(word: Word) -> tuple[Word, ...]:
    # A knot's two reduced even words, w and its reverse-negation; as
    # the big word they are parsed separately, and as targets they are
    # not interchangeable in the pattern.
    other = rev_neg(word)
    return (word,) if word == other else (word, other)


def _pattern(word: Word, n: int, last: int) -> Word:
    """The length-n target read off ``word``: its first n-1 entries, then ``last``."""
    return word[: n - 1] + (last,)


def _parse(
    word: Word, n: int, last: int, r_max: int
) -> tuple[int, tuple[int, ...], tuple[int, ...]] | None:
    """``(r, eps, cvec)`` of an interleaving of ``_pattern(word, n, last)`` spelling ``word``.

    One state per block, for at most 2 r_max + 1 blocks; None as soon
    as no (eps, cvec) can fit.  The pattern was read off the word, so
    the first block's first entry matches (eps_1 = +1); every later
    block's first entry is read before the block.  A block's last entry
    e = eps_j * block_j[-1] decides the boundary: 2e is a zero connector
    whose merge kept the sign, while e is followed by a connector 2c_j
    and then by +-e, the next block's first entry, which gives its sign.
    Block 2r may end the word instead, with e.
    """
    # the last entry of each block equals the first entry of the next
    pattern = _pattern(word, n, last)
    shapes = (pattern, reverse(pattern))
    middles: dict[tuple[int, int], Word] = {}
    end = len(word) - 1
    eps, cvec = [1], []
    start = 1
    for j in range(2 * r_max + 1):
        sign, block = eps[j], shapes[j % 2]
        middle = middles.get((j % 2, sign))
        if middle is None:
            middle = middles[j % 2, sign] = tuple(sign * e for e in block[1:-1])
        stop = start + n - 2
        if stop > end or word[start:stop] != middle:
            return None
        edge = sign * block[-1]
        if stop == end and word[stop] == edge:
            # j = 2r > 0: knot words have even length, longer than 3(n-1)
            return j // 2, tuple(eps), tuple(cvec)
        if word[stop] == 2 * edge:
            eps.append(sign)
            cvec.append(0)
            start = stop + 1
        elif word[stop] == edge and stop + 2 <= end and word[stop + 2] in (edge, -edge):
            eps.append(sign if word[stop + 2] == edge else -sign)
            cvec.append(word[stop + 1] // 2)
            start = stop + 3
        else:
            return None
    return None


def _search(
    big: KnotClass,
    small: KnotClass | None = None,
    *,
    stop_at_first: bool = False,
) -> list[EpiWitness]:
    """Witnesses onto every proper target, or onto ``small`` only if given."""
    found: list[EpiWitness] = []
    length = len(big.canon)
    wanted = None if small is None else _orientations(small.canon)
    # 2r+1 blocks of length n take at least (2r+1)(n-1)+1 entries, r >= 1
    top = (length - 1) // 3 + 1
    for word in _orientations(big.canon):
        # crossing number of word[:k] for every k <= top, in one pass
        prefix = list(
            accumulate((abs(b) - (a * b < 0) for a, b in zip((0,) + word, word[:top])), initial=0)
        )
        for n in range(2, top + 1, 2):
            # The first block is the target (eps_1 = +1); a zero first
            # connector merges the block's last entry into twice itself,
            # which keeps its sign and halves its crossings.  A target
            # is spelled out only where it is parsed or compared.
            edge = word[n - 1]
            lasts = [(edge, prefix[n])]
            if edge % 4 == 0:
                lasts.append((edge // 2, prefix[n] - abs(edge) // 2))
            for last, crossing in lasts:
                # Proper targets only: an image has at most a third of
                # the big knot's crossings, which also rules out itself.
                if 3 * crossing > big.crossing or (
                    wanted is not None
                    and (n != len(small.canon) or _pattern(word, n, last) not in wanted)
                ):
                    continue
                # Largest r the crossings and the length allow; no r fits if
                # even that r spells fewer than L entries, at most (2r+1)(n+1) - 1.
                r_max = (min(big.crossing // crossing, (length - 1) // (n - 1)) - 1) // 2
                if (2 * r_max + 1) * (n + 1) <= length:
                    continue
                parsed = _parse(word, n, last, r_max)
                if parsed is None:
                    continue
                pattern = _pattern(word, n, last)
                params = OrsParams(pattern, *parsed)
                audit = _recompose_and_audit(params, big)
                target = knot_from_word(pattern) if small is None else small
                found.append(EpiWitness(big, target, params, audit))
                if stop_at_first:
                    return found
    return sorted(found, key=EpiWitness.sort_key)


def epi_targets(big: KnotClass) -> list[EpiWitness]:
    """Every witness of an epimorphism from ``big`` onto a smaller knot.

    Exhaustive within the crossing-number bounds; sorted for
    reproducible output.  Each pattern is read at most once, so the word's
    length bounds the search; the CLI refuses words above ``WORD_MAX``.
    """
    return _search(big)


def admits_epi(big: KnotClass, small: KnotClass) -> EpiWitness | None:
    """First witness (in epi_targets order) mapping ``big`` onto ``small``.

    Proper targets only: returns None for small == big.
    """
    witnesses = _search(big, small)
    return witnesses[0] if witnesses else None


def is_minimal(big: KnotClass) -> bool:
    """True iff the knot's group surjects onto no smaller knot group."""
    return not _search(big, stop_at_first=True)


# ---------------------------------------------------------------------------
# Digraph export
# ---------------------------------------------------------------------------

# the largest crossing number in KNOT_NAMES; no larger node has a name
_NAMED_C_MAX = max(map(crossing_number, KNOT_NAMES))
# epi_graph yields a slice's nodes in chunks, each closed after the sign vector
# that brings it to this many nodes: about 150 kB of json text.
_NODE_CHUNK = 1024


def epi_graph(max_crossing: int) -> Iterator[tuple[int, int, int, list[str], list[tuple]]]:
    """Epimorphism digraph over all knots with crossing number <= max_crossing.

    Every edge is generated and audited before this returns: the ORS
    words onto each word of each knot with 3c <= max_crossing, grouped
    by the knot they spell.  The nodes then stream in census order, each
    (m, ell) slice in chunks of about _NODE_CHUNK nodes, as (c, m, ell,
    texts, edges): the ``format_word`` texts of the canonical words, joined
    from tables of entry strings without building the words, and the edges
    (big, small, witnesses) out of those nodes, matched by text.  Edges
    come in node order and are ordered as ``epi_targets`` orders them.
    """
    found: dict[Word, list[tuple[KnotClass, OrsParams, InequalityAudit]]] = {}
    for c in range(3, max_crossing // 3 + 1):
        for canon in enumerate_words(c):
            small = knot_from_word(canon)
            for pattern in _orientations(canon):
                for params, word in ors_words(pattern, max_crossing):
                    audit = audit_params(params, word)
                    found.setdefault(canonical_word(word), []).append((small, params, audit))
    edges = {}
    while found:  # each knot's spelled words are dropped once grouped
        canon, spelled = found.popitem()
        big = knot_from_word(canon)
        witnesses = sorted((EpiWitness(big, *w) for w in spelled), key=EpiWitness.sort_key)
        groups = groupby(witnesses, lambda witness: witness.small)
        edges[format_word(canon)] = tuple((big, small, tuple(group)) for small, group in groups)
    # the text of each entry 2 s p, by sign s and halved magnitude p <= max_crossing
    entry = {sign: [str(2 * sign * p) for p in range(max_crossing + 1)] for sign in (1, -1)}

    def nodes():
        for c in range(3, max_crossing + 1):
            for m, ell, kept in canonical_slices(c):
                texts = []
                for signs, chosen in kept:
                    tables = list(map(entry.__getitem__, signs))
                    texts += map(",".join, map(map, repeat(getitem), repeat(tables), chosen))
                    if len(texts) >= _NODE_CHUNK:
                        yield c, m, ell, texts, _leaving(texts, edges)
                        texts = []
                if texts:
                    yield c, m, ell, texts, _leaving(texts, edges)

    return nodes()


def _leaving(texts: list[str], edges: dict[str, tuple]) -> list[tuple]:
    """The edges out of the nodes with these texts, in node order."""
    return list(chain.from_iterable(filter(None, map(edges.get, texts))))


def _names(texts: list[str]) -> list[str]:
    """The display name of the knot of each node text."""
    return [display_name(knot_from_word(parse_word(text))) for text in texts]


def write_dot(max_crossing: int, out: TextIO) -> None:
    """Write ``epi_graph(max_crossing)`` as dot: the nodes a chunk at a time, then the edges."""
    nodes = epi_graph(max_crossing)
    out.write("digraph epimorphisms {\n")
    edges = []
    for c, _, _, texts, node_edges in nodes:
        labels = texts if c > _NAMED_C_MAX else [
            name if name == text else f"{name}\\n{text}" for text, name in zip(texts, _names(texts))
        ]
        out.write("".join(map('  "{}" [label="{}"];\n'.format, texts, labels)))
        edges += node_edges
    for big, small, witnesses in edges:
        first = witnesses[0].params
        label = f"r={first.r} c={list(first.cvec)} x{len(witnesses)}"
        out.write(
            f'  "{format_word(big.canon)}" -> "{format_word(small.canon)}" [label="{label}"];\n'
        )
    out.write("}\n")


def write_json(max_crossing: int, out: TextIO) -> None:
    """Write ``epi_graph(max_crossing)`` as ``json.dumps(..., indent=2)`` would, a chunk at a time.

    A chunk's nodes share crossing number, braid index (c - ell) / 2 + 1
    and genus m, so one template writes them all, and each edge is written
    by ``contfrac.format_json`` at a margin of four spaces; at --max-c 22
    there are 699,732 nodes, and no general writer writes them as fast.
    """
    nodes = epi_graph(max_crossing)
    out.write(f'{{\n  "max_crossing": {max_crossing},\n  "nodes": [')
    edges = []
    comma = "\n"
    for c, m, ell, texts, node_edges in nodes:
        node = (  # nothing in a node needs escaping
            '    {{\n      "word": "{}",\n      "crossing": %d,\n      "braid": %d,\n'
            '      "genus": %d,\n      "name": "{}"\n    }}' % (c, (c - ell) // 2 + 1, m)
        )
        names = texts if c > _NAMED_C_MAX else _names(texts)
        out.write(comma + ",\n".join(map(node.format, texts, names)))
        comma = ",\n"
        edges += node_edges
    out.write('\n  ],\n  "edges": [')
    comma = "\n    "
    for big, small, witnesses in edges:
        record = {
            "source": format_word(big.canon),
            "target": format_word(small.canon),
            "witnesses": [witness.to_json() for witness in witnesses],
        }
        out.write(comma + format_json(record, "    "))
        comma = ",\n    "
    out.write("\n  ]\n}\n" if edges else "]\n}\n")
