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
2-strand torus knots; neither searches.  ``epi_graph`` streams the
digraph as values, and ``cli`` writes it as dot or json.

Detection, the search behind ``epi_targets``, ``admits_epi`` and
``is_minimal``, reads the targets off the big word.  In each orientation
w of the big word (w and its reverse-negation) the first block is the
target itself, so a target of length n is w[:n] or, after a zero first
connector, w[:n-1] followed by w[n-1]/2 if even; a pattern a is kept if 3
crossing(a) <= crossing(big), and no census of targets is enumerated.
The crossing number of w[:n] is stepped with n, and the read stops at
the first n where even the smaller pattern has too many crossings;
``admits_epi`` reads only the length of the wanted target.  ``_parse``
reads w once per pattern, block by block, from the first block's
boundary, as the pattern was read off the first block.  Each block
boundary admits one reading only, whatever r is, so one read without
backtracking finds the only parse in O(L).  A composition spells one
word, so no witness is found twice, and it canonicalises to the big
knot exactly when it is the big word in one of its orientations; each
parse is still composed again and compared before it becomes a witness.

Every returned witness carries an audit splitting the braid-index gap
braid(big) - 3 braid(target) + 4 into four non-negative terms; the
audit recomputes everything from the parameters and the composed word,
trusting nothing from the search or the walk.
"""

from __future__ import annotations

from itertools import chain, groupby, repeat
from operator import attrgetter, getitem
from typing import Iterator, NamedTuple

from .census import canonical_slices, enumerate_words
from .contfrac import Word, check_even_word, format_word, negate, rev_neg, reverse, sign_changes
from .knot import KnotClass, canonical_word, knot_from_word

# The largest --max-c of epi graph, whose cost grows exponentially in c: at 22
# it writes 50 MB of dot in 1.12 s, or 124 MB of json in 1.55 s, at 30 MB peak
# RSS (a fresh process, best of 7, 2-vCPU host, Python 3.11.7).
EPI_GRAPH_C_MAX = 22
# Longest word the CLI reads, and the search's one bound.  On a word of L
# entries the search checks at most two patterns of each even length
# n <= (L-1)//3 + 1 in each of two orientations, and reads each at most
# (L-1)//(n-1) blocks deep: at most 4 * sum(1 + (L-1)//(n-1)) steps, 2,372,080
# at 100,000 entries.  The most measured there is 1,184,214, on 4 repeated.
# At that length, with cli.main called in process (best of 5, 2-vCPU host,
# Python 3.11), epi targets takes 0.11 s on T(100001,2), 1.0 s on 2,4 repeated
# and 1.4 s on 4 repeated, of which reading the word and building the knot is
# 0.03 s.  Each entry has at most cli.ENTRY_DIGITS_MAX digits.  From a
# shell, Linux's 131,072-byte limit on one argv string stops a word near
# 65,000 one-digit entries.
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

    The constructor checks the target, then calls ``_of_even_target``,
    which makes tuples of the signs and connectors and checks them and r;
    ``ors_words`` calls ``_of_even_target`` directly, with the target it
    checked once.  ``_make`` and ``_replace`` would skip every check, so
    nothing calls them.
    """

    __slots__ = ()

    def __new__(cls, target, r, eps, cvec):
        return cls._of_even_target(check_even_word(target), r, eps, cvec)

    @classmethod
    def _of_even_target(cls, target: Word, r, eps, cvec) -> OrsParams:
        """The parameters onto ``target``, a word ``check_even_word`` returned."""
        eps, cvec = tuple(eps), tuple(cvec)
        if r < 1:
            raise ValueError(f"r must be >= 1, got {r}")
        if len(eps) != 2 * r + 1:
            raise ValueError(f"need {2 * r + 1} signs, got {len(eps)}")
        if eps.count(1) + eps.count(-1) != len(eps):
            raise ValueError(f"signs must be +-1, got {eps}")
        if eps[0] != 1:
            raise ValueError("leading sign must be +1")
        if len(cvec) != 2 * r:
            raise ValueError(f"need {2 * r} connectors, got {len(cvec)}")
        for j, cj in enumerate(cvec) if 0 in cvec else ():
            if cj == 0 and eps[j + 1] != eps[j]:
                raise ValueError(
                    f"connector {j + 1} is zero but adjacent signs differ: {eps}"
                )
        return tuple.__new__(cls, (target, r, eps, cvec))  # as _OrsFields.__new__ does


class InequalityAudit(NamedTuple):
    """Decomposition of braid(big) - 3 braid(target) + 4 into >= 0 terms."""

    term_copies: int     # (2r - 2) (braid(target) - 2)
    term_cbudget: int    # sum over c_j != 0 of |c_j| - 1
    term_zero: int       # 2r - #{c_j != 0}
    term_signs: int      # (2r+1) t(target) + 2 #{c_j != 0} - t(big)
    slack: int           # braid(big) - 3 braid(target) + 4


class EpiWitness(NamedTuple):
    big: KnotClass
    small: KnotClass
    params: OrsParams
    audit: InequalityAudit

    # the order epi_targets and epi_graph sort witnesses in; not a method: call
    # it as EpiWitness.sort_key(witness)
    sort_key = attrgetter("small.canon", "params.r", "params.target", "params.cvec", "params.eps")


def ors_compose(params: OrsParams) -> Word:
    """Interleave the blocks and connectors; delete-and-merge zero connectors."""
    forward = params.target
    backward = reverse(forward)
    # by sign (+1, then -1), block j + 1: the reversal after connector j for even j
    blocks = ((backward, forward), (negate(backward), negate(forward)))
    out = list(forward)  # eps_1 = +1
    for j, (cj, sign) in enumerate(zip(params.cvec, params.eps[1:])):
        block = blocks[sign < 0][j % 2]
        if cj != 0:
            out.append(2 * cj)
            out += block
        else:
            # eps_{j+1} = eps_j and block j ends with block j+1's first entry,
            # so the merged entry is twice a nonzero one
            out[-1] += block[0]
            out += block[1:]
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

    A prefix of odd many connectors spells no word, and each of its words
    has at least one more connector and block, which add at least
    crossing(a) crossings and braid(a) - 2 to the braid index (a connector
    x adds |x| >= 2 and at most two sign changes).  So such a prefix is
    walked only if it still fits with those added: one that does not has
    no word within the bounds, and the words and their order are unchanged.
    """
    target = check_even_word(target)
    size, flips = sum(map(abs, target)), sign_changes(target)
    # block j+1 follows connector j: the reversal for odd j (1-based)
    bodies = {
        (parity, sign): tuple(sign * e for e in block)
        for parity, block in enumerate((reverse(target), target))
        for sign in (1, -1)
    }

    make = OrsParams._of_even_target  # the target is checked above, once
    # a knot word's braid index is at most its crossing number
    braid_cap = c_max if braid_max is None else braid_max
    # the bounds on a child prefix of odd, then even, many connectors: on
    # crossings, sum - changes, and on the braid index, sum // 2 - changes + 1
    bounds = (
        (c_max - (size - flips), braid_cap - (size // 2 - flips - 1)),
        (c_max, braid_cap),
    )
    # each prefix as (word, eps, cvec, sum of magnitudes, sign changes); its
    # children are pushed last to first, so they are popped in walk order
    stack = [(target, (1,), (), size, flips)]
    push = stack.append
    while stack:
        word, eps, cvec, total, changes = stack.pop()
        odd = len(cvec) % 2
        if cvec and not odd:
            yield make(target, len(cvec) // 2, eps, cvec), word
        edge = word[-1]
        grown, inner = total + size, changes + flips
        # a child adding s to the sum and t sign changes fits both bounds iff
        # s - t <= room and s // 2 - t <= braid_room; a zero connector adds
        # s = t = 0, and a connector x adds s = |x| >= 2 and t <= 2
        crossing_bound, braid_bound = bounds[odd]
        room, braid_room = crossing_bound - grown + inner, braid_bound - grown // 2 - 1 + inner
        if room < 0 or braid_room < -1:
            continue  # no child fits
        for sign in (-1, 1):
            body = bodies[odd, sign]
            signs = eps + (sign,)
            for direction in (-1, 1):
                turns = (edge * direction < 0) + (direction * body[0] < 0)
                # |x| from the largest that fits down to 2
                top = min(room + turns, 2 * (braid_room + turns))
                crossed = inner + turns
                for x in range(direction * (top - top % 2), 0, -2 * direction):
                    push((word + (x,) + body, signs, cvec + (x // 2,), grown + abs(x), crossed))
            # a zero connector merges the boundary entries, keeping their sign
            if sign == eps[-1] and braid_room >= 0:
                push((word[:-1] + (2 * edge,) + body[1:], signs, cvec + (0,), grown, inner))


def audit_params(params: OrsParams, composed: Word) -> InequalityAudit:
    """Compute and check the four-term decomposition for ``composed``, spelled by ``params``."""
    target, r, _, cvec = params
    t_small, t_big = sign_changes(target), sign_changes(composed)
    # braid = sum|e| / 2 - t + 1, from the one count of each word's sign changes
    braid_small = sum(map(abs, target)) // 2 - t_small + 1
    braid_big = sum(map(abs, composed)) // 2 - t_big + 1
    nonzero = len(cvec) - cvec.count(0)
    copies = (2 * r - 2) * (braid_small - 2)
    cbudget = sum(map(abs, cvec)) - nonzero  # sum over c_j != 0 of |c_j| - 1
    zero = 2 * r - nonzero
    signs = (2 * r + 1) * t_small + 2 * nonzero - t_big
    slack = braid_big - 3 * braid_small + 4
    # tuple.__new__ skips the NamedTuple's Python-level __new__, as OrsParams does
    audit = tuple.__new__(InequalityAudit, (copies, cbudget, zero, signs, slack))
    if copies < 0 or cbudget < 0 or zero < 0 or signs < 0:
        raise AuditFailure(f"negative audit term for {params}: {audit}")
    if copies + cbudget + zero + signs != slack:
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


def _parse(
    word: Word, pattern: Word, r_max: int
) -> tuple[int, tuple[int, ...], tuple[int, ...]] | None:
    """``(r, eps, cvec)`` of an interleaving of ``pattern`` spelling ``word``.

    One state per block boundary, for at most 2 r_max + 1 blocks; None as
    soon as no (eps, cvec) can fit.  The caller read the pattern off the
    word: its first n - 1 entries are block 0 (eps_1 = +1), so the read
    starts at block 0's boundary, word[n - 1].  A block's last entry
    e = eps_j * block_j[-1] decides its boundary: 2e is a zero connector
    whose merge kept the sign, while e is followed by a connector 2c_j and
    then by +-e, the next block's first entry, which gives its sign.  The
    next block's other entries are then compared, and block 2r may end
    the word with e.
    """
    n = len(pattern)
    # the last entry of a block and of its reversal; each is the other's first
    lasts = (pattern[-1], pattern[0])
    middles: dict[tuple[int, int], Word] = {}
    end = len(word) - 1
    eps, cvec = [1], []
    stop, edge = n - 1, pattern[-1]
    for j in range(1, 2 * r_max + 1):
        sign = eps[-1]
        if word[stop] == 2 * edge:
            cvec.append(0)
            start = stop + 1
        elif word[stop] == edge and stop + 2 <= end and word[stop + 2] in (edge, -edge):
            if word[stop + 2] != edge:
                sign = -sign
            cvec.append(word[stop + 1] // 2)
            start = stop + 3
        else:
            return None
        eps.append(sign)
        # block j is the pattern for even j and its reversal for odd j
        middle = middles.get((j % 2, sign))
        if middle is None:
            inner = pattern[-2:0:-1] if j % 2 else pattern[1:-1]
            middle = middles[j % 2, sign] = inner if sign == 1 else negate(inner)
        stop = start + n - 2
        if stop > end or word[start:stop] != middle:
            return None
        edge = sign * lasts[j % 2]
        if stop == end and word[stop] == edge:
            # j = 2r > 0: knot words have even length, longer than 3(n-1)
            return j // 2, tuple(eps), tuple(cvec)
    return None


def _r_max(length: int, crossing: int, n: int, big_crossing: int) -> int:
    """Largest r a target of n entries and ``crossing`` crossings may take, or 0.

    r is bounded by the crossings and by the length, so it is 0 for a
    target with over a third of the big knot's crossings, which rules out
    the big knot itself, or with n > (L-1)//3 + 1.  It is 0 as well if
    even that r spells fewer than the word's L entries, at most
    (2r+1)(n+1) - 1.
    """
    r_max = (min(big_crossing // crossing, (length - 1) // (n - 1)) - 1) // 2
    return r_max if (2 * r_max + 1) * (n + 1) > length else 0


def _readings(big: KnotClass, small: KnotClass | None) -> Iterator[tuple[Word, Word, int]]:
    """(orientation, pattern, r_max) of each target worth parsing, in search order.

    The patterns are read off each orientation's first block, w[:n] or
    w[:n-1] followed by w[n-1]/2, and spelled out only once ``_r_max``
    leaves them an r.  Given ``small``, only n = len(small) is read, as
    each of its orientations has that length.  Otherwise the crossing
    number of w[:n] is stepped two entries at a time, and the read stops
    at the first n where even the smaller reading, the halved one if
    any, has over a third of the big knot's crossings: both readings grow
    strictly with n.
    """
    length, bound = len(big.canon), big.crossing
    if small is not None:
        n = len(small.canon)
        r_max = _r_max(length, small.crossing, n, bound)
        if not r_max:
            return
        wanted = _orientations(small.canon)
        for word in _orientations(big.canon):
            edge = word[n - 1]
            for last in (edge, edge // 2) if edge % 4 == 0 else (edge,):
                pattern = word[: n - 1] + (last,)
                if pattern in wanted:
                    yield word, pattern, r_max
        return
    # 2r+1 blocks of length n take at least (2r+1)(n-1)+1 entries, r >= 1
    top = (length - 1) // 3 + 1
    for word in _orientations(big.canon):
        crossing = before = 0
        for n in range(2, top + 1, 2):
            entry, edge = word[n - 2], word[n - 1]
            crossing += abs(entry) + abs(edge) - (before * entry < 0) - (entry * edge < 0)
            before = edge
            readings = [(edge, crossing)]
            if edge % 4 == 0:
                readings.append((edge // 2, crossing - abs(edge) // 2))
            if 3 * readings[-1][1] > bound:
                break  # the smaller reading is the last
            for last, count in readings:
                r_max = _r_max(length, count, n, bound)
                if r_max:
                    yield word, word[: n - 1] + (last,), r_max


def _search(big: KnotClass, small: KnotClass | None = None) -> Iterator[EpiWitness]:
    """Witnesses onto every proper target, or onto ``small`` only if given.

    Each pattern ``_readings`` gives is parsed once; a parse becomes a
    witness only after ``OrsParams`` checks it and it is composed again,
    compared with the big knot and audited.  The witnesses come in search
    order; the callers sort, take the least or stop at one.
    """
    for word, pattern, r_max in _readings(big, small):
        parsed = _parse(word, pattern, r_max)
        if parsed is not None:
            params = OrsParams(pattern, *parsed)
            audit = _recompose_and_audit(params, big)
            yield EpiWitness(big, small or knot_from_word(pattern), params, audit)


def epi_targets(big: KnotClass) -> list[EpiWitness]:
    """Every witness of an epimorphism from ``big`` onto a smaller knot.

    Exhaustive within the crossing-number bounds; sorted for
    reproducible output.  Each pattern is read at most once, so the word's
    length bounds the search; the CLI refuses words above ``WORD_MAX``.
    """
    return sorted(_search(big), key=EpiWitness.sort_key)


def admits_epi(big: KnotClass, small: KnotClass) -> EpiWitness | None:
    """First witness (in epi_targets order) mapping ``big`` onto ``small``.

    Proper targets only: returns None for small == big.
    """
    return min(_search(big, small), key=EpiWitness.sort_key, default=None)


def is_minimal(big: KnotClass) -> bool:
    """True iff the knot's group surjects onto no smaller knot group."""
    return next(_search(big), None) is None


# ---------------------------------------------------------------------------
# Digraph export
# ---------------------------------------------------------------------------

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
        for small_canon in enumerate_words(c):
            small = knot_from_word(small_canon)
            for pattern in _orientations(small_canon):
                for params, word in ors_words(pattern, max_crossing):
                    audit = audit_params(params, word)
                    canon = canonical_word(word)
                    spelled = found.get(canon)  # setdefault would build a list per word
                    if spelled is None:
                        found[canon] = [(small, params, audit)]
                    else:
                        spelled.append((small, params, audit))
    edges = {}
    while found:  # each knot's spelled words are dropped once grouped
        canon, spelled = found.popitem()
        big = knot_from_word(canon)
        witnesses = [tuple.__new__(EpiWitness, (big, *w)) for w in spelled]
        witnesses.sort(key=EpiWitness.sort_key)
        groups = groupby(witnesses, attrgetter("small"))
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

