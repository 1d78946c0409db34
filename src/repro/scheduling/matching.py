"""Edmonds' blossom algorithm for weighted matching, from scratch.

The paper reduces SIC-aware client scheduling to *minimum-weight
perfect matching* (Section 6, Fig. 12) and invokes Edmonds' algorithm.
This module implements the primal-dual blossom method for general
graphs — the O(n * m * log-ish) stage-based formulation due to Galil
("Efficient algorithms for finding maximum matching in graphs", 1986),
structured as:

* ``max_weight_matching`` — maximum-weight matching, optionally
  constrained to maximum cardinality;
* ``min_weight_perfect_matching`` — what the scheduler calls: on a
  complete even-order graph, negate-and-shift the costs and ask for the
  maximum-cardinality maximum-weight matching.

The implementation keeps the classic data layout: vertices are
``0..n-1``, non-trivial blossoms take identifiers ``n..2n-1``, and each
edge contributes two *endpoints* ``2k`` and ``2k+1`` so that "the other
end of edge k as seen from vertex v" is a single integer.  Dual
variables live on vertices (``u_v``) and blossoms (``z_b``); a matching
is optimal when every edge has non-negative slack
``u_i + u_j + (blossom terms) - 2*w_ij`` and every matched edge has
zero slack.

Fast path (this is the throughput-critical kernel of the scheduler),
all of it over plain Python lists:

* dual variables are kept in **doubled units** (``2*u_v``), which makes
  every quantity in the algorithm — slacks, the four dual-adjustment
  deltas, blossom duals — an exact integer whenever the edge weights
  are integral (the true duals are multiples of 1/2, and the doubled
  S-to-S slack that delta type 3 halves is provably even).  Integral
  weights (ints, NumPy integers, integer-valued floats) become Python
  ints, exact at any magnitude.  Any other weight runs in floats, where
  scaling by two is exact in IEEE arithmetic, so the doubled run makes
  *bit-identical decisions* to the historical un-doubled one;
* slack look-ups are inlined list reads
  (``dualvar[i] + dualvar[j] - weight4[k]``) instead of the historical
  per-edge ``slack()`` function calls.  An S-vertex scan reads the least
  slack of its blossom's best edge once and then tracks it, since the
  duals do not move during a scan, and merging best edges into a new
  blossom evaluates a slack only for an edge that reaches another
  S-blossom;
* the dual adjustment makes one pass over the vertices (delta 2, and
  delta 3 for bare S-vertices) and, once a blossom exists, one over the
  top-level blossoms (the rest of delta 3, and delta 4), then applies
  delta in one pass each.  Each delta class keeps its first minimum in
  ascending index order and the classes are compared in type order
  with strict ``<``, which are the tie-breaks of the historical scans
  over ``range(2 * nvertex)``;
* the dense internal ``assert``s are gated behind ``debug=True``.

The pre-fast-path implementation is frozen verbatim in
:mod:`repro.scheduling.matching_scalar`; golden tests pin this module
to return the *exact same matchings* (same ``mate`` arrays, not merely
equal weight), and the speedup is tracked by
``benchmarks/test_bench_scheduler.py``.

Weights must be integers for exactness.  ``min_weight_perfect_matching``
therefore quantises float costs onto a fine integer grid before
solving; with a grid of ``max_cost / 1e12`` the rounding is far below
any physically meaningful airtime difference.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

Edge = Tuple[int, int, float]


def _enumerate_perfect_matchings(
        vertices: Tuple[int, ...]) -> List[Tuple[Tuple[int, int], ...]]:
    """All perfect matchings of a complete graph on ``vertices``."""
    if not vertices:
        return [()]
    first, rest = vertices[0], vertices[1:]
    matchings: List[Tuple[Tuple[int, int], ...]] = []
    for k, partner in enumerate(rest):
        remaining = rest[:k] + rest[k + 1:]
        for sub in _enumerate_perfect_matchings(remaining):
            matchings.append(((first, partner),) + sub)
    return matchings


#: Complete graphs this small are solved by enumeration (1, 3 and 15
#: candidate matchings) instead of the blossom machinery — the trace
#: scheduler's snapshots are overwhelmingly 2-6 vertices.
_SMALL_PERFECT_MATCHINGS = {
    n: _enumerate_perfect_matchings(tuple(range(n))) for n in (2, 4, 6)
}


def max_weight_matching(edges: Sequence[Edge],
                        maxcardinality: bool = False,
                        debug: bool = False) -> List[int]:
    """Compute a maximum-weight matching on a general graph.

    ``edges`` is a list of ``(i, j, weight)`` with ``i != j``; at most
    one edge per vertex pair.  Returns ``mate`` with ``mate[v]`` the
    partner of ``v`` or ``-1`` if ``v`` is single.  With
    ``maxcardinality=True`` the matching has maximum cardinality first,
    maximum weight among those second.  ``debug=True`` re-enables the
    dense internal invariant assertions (slow; for tests).
    """
    if not edges:
        return []

    nedge = len(edges)
    nvertex = 0
    for (i, j, w) in edges:
        if i < 0 or j < 0 or i == j:
            raise ValueError(f"bad edge ({i}, {j})")
        nvertex = max(nvertex, i + 1, j + 1)

    # Integral weights (ints, NumPy integers, integer-valued floats) run
    # in exact Python ints at any magnitude; anything else in floats.
    integral = all(
        isinstance(w, (int, np.integer))
        or (isinstance(w, float) and w.is_integer())
        for (_, _, w) in edges
    )
    weights: List[float] = [int(w) if integral else float(w)
                            for (_, _, w) in edges]
    maxweight = max(0, max(weights))

    # In doubled dual units the slack of edge k is
    # dualvar[i] + dualvar[j] - weight4[k].
    weight4 = [4 * w for w in weights]
    # Endpoint columns as plain lists: list indexing beats
    # tuple-of-tuple indexing in the hot loops.
    ei_l = [e[0] for e in edges]
    ej_l = [e[1] for e in edges]

    # endpoint[p] is the vertex at endpoint p; edge k owns endpoints
    # 2k (its i side) and 2k+1 (its j side).
    endpoint = [edges[p // 2][p % 2] for p in range(2 * nedge)]

    # nbr_pkw[v] lists one (remote endpoint, edge, remote vertex) triple
    # per edge incident to v: the S-vertex scan unpacks a precomputed
    # tuple per neighbour instead of re-deriving the edge id and remote
    # vertex on every visit.
    nbr_pkw: List[List[Tuple[int, int, int]]] = [[] for _ in range(nvertex)]
    for k in range(nedge):
        i = ei_l[k]
        j = ej_l[k]
        nbr_pkw[i].append((2 * k + 1, k, j))
        nbr_pkw[j].append((2 * k, k, i))

    # mate[v] is the remote endpoint of v's matched edge, or -1.
    mate = nvertex * [-1]

    # label[b]: 0 = free, 1 = S (even), 2 = T (odd); +4 marks a
    # breadcrumb during scan_blossom.  Indexed by top-level blossom for
    # blossoms, and additionally per-vertex for T-side bookkeeping.
    label = (2 * nvertex) * [0]

    # labelend[b]: the endpoint through which b acquired its label.
    labelend = (2 * nvertex) * [-1]

    # inblossom[v]: the top-level blossom containing vertex v.
    inblossom = list(range(nvertex))

    # Blossom structure: parent, ordered children, base vertex, and the
    # connecting endpoints between consecutive children.
    blossomparent = (2 * nvertex) * [-1]
    blossomchilds: List[Optional[List[int]]] = (2 * nvertex) * [None]
    blossombase = list(range(nvertex)) + nvertex * [-1]
    blossomendps: List[Optional[List[int]]] = (2 * nvertex) * [None]

    # bestedge[b]: least-slack edge from b to a different S-blossom.
    bestedge = (2 * nvertex) * [-1]
    blossombestedges: List[Optional[List[int]]] = (2 * nvertex) * [None]

    unusedblossoms = list(range(nvertex, 2 * nvertex))

    # Dual variables in doubled units: 2*u_v for vertices (init twice
    # the max weight), 2*z_b for blossoms (init 0).
    dualvar = nvertex * [2 * maxweight] + nvertex * [0]

    # allowedge[k]: edge k has zero slack and may be crossed.
    allowedge = nedge * [False]

    queue: List[int] = []

    def blossom_leaves(b: int) -> List[int]:
        # Iterative depth-first walk, preserving the child order of the
        # recursive formulation (reversed extends make the stack pop
        # children left to right).  Returns a list — the callers all
        # consume every leaf, and lists beat generator resumptions.
        out = []
        stack = [b]
        while stack:
            t = stack.pop()
            if t < nvertex:
                out.append(t)
            else:
                stack.extend(blossomchilds[t][::-1])
        return out

    def assign_label(w: int, t: int, p: int) -> None:
        """Give vertex w (and its blossom) label t via endpoint p."""
        b = inblossom[w]
        if debug:
            assert label[w] == 0 and label[b] == 0
        label[w] = label[b] = t
        labelend[w] = labelend[b] = p
        bestedge[w] = bestedge[b] = -1
        if t == 1:
            # S-blossom: scan all its vertices (a bare vertex is its
            # own single leaf — skip the walk).
            if b < nvertex:
                queue.append(b)
            else:
                queue.extend(blossom_leaves(b))
        elif t == 2:
            # T-blossom: its base's mate becomes an S-vertex.
            base = blossombase[b]
            if debug:
                assert mate[base] >= 0
            assign_label(endpoint[mate[base]], 1, mate[base] ^ 1)

    def scan_blossom(v: int, w: int) -> int:
        """Trace back from v and w; return a common ancestor base or -1.

        -1 means the alternating paths from v and w reach different
        free roots, i.e. edge (v, w) closes an augmenting path.
        """
        path = []
        base = -1
        while v != -1 or w != -1:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            if debug:
                assert label[b] == 1
            path.append(b)
            label[b] = 5  # breadcrumb: 1 | 4
            if debug:
                assert labelend[b] == mate[blossombase[b]]
            if labelend[b] == -1:
                v = -1  # reached a free root
            else:
                v = endpoint[labelend[b]]
                b = inblossom[v]
                if debug:
                    assert label[b] == 2
                    assert labelend[b] >= 0
                v = endpoint[labelend[b]]
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base: int, k: int) -> None:
        """Shrink the odd cycle through edge k and vertex ``base``."""
        v, w, _ = edges[k]
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = unusedblossoms.pop()
        blossombase[b] = base
        blossomparent[b] = -1
        blossomparent[bb] = b
        # Walk from v back to the base, collecting the path.
        path: List[int] = []
        endps: List[int] = []
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            endps.append(labelend[bv])
            if debug:
                assert (label[bv] == 2
                        or (label[bv] == 1
                            and labelend[bv] == mate[blossombase[bv]]))
                assert labelend[bv] >= 0
            v = endpoint[labelend[bv]]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        endps.reverse()
        endps.append(2 * k)
        # Walk from w back to the base, extending forwards.
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            endps.append(labelend[bw] ^ 1)
            if debug:
                assert (label[bw] == 2
                        or (label[bw] == 1
                            and labelend[bw] == mate[blossombase[bw]]))
                assert labelend[bw] >= 0
            w = endpoint[labelend[bw]]
            bw = inblossom[w]
        if debug:
            assert label[bb] == 1
        blossomchilds[b] = path
        blossomendps[b] = endps
        label[b] = 1
        labelend[b] = labelend[bb]
        dualvar[b] = 0
        for leaf in blossom_leaves(b):
            if label[inblossom[leaf]] == 2:
                # Former T-vertices become S-vertices; scan them.
                queue.append(leaf)
            inblossom[leaf] = b
        # Merge the children's best-edge caches: each child offers its
        # cached best-edge list, or else every edge out of its leaves.
        # A slack is evaluated only for an edge that reaches another
        # S-blossom; the duals are constant throughout.
        dv = dualvar
        w4 = weight4
        inb = inblossom
        bestedgeto = (2 * nvertex) * [-1]
        bestslackto: List[float] = (2 * nvertex) * [0.0]
        touched: List[int] = []
        for bv in path:
            cached = blossombestedges[bv]
            if cached is None:
                for leaf in blossom_leaves(bv):
                    # The leaf is inside b: only w can be outside it.
                    dl = dv[leaf]
                    for _, k, w in nbr_pkw[leaf]:
                        bj = inb[w]
                        if bj != b and label[bj] == 1:
                            ksl = dl + dv[w] - w4[k]
                            if bestedgeto[bj] == -1:
                                touched.append(bj)
                            elif ksl >= bestslackto[bj]:
                                continue
                            bestedgeto[bj] = k
                            bestslackto[bj] = ksl
            else:
                for k in cached:
                    i = ei_l[k]
                    j = ej_l[k]
                    if inb[j] == b:
                        i, j = j, i
                    bj = inb[j]
                    if bj != b and label[bj] == 1:
                        ksl = dv[i] + dv[j] - w4[k]
                        if bestedgeto[bj] == -1:
                            touched.append(bj)
                        elif ksl >= bestslackto[bj]:
                            continue
                        bestedgeto[bj] = k
                        bestslackto[bj] = ksl
            blossombestedges[bv] = None
            bestedge[bv] = -1
        # Final selection over the blossoms actually reached; sorting
        # the touched list restores the historical ascending-``bj``
        # iteration order (first minimum wins ties) without scanning
        # all 2n slots.
        touched.sort()
        blossombestedges[b] = [bestedgeto[bj] for bj in touched]
        bestedge[b] = (bestedgeto[min(touched, key=bestslackto.__getitem__)]
                       if touched else -1)

    def expand_blossom(b: int, endstage: bool) -> None:
        """Undo blossom b (its dual hit zero, or the stage ended)."""
        for s in blossomchilds[b]:
            blossomparent[s] = -1
            if s < nvertex:
                inblossom[s] = s
            elif endstage and dualvar[s] == 0:
                # Recursively expand sub-blossoms with zero dual.
                expand_blossom(s, endstage)
            else:
                for leaf in blossom_leaves(s):
                    inblossom[leaf] = s
        if (not endstage) and label[b] == 2:
            # The expanding blossom was a T-blossom mid-stage: relabel
            # the even-path children and clear the odd-path ones.
            if debug:
                assert labelend[b] >= 0
            entrychild = inblossom[endpoint[labelend[b] ^ 1]]
            j = blossomchilds[b].index(entrychild)
            if j & 1:
                # Odd index: go forward around the blossom.
                j -= len(blossomchilds[b])
                jstep = 1
                endptrick = 0
            else:
                # Even index: go backward.
                jstep = -1
                endptrick = 1
            p = labelend[b]
            while j != 0:
                # Relabel the T-sub-blossom on the path to the base.
                label[endpoint[p ^ 1]] = 0
                label[endpoint[blossomendps[b][j - endptrick]
                               ^ endptrick ^ 1]] = 0
                assign_label(endpoint[p ^ 1], 2, p)
                allowedge[blossomendps[b][j - endptrick] // 2] = True
                j += jstep
                p = blossomendps[b][j - endptrick] ^ endptrick
                allowedge[p // 2] = True
                j += jstep
            # The base sub-blossom keeps label T without propagating.
            bv = blossomchilds[b][j]
            label[endpoint[p ^ 1]] = label[bv] = 2
            labelend[endpoint[p ^ 1]] = labelend[bv] = p
            bestedge[bv] = -1
            # Children off the path lose their labels (but a vertex
            # individually reached from outside keeps a T handle).
            j += jstep
            while blossomchilds[b][j] != entrychild:
                bv = blossomchilds[b][j]
                if label[bv] == 1:
                    j += jstep
                    continue
                leaf = None
                for leaf in blossom_leaves(bv):
                    if label[leaf] != 0:
                        break
                if leaf is not None and label[leaf] != 0:
                    if debug:
                        assert label[leaf] == 2
                        assert inblossom[leaf] == bv
                    label[leaf] = 0
                    label[endpoint[mate[blossombase[bv]]]] = 0
                    assign_label(leaf, 2, labelend[leaf])
                j += jstep
        # Recycle b.
        label[b] = labelend[b] = -1
        blossomchilds[b] = blossomendps[b] = None
        blossombase[b] = -1
        blossombestedges[b] = None
        bestedge[b] = -1
        unusedblossoms.append(b)

    def augment_blossom(b: int, v: int) -> None:
        """Swap matched/unmatched edges inside b so v becomes its base."""
        t = v
        while blossomparent[t] != b:
            t = blossomparent[t]
        if t >= nvertex:
            augment_blossom(t, v)
        i = j = blossomchilds[b].index(t)
        if i & 1:
            j -= len(blossomchilds[b])
            jstep = 1
            endptrick = 0
        else:
            jstep = -1
            endptrick = 1
        while j != 0:
            j += jstep
            t = blossomchilds[b][j]
            p = blossomendps[b][j - endptrick] ^ endptrick
            if t >= nvertex:
                augment_blossom(t, endpoint[p])
            j += jstep
            t = blossomchilds[b][j]
            if t >= nvertex:
                augment_blossom(t, endpoint[p ^ 1])
            mate[endpoint[p]] = p ^ 1
            mate[endpoint[p ^ 1]] = p
        blossomchilds[b] = blossomchilds[b][i:] + blossomchilds[b][:i]
        blossomendps[b] = blossomendps[b][i:] + blossomendps[b][:i]
        blossombase[b] = blossombase[blossomchilds[b][0]]
        if debug:
            assert blossombase[b] == v

    def augment_matching(k: int) -> None:
        """Flip the matching along the augmenting path through edge k."""
        v, w, _ = edges[k]
        for (s, p) in ((v, 2 * k + 1), (w, 2 * k)):
            while True:
                bs = inblossom[s]
                if debug:
                    assert label[bs] == 1
                    assert labelend[bs] == mate[blossombase[bs]]
                if bs >= nvertex:
                    augment_blossom(bs, s)
                mate[s] = p
                if labelend[bs] == -1:
                    break  # reached a free root
                t = endpoint[labelend[bs]]
                bt = inblossom[t]
                if debug:
                    assert label[bt] == 2
                    assert labelend[bt] >= 0
                s = endpoint[labelend[bt]]
                j = endpoint[labelend[bt] ^ 1]
                if debug:
                    assert blossombase[bt] == t
                if bt >= nvertex:
                    augment_blossom(bt, j)
                mate[j] = labelend[bt]
                p = labelend[bt] ^ 1

    # Main loop: each stage finds one augmenting path (or proves none
    # exists and terminates).
    for _ in range(nvertex):
        label[:] = (2 * nvertex) * [0]
        bestedge[:] = (2 * nvertex) * [-1]
        for b in range(nvertex, 2 * nvertex):
            blossombestedges[b] = None
        allowedge[:] = nedge * [False]
        queue[:] = []

        for v in range(nvertex):
            if mate[v] == -1 and label[inblossom[v]] == 0:
                assign_label(v, 1, -1)

        augmented = False
        while True:
            # Grow the forest from S-vertices in the queue.  Slack reads
            # are inlined list look-ups (this loop runs tens of millions
            # of iterations on large backlogs — every name is local, and
            # the dual adjustment below reuses the same local names).
            dv = dualvar
            w4 = weight4
            inb = inblossom
            lbl = label
            allowed = allowedge
            ei = ei_l
            ej = ej_l
            best_l = bestedge
            nbr_t = nbr_pkw
            while queue and not augmented:
                v = queue.pop()
                if debug:
                    assert lbl[inb[v]] == 1
                dv_v = dv[v]
                inb_v = inb[v]
                # The duals do not move during a scan, so the least
                # slack from v's S-blossom is read once and tracked.
                bk = best_l[inb_v]
                bsl = dv[ei[bk]] + dv[ej[bk]] - w4[bk] if bk != -1 else 0
                for p, k, w in nbr_t[v]:
                    bw = inb[w]
                    if inb_v == bw:
                        continue  # internal edge
                    ok = allowed[k]
                    if not ok:
                        kslack = dv_v + dv[w] - w4[k]
                        if kslack <= 0:
                            allowed[k] = ok = True
                    if ok:
                        lw = lbl[bw]
                        if lw == 0:
                            assign_label(w, 2, p ^ 1)
                        elif lw == 1:
                            base = scan_blossom(v, w)
                            if base >= 0:
                                add_blossom(base, k)
                                # v now lives in the new blossom.
                                inb_v = inb[v]
                                bk = best_l[inb_v]
                                bsl = (dv[ei[bk]] + dv[ej[bk]] - w4[bk]
                                       if bk != -1 else 0)
                            else:
                                augment_matching(k)
                                augmented = True
                                break
                        elif lbl[w] == 0:
                            # w sits inside a T-blossom but was not yet
                            # individually reached; give it a handle so
                            # the blossom can expand through it later.
                            if debug:
                                assert lbl[bw] == 2
                            lbl[w] = 2
                            labelend[w] = p ^ 1
                    elif lbl[bw] == 1:
                        if bk == -1 or kslack < bsl:
                            best_l[inb_v] = bk = k
                            bsl = kslack
                    elif lbl[w] == 0:
                        prev = best_l[w]
                        if (prev == -1
                                or kslack < dv[ei[prev]]
                                + dv[ej[prev]] - w4[prev]):
                            best_l[w] = k
            if augmented:
                break

            # No zero-slack edges to cross: adjust the dual variables.
            # Each delta class keeps its first minimum in ascending
            # index order, and the classes are compared in type order
            # with strict ``<``, so the tie-breaks are those of the
            # historical scans.
            deltatype = -1
            delta: float = 0
            deltaedge = deltablossom = -1
            if not maxcardinality:
                deltatype = 1
                delta = min(dv[:nvertex])

            # Delta 2: least slack from an S-vertex to a free vertex.
            # The same vertex pass collects the delta-3 candidates of
            # the trivial S-blossoms; blossom slots follow below, so the
            # candidates stay in ascending slot order.
            e2 = -1
            d2: float = 0
            cand3: List[int] = []
            bpar = blossomparent
            for v in range(nvertex):
                k = best_l[v]
                if k != -1:
                    lv = lbl[inb[v]]
                    if lv == 0:
                        sl = dv[ei[k]] + dv[ej[k]] - w4[k]
                        if e2 == -1 or sl < d2:
                            d2, e2 = sl, k
                    elif lv == 1 and bpar[v] == -1:
                        cand3.append(k)

            # Delta 4: least dual of a top-level T-blossom.  Until a
            # blossom exists (``unusedblossoms`` still full) there is no
            # blossom slot to scan.
            tops: List[int] = []
            b4 = -1
            d4: float = 0
            if len(unusedblossoms) < nvertex:
                tops = [b for b in range(nvertex, 2 * nvertex)
                        if blossombase[b] >= 0 and bpar[b] == -1]
                for b in tops:
                    lb = lbl[b]
                    if lb == 1:
                        if best_l[b] != -1:
                            cand3.append(best_l[b])
                    elif lb == 2 and (b4 == -1 or dv[b] < d4):
                        d4, b4 = dv[b], b

            # Delta 3: half the least slack between two top-level
            # S-blossoms.
            e3 = -1
            d3: float = 0
            for k in cand3:
                sl = dv[ei[k]] + dv[ej[k]] - w4[k]
                if integral:
                    # In doubled integer units the S-S slack is provably
                    # even, so the halving is exact.
                    if debug:
                        assert sl % 2 == 0
                    sl //= 2
                else:
                    sl /= 2
                if e3 == -1 or sl < d3:
                    d3, e3 = sl, k

            if e2 != -1 and (deltatype == -1 or d2 < delta):
                delta, deltatype, deltaedge = d2, 2, e2
            if e3 != -1 and (deltatype == -1 or d3 < delta):
                delta, deltatype, deltaedge = d3, 3, e3
            if b4 != -1 and (deltatype == -1 or d4 < delta):
                delta, deltatype, deltablossom = d4, 4, b4

            if deltatype == -1:
                # No further improvement possible (max-cardinality mode
                # only); make the optimum verifiable anyway.
                if debug:
                    assert maxcardinality
                deltatype = 1
                delta = max(0, min(dv[:nvertex]))

            # Apply delta: S-side vertices down, T-side up; the reverse
            # for top-level blossom duals.
            for v in range(nvertex):
                lv = lbl[inb[v]]
                if lv == 1:
                    dv[v] -= delta
                elif lv == 2:
                    dv[v] += delta
            for b in tops:
                lb = lbl[b]
                if lb == 1:
                    dv[b] += delta
                elif lb == 2:
                    dv[b] -= delta

            if deltatype == 1:
                break  # optimum reached
            if deltatype == 2:
                allowedge[deltaedge] = True
                i, j, _ = edges[deltaedge]
                if label[inblossom[i]] == 0:
                    i, j = j, i
                if debug:
                    assert label[inblossom[i]] == 1
                queue.append(i)
            elif deltatype == 3:
                allowedge[deltaedge] = True
                i, j, _ = edges[deltaedge]
                if debug:
                    assert label[inblossom[i]] == 1
                queue.append(i)
            else:
                expand_blossom(deltablossom, False)

        if not augmented:
            break

        # End of a successful stage: expand S-blossoms whose dual
        # reached zero (they are no longer worth keeping shrunk).
        for b in range(nvertex, 2 * nvertex):
            if (blossomparent[b] == -1 and blossombase[b] >= 0
                    and label[b] == 1 and dualvar[b] == 0):
                expand_blossom(b, True)

    # Convert remote endpoints to plain vertex ids.
    for v in range(nvertex):
        if mate[v] >= 0:
            mate[v] = endpoint[mate[v]]
    for v in range(nvertex):
        assert mate[v] == -1 or mate[mate[v]] == v
    return mate


def _quantised_costs(costs: Dict[Tuple[int, int], float],
                     n_vertices: int) -> Dict[Tuple[int, int], int]:
    """Validate pair costs and map them onto an integer grid.

    Every pair must satisfy ``0 <= i < j < n_vertices`` and every cost
    must be finite and non-negative (the errors name the offending
    pair, or the most negative cost).  The grid is ``max_cost / 1e12``,
    fine enough that rounding never reorders two schedules that differ
    by more than one part in 1e12; ``round`` rounds half to even.
    """
    max_cost = 0.0
    for (i, j), cost in costs.items():
        if not 0 <= i < j < n_vertices:
            raise ValueError(f"bad pair ({i}, {j}) for {n_vertices} vertices")
        if not math.isfinite(cost):
            raise ValueError(f"cost of pair ({i}, {j}) is not finite: {cost}")
        if cost < 0.0:
            worst = min(costs.values())
            raise ValueError(f"costs must be non-negative, got {worst}")
        if cost > max_cost:
            max_cost = cost
    grid = max_cost / 1e12 if max_cost > 0.0 else 1.0
    return {pair: int(round(cost / grid)) for pair, cost in costs.items()}


def _small_complete_matching(
        int_costs: Dict[Tuple[int, int], int],
        candidates: List[Tuple[Tuple[int, int], ...]],
) -> Optional[Set[Tuple[int, int]]]:
    """Enumerate the perfect matchings of a tiny complete graph.

    Returns the matching :func:`min_weight_perfect_matching` would
    return, computed without the blossom machinery: pick the candidate
    with the unique smallest total of the quantised costs.  On a tie
    (possible only when two matchings agree to one part in 1e12)
    returns ``None`` so the caller falls through to the blossom path,
    whose tie-break this shortcut must not second-guess.
    """
    best: Optional[Tuple[Tuple[int, int], ...]] = None
    best_total = 0
    tied = False
    for candidate in candidates:
        total = sum(int_costs[pair] for pair in candidate)
        if best is None or total < best_total:
            best, best_total, tied = candidate, total, False
        elif total == best_total:
            tied = True
    if tied or best is None:
        return None
    return set(best)


def min_weight_perfect_matching(
        costs: Dict[Tuple[int, int], float],
        n_vertices: int,
        debug: bool = False) -> Set[Tuple[int, int]]:
    """Minimum-weight perfect matching on a graph with float costs.

    ``costs`` maps unordered pairs ``(i, j)`` with ``i < j`` to a
    finite, non-negative cost (a NaN or infinite cost raises
    ``ValueError`` naming its pair); ``n_vertices`` must be even and a perfect
    matching must exist (in the scheduler the graph is complete, so it
    always does — the error otherwise names the unmatched vertices).
    Returns the matching as a set of ``(i, j)`` pairs with ``i < j``.

    Implementation: quantise the costs onto an integer grid (one
    plain-Python pass), transform cost -> (max + 1 - cost) so smaller
    cost means bigger weight, and run :func:`max_weight_matching` in
    max-cardinality mode.  Complete graphs on 2/4/6 vertices (the bulk
    of the trace scheduler's snapshots) are solved by enumerating their
    1/3/15 perfect matchings over the same integers, falling back to
    the blossom on a quantised tie — the returned matching is identical
    either way.
    """
    if n_vertices % 2 != 0:
        raise ValueError(f"perfect matching needs an even vertex count, "
                         f"got {n_vertices}")
    if n_vertices == 0:
        return set()

    int_costs = _quantised_costs(costs, n_vertices)
    if len(int_costs) == n_vertices * (n_vertices - 1) // 2:
        candidates = _SMALL_PERFECT_MATCHINGS.get(n_vertices)
        if candidates is not None:
            small = _small_complete_matching(int_costs, candidates)
            if small is not None:
                return small

    edges: List[Edge] = []
    if int_costs:
        top = max(int_costs.values()) + 1
        edges = [(int(i), int(j), top - cost)
                 for (i, j), cost in int_costs.items()]

    mate = max_weight_matching(edges, maxcardinality=True, debug=debug)
    matching = {(v, mate[v]) for v in range(len(mate)) if 0 <= v < mate[v]}
    matched_vertices = {v for pair in matching for v in pair}
    if len(matched_vertices) != n_vertices:
        unmatched = sorted(set(range(n_vertices)) - matched_vertices)
        raise ValueError(
            "graph admits no perfect matching: "
            f"vertices {unmatched} left unmatched")
    return matching


def matching_cost(matching: Set[Tuple[int, int]],
                  costs: Dict[Tuple[int, int], float]) -> float:
    """Total cost of a matching under a pair-cost map.

    Accumulates in sorted pair order: summing in the set's hash order
    would make the low bits of the total an artefact of insertion
    history (RPR405).
    """
    total = 0.0
    for (i, j) in sorted(matching):
        key = (i, j) if i < j else (j, i)
        total += costs[key]
    return total
