"""Frozen scalar reference of the blossom matching (pre-fast-path).

This is the pure-Python implementation that shipped before the
scheduler fast path, kept verbatim (public names suffixed ``_scalar``,
matching the PR-1 convention for Monte-Carlo engines).  It exists for
two jobs only:

* golden equivalence tests pin the array-based implementation in
  :mod:`repro.scheduling.matching` to produce the *exact same
  matchings* as this reference;
* ``benchmarks/test_bench_scheduler.py`` measures the fast path's
  speedup against it.

Do not optimise this module; its value is being the unchanged
baseline.  See :mod:`repro.scheduling.matching` for documentation of
the algorithm itself.
"""


from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

Edge = Tuple[int, int, float]


def max_weight_matching_scalar(edges: Sequence[Edge],
                        maxcardinality: bool = False) -> List[int]:
    """Compute a maximum-weight matching on a general graph.

    ``edges`` is a list of ``(i, j, weight)`` with ``i != j``; at most
    one edge per vertex pair.  Returns ``mate`` with ``mate[v]`` the
    partner of ``v`` or ``-1`` if ``v`` is single.  With
    ``maxcardinality=True`` the matching has maximum cardinality first,
    maximum weight among those second.
    """
    if not edges:
        return []

    nedge = len(edges)
    nvertex = 0
    for (i, j, w) in edges:
        if i < 0 or j < 0 or i == j:
            raise ValueError(f"bad edge ({i}, {j})")
        nvertex = max(nvertex, i + 1, j + 1)

    maxweight = max(0, max(w for (_, _, w) in edges))

    # endpoint[p] is the vertex at endpoint p; edge k owns endpoints
    # 2k (its i side) and 2k+1 (its j side).
    endpoint = [edges[p // 2][p % 2] for p in range(2 * nedge)]

    # neighbend[v] lists the *remote* endpoints of edges incident to v.
    neighbend: List[List[int]] = [[] for _ in range(nvertex)]
    for k in range(nedge):
        i, j, _ = edges[k]
        neighbend[i].append(2 * k + 1)
        neighbend[j].append(2 * k)

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

    # Dual variables: u_v for vertices (init max weight), z_b for
    # blossoms (init 0).  Working in doubled units would avoid halves;
    # we follow the convention that vertex duals may become half-integer
    # only transiently, which is exact for integer weights.
    dualvar = nvertex * [maxweight] + nvertex * [0]

    # allowedge[k]: edge k has zero slack and may be crossed.
    allowedge = nedge * [False]

    queue: List[int] = []

    def slack(k: int) -> float:
        i, j, wt = edges[k]
        return dualvar[i] + dualvar[j] - 2 * wt

    def blossom_leaves(b: int):
        if b < nvertex:
            yield b
        else:
            for child in blossomchilds[b]:
                if child < nvertex:
                    yield child
                else:
                    yield from blossom_leaves(child)

    def assign_label(w: int, t: int, p: int) -> None:
        """Give vertex w (and its blossom) label t via endpoint p."""
        b = inblossom[w]
        assert label[w] == 0 and label[b] == 0
        label[w] = label[b] = t
        labelend[w] = labelend[b] = p
        bestedge[w] = bestedge[b] = -1
        if t == 1:
            # S-blossom: scan all its vertices.
            queue.extend(blossom_leaves(b))
        elif t == 2:
            # T-blossom: its base's mate becomes an S-vertex.
            base = blossombase[b]
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
            assert label[b] == 1
            path.append(b)
            label[b] = 5  # breadcrumb: 1 | 4
            assert labelend[b] == mate[blossombase[b]]
            if labelend[b] == -1:
                v = -1  # reached a free root
            else:
                v = endpoint[labelend[b]]
                b = inblossom[v]
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
            assert (label[bw] == 2
                    or (label[bw] == 1
                        and labelend[bw] == mate[blossombase[bw]]))
            assert labelend[bw] >= 0
            w = endpoint[labelend[bw]]
            bw = inblossom[w]
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
        # Merge the children's best-edge caches.
        bestedgeto = (2 * nvertex) * [-1]
        for bv in path:
            if blossombestedges[bv] is None:
                nblists = [[p // 2 for p in neighbend[leaf]]
                           for leaf in blossom_leaves(bv)]
            else:
                nblists = [blossombestedges[bv]]
            for nblist in nblists:
                for edge_k in nblist:
                    i, j, _ = edges[edge_k]
                    if inblossom[j] == b:
                        i, j = j, i
                    bj = inblossom[j]
                    if (bj != b and label[bj] == 1
                            and (bestedgeto[bj] == -1
                                 or slack(edge_k) < slack(bestedgeto[bj]))):
                        bestedgeto[bj] = edge_k
            blossombestedges[bv] = None
            bestedge[bv] = -1
        blossombestedges[b] = [e for e in bestedgeto if e != -1]
        bestedge[b] = -1
        for edge_k in blossombestedges[b]:
            if bestedge[b] == -1 or slack(edge_k) < slack(bestedge[b]):
                bestedge[b] = edge_k

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
        assert blossombase[b] == v

    def augment_matching(k: int) -> None:
        """Flip the matching along the augmenting path through edge k."""
        v, w, _ = edges[k]
        for (s, p) in ((v, 2 * k + 1), (w, 2 * k)):
            while True:
                bs = inblossom[s]
                assert label[bs] == 1
                assert labelend[bs] == mate[blossombase[bs]]
                if bs >= nvertex:
                    augment_blossom(bs, s)
                mate[s] = p
                if labelend[bs] == -1:
                    break  # reached a free root
                t = endpoint[labelend[bs]]
                bt = inblossom[t]
                assert label[bt] == 2
                assert labelend[bt] >= 0
                s = endpoint[labelend[bt]]
                j = endpoint[labelend[bt] ^ 1]
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
            # Grow the forest from S-vertices in the queue.
            while queue and not augmented:
                v = queue.pop()
                assert label[inblossom[v]] == 1
                for p in neighbend[v]:
                    k = p // 2
                    w = endpoint[p]
                    if inblossom[v] == inblossom[w]:
                        continue  # internal edge
                    kslack = None
                    if not allowedge[k]:
                        kslack = slack(k)
                        if kslack <= 0:
                            allowedge[k] = True
                    if allowedge[k]:
                        if label[inblossom[w]] == 0:
                            assign_label(w, 2, p ^ 1)
                        elif label[inblossom[w]] == 1:
                            base = scan_blossom(v, w)
                            if base >= 0:
                                add_blossom(base, k)
                            else:
                                augment_matching(k)
                                augmented = True
                                break
                        elif label[w] == 0:
                            # w sits inside a T-blossom but was not yet
                            # individually reached; give it a handle so
                            # the blossom can expand through it later.
                            assert label[inblossom[w]] == 2
                            label[w] = 2
                            labelend[w] = p ^ 1
                    elif label[inblossom[w]] == 1:
                        b = inblossom[v]
                        if bestedge[b] == -1 or kslack < slack(bestedge[b]):
                            bestedge[b] = k
                    elif label[w] == 0:
                        if bestedge[w] == -1 or kslack < slack(bestedge[w]):
                            bestedge[w] = k
            if augmented:
                break

            # No zero-slack edges to cross: adjust the dual variables.
            deltatype = -1
            delta = deltaedge = deltablossom = None
            if not maxcardinality:
                deltatype = 1
                delta = min(dualvar[:nvertex])
            for v in range(nvertex):
                if label[inblossom[v]] == 0 and bestedge[v] != -1:
                    d = slack(bestedge[v])
                    if deltatype == -1 or d < delta:
                        delta, deltatype, deltaedge = d, 2, bestedge[v]
            for b in range(2 * nvertex):
                if (blossomparent[b] == -1 and label[b] == 1
                        and bestedge[b] != -1):
                    d = slack(bestedge[b]) / 2
                    if deltatype == -1 or d < delta:
                        delta, deltatype, deltaedge = d, 3, bestedge[b]
            for b in range(nvertex, 2 * nvertex):
                if (blossombase[b] >= 0 and blossomparent[b] == -1
                        and label[b] == 2
                        and (deltatype == -1 or dualvar[b] < delta)):
                    delta, deltatype, deltablossom = dualvar[b], 4, b
            if deltatype == -1:
                # No further improvement possible (max-cardinality mode
                # only); make the optimum verifiable anyway.
                assert maxcardinality
                deltatype = 1
                delta = max(0, min(dualvar[:nvertex]))

            for v in range(nvertex):
                v_label = label[inblossom[v]]
                if v_label == 1:
                    dualvar[v] -= delta
                elif v_label == 2:
                    dualvar[v] += delta
            for b in range(nvertex, 2 * nvertex):
                if blossombase[b] >= 0 and blossomparent[b] == -1:
                    if label[b] == 1:
                        dualvar[b] += delta
                    elif label[b] == 2:
                        dualvar[b] -= delta

            if deltatype == 1:
                break  # optimum reached
            if deltatype == 2:
                allowedge[deltaedge] = True
                i, j, _ = edges[deltaedge]
                if label[inblossom[i]] == 0:
                    i, j = j, i
                assert label[inblossom[i]] == 1
                queue.append(i)
            elif deltatype == 3:
                allowedge[deltaedge] = True
                i, j, _ = edges[deltaedge]
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


def min_weight_perfect_matching_scalar(
        costs: Dict[Tuple[int, int], float],
        n_vertices: int) -> Set[Tuple[int, int]]:
    """Minimum-weight perfect matching on a graph with float costs.

    ``costs`` maps unordered pairs ``(i, j)`` with ``i < j`` to a
    non-negative cost; ``n_vertices`` must be even and a perfect
    matching must exist (in the scheduler the graph is complete, so it
    always does).  Returns the matching as a set of ``(i, j)`` pairs
    with ``i < j``.

    Implementation: quantise the costs onto an integer grid, transform
    cost -> (max + 1 - cost) so smaller cost means bigger weight, and
    run :func:`max_weight_matching_scalar` in max-cardinality mode.
    """
    if n_vertices % 2 != 0:
        raise ValueError(f"perfect matching needs an even vertex count, "
                         f"got {n_vertices}")
    if n_vertices == 0:
        return set()
    for (i, j), cost in costs.items():
        if not (0 <= i < j < n_vertices):
            raise ValueError(f"bad pair ({i}, {j}) for {n_vertices} vertices")
        if cost < 0.0:
            raise ValueError(f"costs must be non-negative, got {cost}")

    max_cost = max(costs.values(), default=0.0)
    # Quantisation grid fine enough that rounding never reorders two
    # schedules that differ by more than one part in 1e12.
    grid = max_cost / 1e12 if max_cost > 0.0 else 1.0
    int_costs = {pair: int(round(cost / grid)) for pair, cost in costs.items()}
    top = max(int_costs.values(), default=0) + 1
    edges = [(i, j, top - c) for (i, j), c in int_costs.items()]

    mate = max_weight_matching_scalar(edges, maxcardinality=True)
    matching = {(v, mate[v]) for v in range(len(mate)) if 0 <= v < mate[v]}
    matched_vertices = {v for pair in matching for v in pair}
    if len(matched_vertices) != n_vertices:
        raise ValueError("graph admits no perfect matching")
    return matching

