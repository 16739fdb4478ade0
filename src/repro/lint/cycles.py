"""Strongly connected components (Tarjan) and elementary-cycle
enumeration (Johnson 1975).

The recurrence analyzer (:mod:`repro.lint.recurrence`) needs every
*elementary* cycle — a closed walk visiting no node twice — of the
per-loop static dependence graph: each one is a candidate recurrence
whose latency/distance ratio bounds the initiation interval.  Donald
Johnson's algorithm enumerates them in output-polynomial time
(``O((n + e)(c + 1))`` for ``c`` cycles) via the classic
blocked/unblock machinery, processing one strongly connected component
at a time so every cycle is reported exactly once, rooted at its
smallest node.

Graphs here are loop bodies — tens of nodes — but the enumeration is
still capped (``limit``) because a pathological dependence mesh can
hold exponentially many cycles.  Truncation is *sound* for the
recurrence bounds (missing a cycle can only weaken them), but callers
surface it as a note.

:func:`cyclic_components` is the one SCC routine of the lint package:
Johnson's enumeration runs it per start node, and the loop forest
(:mod:`repro.lint.loops`) flags irreducible regions with it.
"""


def cyclic_components(graph):
    """The strongly connected components of a directed graph that
    contain a cycle: every component of two or more nodes, and a single
    node only when it has a self edge.

    ``graph`` maps every node to a sequence of its successors, each of
    them a node of ``graph``.  Iterative Tarjan; returns a list of
    frozensets.
    """
    index = {}
    low = {}
    on_stack = set()
    stack = []
    components = []
    for root in graph:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = len(index)
                stack.append(v)
                on_stack.add(v)
            succs = graph[v]
            recursed = False
            while pi < len(succs):
                w = succs[pi]
                pi += 1
                if w not in index:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    recursed = True
                    break
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
            if recursed:
                continue
            if low[v] == index[v]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == v:
                        break
                if len(scc) > 1 or v in succs:
                    components.append(frozenset(scc))
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return components


def elementary_cycles(graph, limit=1024):
    """All elementary cycles of a directed graph.

    ``graph`` maps each node to an iterable of successors (nodes must
    be comparable and hashable; edges to nodes outside the dict are
    ignored).  Returns ``(cycles, truncated)``: each cycle is a list of
    nodes starting at its smallest member, in edge order; ``truncated``
    is True when ``limit`` stopped the enumeration early.
    """
    nodes = sorted(graph)
    adjacency = {u: sorted(w for w in set(graph[u]) if w in graph)
                 for u in nodes}
    cycles = []
    truncated = False

    for s in nodes:
        if truncated:
            break
        # Subgraph induced on nodes >= s; only the SCC of s can hold
        # cycles whose smallest node is s.
        sub = {u: [w for w in adjacency[u] if w >= s]
               for u in nodes if u >= s}
        component = next((c for c in cyclic_components(sub) if s in c),
                         None)
        if component is None:
            continue
        comp_adj = {u: [w for w in sub[u] if w in component]
                    for u in component}
        blocked = set()
        blocked_by = {}
        path = []

        def unblock(u):
            queue = [u]
            while queue:
                v = queue.pop()
                if v in blocked:
                    blocked.discard(v)
                    queue.extend(blocked_by.pop(v, ()))

        # Iterative circuit(s): frames are (node, successor iterator,
        # found-flag holder).
        def circuit(root):
            nonlocal truncated
            found_any = False
            frames = [[root, iter(comp_adj[root]), False]]
            path.append(root)
            blocked.add(root)
            while frames:
                frame = frames[-1]
                v, succs, _ = frame
                advanced = False
                for w in succs:
                    if len(cycles) >= limit:
                        truncated = True
                        break
                    if w == root:
                        cycles.append(list(path))
                        frame[2] = True
                    elif w not in blocked:
                        frames.append([w, iter(comp_adj[w]), False])
                        path.append(w)
                        blocked.add(w)
                        advanced = True
                        break
                if advanced:
                    continue
                frames.pop()
                path.pop()
                if frame[2]:
                    unblock(v)
                    found_any = True
                    if frames:
                        frames[-1][2] = True
                else:
                    for w in comp_adj[v]:
                        blocked_by.setdefault(w, set()).add(v)
                if truncated:
                    while frames:
                        frames.pop()
                        path.pop()
            return found_any

        circuit(s)
    return cycles, truncated


__all__ = ["cyclic_components", "elementary_cycles"]
