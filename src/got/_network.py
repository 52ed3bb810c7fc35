"""An uncapacitated min-cost-flow network simplex on an arc list.

Primal simplex over spanning trees kept strongly feasible: every tree arc
without flow points toward the root, and the leaving arc is the last
blocking arc of the pivot cycle met from its apex (Cunningham, "A network
simplex method", Math. Programming 11 (1976); Ahuja, Magnanti & Orlin,
Network Flows (1993) §11.5). That rule alone rules out cycling, so no
tolerance enters a pivot: costs are integers, which makes potentials and
reduced costs exact, and the blocking arc's flow drops to exactly 0.0.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverError, _tolerance

# the artificial arcs may end up carrying at most the supplies' imbalance,
# scaled by the largest supply (errors._tolerance)
FEAS_TOL = 1e-9


def network_simplex(
    n_nodes: int,
    tail: np.ndarray,
    head: np.ndarray,
    cost: np.ndarray,
    supply: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Minimise cost . flow over flow >= 0 with net outflow ``supply`` per node.

    ``tail``, ``head`` and non-negative integer ``cost`` hold one entry per
    arc, ``supply`` one float per node, summing to zero within FEAS_TOL
    times max(1, its largest magnitude).
    Returns (flow, potential, pivots): the arc flows; integer node
    potentials with cost + potential[tail] - potential[head] >= 0 on every
    arc, and = 0 on every arc that carries flow; and the pivot count. The
    entering arc has the most negative reduced cost, ties to the lowest
    index, so the same input always takes the same pivots.
    """
    n_arcs = len(tail)
    root = n_nodes
    nodes = np.arange(n_nodes)
    supplies = supply >= 0
    big = (n_nodes + 1) * int(np.max(cost, initial=0)) + 1
    # the start: arc n_arcs + v joins node v and an artificial root, toward
    # the root where v supplies, so its zero-flow arcs point to the root
    tails = np.concatenate([tail, np.where(supplies, nodes, root)]).astype(np.int64)
    heads = np.concatenate([head, np.where(supplies, root, nodes)]).astype(np.int64)
    costs = np.concatenate([cost, np.full(n_nodes, big)]).astype(np.int64)
    flow = [0.0] * n_arcs + np.abs(supply).tolist()
    potential = np.append(np.where(supplies, -big, big), 0).astype(np.int64)
    tail_of = tails.tolist()
    parent = [root] * n_nodes + [-1]
    pred = list(range(n_arcs, n_arcs + n_nodes)) + [-1]  # the arc to the parent
    depth = [1] * n_nodes + [0]
    children = [set() for _ in range(n_nodes)] + [set(range(n_nodes))]
    cap = 1000 + 50 * (n_nodes + n_arcs)
    pivots = 0
    while True:
        reduced = costs + potential[tails] - potential[heads]
        entering = int(reduced.argmin())
        if reduced[entering] >= 0:
            break
        if pivots == cap:
            raise SolverError("network simplex hit its pivot cap")
        k, l = tail_of[entering], int(heads[entering])
        # the cycle runs k -> l along the entering arc, then up the tree from
        # l to the apex and down from it to k; walk both ends up to the apex
        k_side, l_side = [], []
        u, v = k, l
        while u != v:
            if depth[u] >= depth[v]:
                k_side.append(u)
                u = parent[u]
            else:
                l_side.append(v)
                v = parent[v]
        # from the apex: down to k, then from l up; node x stands for the
        # tree arc pred[x] to its parent, which loses flow when it points
        # up on the k side or down on the l side; the last such arc met with
        # the least flow leaves
        path = k_side[::-1] + l_side
        down = len(k_side)
        theta, at = float("inf"), -1
        for i, x in enumerate(path):
            arc = pred[x]
            if (tail_of[arc] == x) == (i < down) and flow[arc] <= theta:
                theta, at = flow[arc], i
        if at < 0:
            raise SolverError("network simplex found a negative-cost cycle")
        for i, x in enumerate(path):
            arc = pred[x]
            flow[arc] += -theta if (tail_of[arc] == x) == (i < down) else theta
        flow[entering] = theta

        # re-hang the cut-off subtree from the entering endpoint inside it:
        # reverse the parent pointers from that endpoint up to the cut vertex
        cut = path[at]
        inside, outside = (k, l) if at < down else (l, k)
        x, new_parent, new_arc = inside, outside, entering
        while True:
            old_parent, old_arc = parent[x], pred[x]
            children[old_parent].discard(x)
            parent[x], pred[x] = new_parent, new_arc
            children[new_parent].add(x)
            if x == cut:
                break
            x, new_parent, new_arc = old_parent, x, old_arc
        # potentials shift by one constant over the subtree, so that the
        # entering arc's reduced cost becomes 0; depths are set afresh
        shift = int(reduced[entering])
        depth[inside] = depth[outside] + 1
        subtree = [inside]
        for x in subtree:
            for y in children[x]:
                depth[y] = depth[x] + 1
                subtree.append(y)
        potential[subtree] += shift if inside == l else -shift
        pivots += 1

    residue = sum(flow[n_arcs:])
    if residue > _tolerance(FEAS_TOL, supply):
        raise SolverError(
            f"network simplex left {residue:.3e} of supply on its artificial arcs"
        )
    return np.array(flow[:n_arcs]), potential[:n_nodes].copy(), pivots
