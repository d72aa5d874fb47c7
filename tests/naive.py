"""Deliberately naive dict-based reference implementation used as the
independent oracle: no bitmasks, no shared code with the package."""

from __future__ import annotations

import itertools


def adjacency(n, edge_pairs):
    adj = {v: set() for v in range(n)}
    for u, v in edge_pairs:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def fire(adj, config):
    out = {}
    for v in adj:
        delta = 0
        for u in adj[v]:
            if config[u] > config[v]:
                delta += 1
            elif config[u] < config[v]:
                delta -= 1
        out[v] = config[v] + delta
    return out


def perturb(adj, subset):
    config = {v: 0 for v in adj}
    for v in subset:
        for u in adj[v]:
            config[u] += 1
            config[v] -= 1
    return config


def is_zero(config):
    return all(x == 0 for x in config.values())


def zero_invoking_outcome(adj, subset, cap=10_000):
    """('reached_zero', step) | ('period_without_zero', (preperiod, period)) |
    ('cap_exceeded', None), with step 1 = post-perturbation configuration."""
    return walk_outcome(adj, perturb(adj, subset), cap)


def walk_outcome(adj, config, cap=10_000):
    """zero_invoking_outcome for the walk that has config at step 1, step 0
    marking a config that is already zero."""
    if is_zero(config):
        return ("reached_zero", 0)
    prev2, prev1 = None, config
    t = 1
    while t < cap:
        t += 1
        config = fire(adj, prev1)
        if is_zero(config):
            return ("reached_zero", t)
        if config == prev1:
            return ("period_without_zero", (t - 1, 1))
        if prev2 is not None and config == prev2:
            return ("period_without_zero", (t - 2, 2))
        prev2, prev1 = prev1, config
    return ("cap_exceeded", None)


def zero2_invoking(adj, subset):
    return is_zero(fire(adj, perturb(adj, subset)))


def ccd(adj, subset):
    subset = set(subset)
    comp = set(adj) - subset
    for u in adj:
        for v in adj[u]:
            if u >= v:
                continue
            if u in subset and v in subset:
                if len(adj[u] & comp) != len(adj[v] & comp):
                    return False
            if u in comp and v in comp:
                if len(adj[u] & subset) != len(adj[v] & subset):
                    return False
    return True


def dominating(adj, subset):
    subset = set(subset)
    return all(v in subset or adj[v] & subset for v in adj)


def components(adj, subset):
    """Connected pieces of the subgraph induced by subset, as sets ordered by
    least vertex."""
    left = set(subset)
    out = []
    for v in sorted(left):
        if v not in left:
            continue
        piece, stack = set(), [v]
        while stack:
            u = stack.pop()
            if u not in piece:
                piece.add(u)
                stack.extend(w for w in adj[u] if w in left)
        left -= piece
        out.append(piece)
    return out


def canonical_form(n, edge_pairs):
    """The least sorted edge list over all n! relabellings: equal for two
    graphs exactly when they are isomorphic."""
    return min(
        tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edge_pairs))
        for perm in itertools.permutations(range(n))
    )


def vertex_extension_classes(n, connected_only, canon):
    """The isomorphism classes on n vertices, connected ones only if
    connected_only, by unfiltered vertex extension: a new vertex n-1 joined
    to every neighbourhood (nonempty ones if connected_only) of one graph of
    each class of order n-1. canon(n, edge_pairs) is a canonical form; the
    result maps each class's form to the first graph found in it."""
    if n <= 1:
        return {canon(n, ()): ()}
    out = {}
    for edges in vertex_extension_classes(n - 1, connected_only, canon).values():
        for size in range(1 if connected_only else 0, n):
            for nbhd in itertools.combinations(range(n - 1), size):
                grown = edges + tuple((v, n - 1) for v in nbhd)
                out.setdefault(canon(n, grown), grown)
    return out
