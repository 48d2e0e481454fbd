"""Strongly connected components, shared by the symbolic pipeline.

A digraph on vertices 0..n-1 is given by its successor lists: succ[v] lists
the heads of the edges leaving v, parallel edges repeated.
"""

from __future__ import annotations


def tarjan(succ) -> list[list[int]]:
    """Strongly connected components (Tarjan 1972), members ascending.

    Components come in reverse topological order: every component precedes
    the components that reach it. Roots are tried in vertex order and
    successors in list order, so the result is a pure function of succ.
    """
    n = len(succ)
    index_of = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    comps: list[list[int]] = []

    for root in range(n):
        if index_of[root] != -1:
            continue
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            if index_of[v] == -1:
                index_of[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            for w in it:
                if index_of[w] == -1:
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index_of[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[v])
                if lowlink[v] == index_of[v]:
                    members = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        members.append(w)
                        if w == v:
                            break
                    members.sort()
                    comps.append(members)
    return comps
