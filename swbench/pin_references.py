#!/usr/bin/env python3
"""Recomputes the unweighted totals pinned in swbench/src/references.cpp.

Plain brute force over all structures, sharing no code with the C++
enumerators or with swfomc. Run it with no arguments; it prints one line
per pinned constant. It takes a few minutes, which is why the results are
pinned rather than recomputed on every benchmark run.
"""

import itertools


def closed_walk_fomc(n, length):
    """FOMC of ∃x1..xL R(x1,x2) ∧ .. ∧ R(xL,x1) over one binary R on [n].

    A true loop R(a,a) is a closed walk of every length, so only the
    loop-free structures are enumerated; all others satisfy the query.
    """
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    unsat = 0
    for mask in range(1 << len(pairs)):
        arcs = {pairs[i] for i in range(len(pairs)) if mask >> i & 1}
        succ = {a: {b for (x, b) in arcs if x == a} for a in range(n)}
        found = False
        for start in range(n):
            frontier = {start}
            for _ in range(length):
                frontier = set().union(*(succ[v] for v in frontier)) if frontier else set()
            if start in frontier:
                found = True
                break
        unsat += not found
    return (1 << (n * n)) - unsat


def typed_triangle_fomc(n):
    """FOMC of ∃x∃y∃z R(x,y) ∧ S(y,z) ∧ T(z,x) on [n]."""
    pairs = [(a, b) for a in range(n) for b in range(n)]
    total = 0
    for r in itertools.product((0, 1), repeat=len(pairs)):
        for s in itertools.product((0, 1), repeat=len(pairs)):
            forbidden = set()
            for (x, y), r_on in zip(pairs, r):
                if not r_on:
                    continue
                for (y2, z), s_on in zip(pairs, s):
                    if s_on and y2 == y:
                        forbidden.add((z, x))
            free = len(pairs) - len(forbidden)
            # Every T that hits a forbidden tuple satisfies the query.
            total += (1 << len(pairs)) - (1 << free)
    return total


def main():
    for n in range(1, 6):
        print(f"triangle n={n}: {closed_walk_fomc(n, 3)}", flush=True)
    for n in range(1, 5):
        print(f"four_cycle n={n}: {closed_walk_fomc(n, 4)}", flush=True)
    for n in range(1, 4):
        print(f"typed_triangle n={n}: {typed_triangle_fomc(n)}", flush=True)


if __name__ == "__main__":
    main()
