"""Reference integer search: the depth-first walk of the prover's variable
systems.

This is the `_first_solution` that hopfatlas.prover used before it searched
by suffix reachability, kept unchanged as the slow path of the differential
tests in test_prover.py.  It tries each variable's admissible values in
increasing order and returns the first complete assignment, which is the
lexicographically least one.
"""


def _first_solution(variables, total):
    """Lexicographically least solution of sum(weight*value) = total with
    value in modulus*Z, value >= minimum; None if infeasible."""

    def rec(idx, remaining, acc):
        if idx == len(variables):
            return dict(acc) if remaining == 0 else None
        name, weight, modulus, minimum = variables[idx]
        floor_rest = sum(w * mn for _, w, _, mn in variables[idx + 1:])
        start = minimum if minimum % modulus == 0 else (minimum // modulus + 1) * modulus
        value = start
        while weight * value + floor_rest <= remaining:
            acc.append((name, value))
            sol = rec(idx + 1, remaining - weight * value, acc)
            acc.pop()
            if sol is not None:
                return sol
            value += modulus
        return None

    return rec(0, total, [])
