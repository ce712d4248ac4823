"""Walk through the 3-CNF reduction: deciding a formula with the assignment solver.

Run: python3 demos/satisfiability_reduction.py
"""

from mcap import (
    dp_solve,
    embed_assignment,
    evaluate_fitness,
    extract_assignment,
    parse_dimacs,
    reduce_3sat,
    satisfies,
)

DIMACS = """\
c four clauses over x1, x2, x3
p cnf 3 4
1 2 3 0
1 -2 3 0
-1 2 3 0
-1 2 -3 0
"""

formula = parse_dimacs(DIMACS)
print(f"Formula: {formula.num_vars} variables, {len(formula.clauses)} clauses")
for j, clause in enumerate(formula.clauses, start=1):
    pretty = " | ".join(f"x{lit}" if lit > 0 else f"~x{-lit}" for lit in clause)
    print(f"  clause {j}: {pretty}")

red = reduce_3sat(formula)
inst = red.instance
print()
print("Reduced assignment instance:")
print(f"  customers : {inst.n}  ({', '.join(red.layout.customers)})")
print(f"  campaigns : {inst.k}  ({', '.join(red.layout.campaigns)})")
print(f"  bounds    : exactly {inst.upper_bounds} recommendations per campaign")
print(f"  threshold : t = {red.threshold}")
print("  (each campaign contributes one decimal digit of t: clause columns")
print("   need 4 fully-responding customers, variable columns exactly 1)")

print()
print("Solving the instance decides the formula:")
result = dp_solve(inst)
print(f"  optimum F = {result.fitness}, t = {red.threshold}")
assignment = extract_assignment(red, result.matrix)
bits = "".join("1" if a else "0" for a in assignment)
print(f"  optimum reaches t, so the formula is satisfiable; extracted x = {bits}")
assert satisfies(formula, assignment)

print()
print("The other direction embeds a satisfying assignment:")
known = (True, True, True)
assert satisfies(formula, known)
matrix = embed_assignment(red, known)
print(f"  x = {''.join('1' if a else '0' for a in known)} satisfies every clause")
print(f"  embedded matrix fitness = {evaluate_fitness(inst, matrix)} (= t exactly)")

print()
print("Who gets recommended in the embedded matrix:")
for i, row in enumerate(matrix.entries):
    chosen = [red.layout.campaigns[j] for j, cell in enumerate(row) if cell]
    if chosen:
        print(f"  {red.layout.customers[i]:>4}: {', '.join(chosen)}")
