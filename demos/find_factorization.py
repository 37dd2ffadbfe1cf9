"""End-to-end witness search on the running 2x2 example.

Takes the correlation P = (1/3)[[1,1],[1,0]], derives Λ candidates from
two named purifications, screens each candidate with the necessary
conditions, and runs the witness search on the survivors.  A
converged run is re-verified cell by cell and then sampled.

Run as: python3 demos/find_factorization.py
"""

import numpy as np

from corrgen import (
    Correlation,
    SchmidtSpectrum,
    SolveSettings,
    alternate,
    check_all,
    lambda_candidates_from_purifications,
    sample_protocol,
    verify,
)

P = Correlation(np.array([[1, 1], [1, 0]]) / 3)
print("target P =")
print(np.array_str(P.matrix, precision=6))

candidates = lambda_candidates_from_purifications(P)
names = ["canonical purification", "CNOT-twisted purification"]

for name, lam in zip(names, candidates):
    print(f"\n--- Λ from the {name}: {np.array_str(lam, precision=4)} ---")
    spectrum = SchmidtSpectrum(lam ** 2)
    report = check_all(spectrum, P)
    print("condition screen:", report.verdict)
    if report.verdict == "RULED_OUT":
        continue

    out = alternate(P, lam, lam.size, SolveSettings(restarts=10))
    print(f"solver: converged={out.converged}  objective={out.objective:.3e}  "
          f"steps={out.iterations}  restart={out.restart_index}")
    if not out.converged:
        print("no factorization found (heuristic search, not a proof)")
        continue

    res = verify(P, out.factorization)  # at the per-cell tolerance the search converged to
    print(f"verify: residual={res.residual:.3e}  feasibility={res.feasibility:.3e}  "
          f"ok={res.ok}")
    for x, mat in enumerate(out.factorization.C):
        print(f"C_{x} =")
        print(np.array_str(mat, precision=6, suppress_small=True))
    for y, mat in enumerate(out.factorization.D):
        print(f"D_{y} =")
        print(np.array_str(mat, precision=6, suppress_small=True))

    n = 100_000
    counts = sample_protocol(out.factorization, n, rng_seed=7)
    print(f"empirical frequencies from {n} protocol runs:")
    print(np.array_str(counts / n, precision=4))
