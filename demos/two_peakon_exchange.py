"""Two interacting peaked waves: the faster one overtakes the slower one.

A walk through the spectral round trip: take two peaks, compute their
eigenvalues and couplings, evolve the couplings linearly in time, and
rebuild the wave profile.  The peaks exchange their heights during the
interaction while the eigenvalues stay put.
"""

import numpy as np

from chflow import (IsospectralCoordinates, PeakonPair, eval_u, flow_map,
                    inverse_transform, spectral_data, trace_formulas)

# a tall fast peak behind a short slow one
pair = PeakonPair(sites=[-4.0, 0.0], weights=[2.0, 0.8], atoms=[0.0, 0.0])

data = spectral_data(pair)
print("eigenvalues:", data.eigenvalues)
print("couplings:  ", data.kappa)

# sanity: the spectral sums reproduce the momentum and the total measure
r1, r2 = trace_formulas(pair, data)
print(f"trace residuals: {r1:.2e} {r2:.2e}")

# the round trip reproduces the input to machine precision
back = inverse_transform(IsospectralCoordinates(data.eigenvalues, data.kappa))
print("round-trip site error:", np.max(np.abs(back.sites - pair.sites)))

# follow the wave through the interaction
grid = np.linspace(-8.0, 14.0, 45)
for t in (0.0, 2.0, 4.0, 6.0):
    snap = flow_map(pair, t)
    u = eval_u(snap, grid)
    print(f"\nt = {t:3.1f}   sites {np.round(snap.sites, 3)}"
          f"   heights {np.round(snap.weights, 3)}")
    peak = grid[np.argmax(u)]
    print(f"          profile maximum near x = {peak:.1f}")

# after the exchange the ordering of the heights has swapped:
# the leading peak now carries the large amplitude
final = flow_map(pair, 6.0)
assert final.weights[0] < final.weights[1]
print("\nheights after overtaking:", np.round(final.weights, 4))
