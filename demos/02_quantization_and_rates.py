"""
Quantization, rates, and distortion
===================================

Quantizes persistence diagrams and raw clouds onto m x m grids, estimates
the empirical symbol densities, and prints the two rate notions plus both
distortion measures as m moves through the sweep range.
"""

import numpy as np

from pdsemcom import (EmpiricalDensity, QuantizerGrid,
                      bottleneck_style_distortion, cell_probabilities,
                      estimate_density, mse_distortion, quantize_diagram,
                      quantizer_entropy, semantic_rate, synth_dataset,
                      upper_triangle_cells, vr_diagram)

clouds = synth_dataset(per_class=30, n_points=48, noise=0.2, seed=7)
diagrams = [vr_diagram(o.points, gamma_max=16.0) for o in clouds]
pd_points = [d.points() for d in diagrams]
raw_points = [o.points for o in clouds]

# densities live on a fixed 28-cell partition per axis; the projection onto
# each m-grid reuses the same histogram, so the density is estimated once
pd_density = estimate_density(pd_points, box_side=16.0)
raw_density = estimate_density(raw_points, box_side=28.0)

print("diagram symbols stay on or above the diagonal, so at most")
print("m(m+1)/2 of the m^2 cells can ever be occupied:")
for m in (10, 16, 27):
    grid = QuantizerGrid(box_side=16.0, n_bins=m)
    occupied = set()
    for d in diagrams:
        occupied.update(quantize_diagram(grid, d).indices.tolist())
    print(f"  m={m}: {len(occupied)} occupied of {upper_triangle_cells(m)} "
          f"allowed (grid has {m * m})")

print()
print("rates and distortions across m (pd vs raw):")
header = f"{'m':>3} {'H_pd':>6} {'r_pd':>8} {'H_raw':>6} {'r_raw':>8} {'mse_pd':>8} {'bn_pd':>7}"
print(header)
for m in (10, 13, 18, 22, 27):
    gpd = QuantizerGrid(box_side=16.0, n_bins=m)
    graw = QuantizerGrid(box_side=28.0, n_bins=m)
    p_pd = cell_probabilities(pd_density, gpd)
    p_raw = cell_probabilities(raw_density, graw)
    n_pd = float(np.mean([len(p) for p in pd_points]))
    n_raw = float(np.mean([len(p) for p in raw_points]))
    r_pd = semantic_rate(quantizer_entropy(p_pd), "pd", m, n_pd)
    r_raw = semantic_rate(quantizer_entropy(p_raw), "raw", m, n_raw)
    mse = mse_distortion(pd_density, gpd)
    bn = bottleneck_style_distortion(pd_points, gpd)
    if m == 10:
        ratio = (r_raw.self_information_bits_per_object
                 / r_pd.self_information_bits_per_object)
    print(f"{m:>3} {r_pd.entropy_bits_per_symbol:>6.3f} "
          f"{r_pd.self_information_bits_per_object:>8.2f} "
          f"{r_raw.entropy_bits_per_symbol:>6.3f} "
          f"{r_raw.self_information_bits_per_object:>8.2f} "
          f"{mse:>8.4f} {bn:>7.4f}")

print()
print(f"at m=10 the diagram costs {ratio:.1f}x fewer bits per object than "
      f"the raw cloud")

# a uniform density is the worst case for the quantizer: entropy hits
# log2(m^2) exactly and the mean squared error is cell_width^2 / 6
m = 16
grid = QuantizerGrid(box_side=16.0, n_bins=m)
flat = EmpiricalDensity(QuantizerGrid(16.0, 28), np.full((28, 28), 1.0 / 784))
p = cell_probabilities(flat, grid)
print()
print(f"uniform density at m={m}: entropy={quantizer_entropy(p):.6f} "
      f"(log2 m^2 = {np.log2(m * m):.6f}), "
      f"mse={mse_distortion(flat, grid):.6f} "
      f"(w^2/6 = {grid.cell_width ** 2 / 6:.6f})")
