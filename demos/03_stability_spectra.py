"""Stability spectra by two independent routes, and why only one peak survives.

The linearization around a steady state is a Sturm-Liouville operator plus
a rank-one nonlocal coupling.  The state is even about its peak, so the
operator splits into a cosine block, which carries the coupling, and a
purely local sine block.  The spectrum is computed (a) by dense
diagonalization of the two blocks and (b) by splitting off the local
problem and solving the secular equation
1/M = sum beta_n^2 / (lambda_n - nu) between consecutive coupled local
eigenvalues.  The two routes agree to solver precision, and the direct
eigenvalues interlace the local ones, because the coupling subtracts a
positive rank-one term.

Multimodal states built by compressing a unimodal profile are always
unstable: the profile derivative has >= 3 sign changes, which forces a
positive eigenvalue.
"""

import numpy as np

import mechmorph as mm

grid = mm.make_grid(256)

# constant state just below and above its instability threshold
D = 0.01
kappa_c = 1.0 + 4.0 * np.pi**2 * D
for kappa in (kappa_c - 0.05, kappa_c + 0.05):
    state = mm.constant_state(mm.ModelParams(D=D, kappa=kappa), grid)
    report = mm.nonlocal_spectrum(state)
    print(f"constant state, kappa={kappa:.4f} (threshold {kappa_c:.4f}): "
          f"{report.verdict}, leading nu = {report.nonlocal_eigs[0]:+.4f}")

# a stable pattern: verdict is 'marginal' because translation of the peak
# costs nothing (an exact zero eigenvalue); every other direction decays.
# U_x is odd about the peak with no zero inside the half period, so by
# Sturm's oscillation theorem the translation mode is the sine block's
# leading eigenvector
params = mm.ModelParams(D=0.01, kappa=1.6)
u0 = mm.Field(grid, 1.6 * (1.0 + 0.01 * np.cos(2.0 * np.pi * grid.nodes)))
pattern = mm.relax_to_steady(u0, params, t_end=400.0)
check = mm.spectrum_crosscheck(pattern)  # both routes; check.report is the direct one
report = check.report
print(f"\nunimodal pattern at D=0.01, kappa=1.6: {report.verdict}")
print(f"  translation eigenvalue : {report.translation_nu:+.2e}")
print(f"  leading non-translation: {report.leading_nu:+.4f}")
print(f"  local lambda_0..4      : {np.array2string(report.local.lambdas[:5], precision=4)}")
print(f"  zero counts            : {report.local.zero_counts[:5]}")
print(f"  direct vs secular      : max deviation {check.max_deviation:.2e} "
      f"on {check.n_compared} eigenvalues")
print(f"  direct interlaces local: {check.interlacing_ok}")

# compress the pattern 2-fold: an exact steady state at D/4, but unstable
two = mm.rescale_modal(pattern, 2)
rep2 = mm.nonlocal_spectrum(two)
print(f"\n2-modal state at D={two.params.D:g}: {rep2.verdict}, "
      f"max nu = {rep2.nonlocal_eigs[0]:+.4f}, residual {two.residual_norm:.1e}")
ux = mm.from_spectral(mm.first_derivative(mm.to_spectral(two.field))).values
signs = np.sign(ux[np.abs(ux) > 1e-9 * np.abs(ux).max()])
print(f"  sign changes of U_x: {int(np.sum(signs != np.roll(signs, 1)))} (>= 3 forces instability)")
