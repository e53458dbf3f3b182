"""Experiment runners: spectra, images, localization error rates, rank scans.

These are the command line's subcommands, one runner each:
run_<command>(ecfg, outdir) takes the ExperimentConfig that
config.build_experiment(entries, command) built, computes with the library
modules, writes the command's deterministic CSV into outdir and prints
its summary on stdout. That build has refused every config the command
cannot run, so a runner checks none.

Measurement noise is additive circular complex Gaussian, scaled relative
to the peak data amplitude, and follows one convention. Every estimate
is a = V psi(S) U^dag (p + w), and for i.i.d. circular Gaussian w the N
values U^dag w have the same i.i.d. law as N entries of w, since the
N columns of U are orthonormal. So the noise is drawn where it acts, on
the projected data y0 = U^dag p: trial t draws N unit complex values
Z_t (real and imaginary parts standard normal) from the Philox stream
keyed on the pair (seed, t): key = seed, counter = (0, 0, t, 0). Each
run builds its own Philox generator (the Monte Carlo loop one per call,
a single imaging pass one only when it draws) and resets it to trial
t's key and counter before each draw, so a draw depends on its
(seed, t) alone, whatever other runs share the process. At
relative level sigma the noisy data are y0 + s_meas / sqrt(2) * Z_t,
with s_meas = sigma * max|p|, and the regularizer is the one chosen at
s_meas. `receiver_data` builds this data model, for a single imaging
pass and the Monte Carlo loop alike, so neither runner reads the M
receiver values: a single imaging pass adds trial 0 to y0, and draws
nothing at sigma 0. The Monte Carlo loop runs over blocks of
`_kernels.trial_block(N, nz)` trials, the peak search's own sizing of
its working set, and scores each trial's flat peak index in one node
mask of the grid: the nodes within half a wavelength of the source, by
the same `localization_success` test that `image` prints.
Both runners form a = H y by the one product `estimate.amplitudes`, so
`image`'s estimate has the bits of trial 0's. Trials are
order-independent, and any slice of them, a single trial included,
recomputes the same amplitudes and, at 3 to 6 modes, the same flat
peaks (`_kernels.peak_search`).
"""

import numpy as np

from . import _kernels, io
from .estimate import amplitudes, coupling_spectrum, filtered_basis, sensing_matrix
from .image import grid_factors, locate_peak, localization_success, migrate
from .rank import DENSE_LINE_KINDS, dense_rank_prediction, effective_rank
from .synth import Discrete, source_amplitudes


def mode_table(ms):
    """Rows (index, alpha_j, beta_j) using the model's customary mode
    numbering (1-based for slab models, 0-based for the graded one)."""
    idx = np.arange(ms.n_modes) + ms.paper_index_offset
    return [(int(j), float(al), float(be))
            for j, al, be in zip(idx, ms.alpha, ms.beta)]


def _meta(ecfg, **extra):
    """CSV header fields: the digest of the effective config (every key's
    typed value after command-line overrides, sorted by key, so comments
    and layout do not count) and the seed."""
    text = "\n".join(f"{k} = {v!r}" for k, v in sorted(ecfg.values.items()))
    meta = {"config": io.config_digest(text), "seed": ecfg.seed}
    meta.update(extra)
    return meta


def receiver_data(ms, src, points, sigmas, reg):
    """The data model of a receiver set, as (sm, y0, scales, regs): the
    SensingMatrix sm of the receivers at `points`, the projected
    noiseless data y0 = U^dag p of the source's data p = B a_o, and for
    each relative noise level sigma the scale s_meas / sqrt(2) of the N
    values of unit noise Z_t, s_meas = sigma * max|p|, and the
    regularizer the RegPolicy `reg` picks at s_meas."""
    sm = sensing_matrix(ms, points)
    a_o = source_amplitudes(ms, src)
    p = sm.B @ a_o
    s_meas = np.asarray(sigmas, dtype=float) * np.abs(p).max()
    return (sm, sm.U.conj().T @ p, s_meas / np.sqrt(2.0),
            [reg.regularizer(s, a_o) for s in s_meas])


def _trial_noise(rng, n, seed, t):
    """Unit complex noise Z_t of trial t, shape (n,), n = N values on the
    projected data: real parts drawn before imaginary parts, from the
    Philox stream keyed on (seed, t).

    The values are those of Generator(Philox(key=seed, counter=t << 128)).
    Rather than build that generator per trial (whose constructor also
    seeds a SeedSequence from OS entropy, only to discard it), the draw
    resets the run's Philox generator `rng` to the state a fresh one
    starts in: the 128-bit key as two 64-bit words, the counter words
    (0, 0, t, 0) and an empty output buffer. The reset covers the whole
    state, so no draw depends on an earlier one; each run builds its own
    `rng`, so no draw depends on another run's either."""
    rng.bit_generator.state = {"bit_generator": "Philox",
                               "state": {"counter": (0, 0, t, 0),
                                         "key": (seed & (2**64 - 1), seed >> 64)},
                               "buffer": (0, 0, 0, 0), "buffer_pos": 4,
                               "has_uint32": 0, "uinteger": 0}
    x = rng.standard_normal(2 * n)
    z = np.empty(n, dtype=complex)
    z.real, z.imag = x[:n], x[n:]
    return z


# ---------------------------------------------------------------------------
# localization error rates

def localization_error_rates(ms, src, points, sigmas, trials, seed, grid, reg):
    """Fraction of noise draws whose image peak lands farther than half a
    wavelength from the source (`localization_success` fails), for each
    relative noise level sigma: the peak is searched on the SearchGrid
    `grid`, and the RegPolicy `reg` picks each sigma's regularizer.

    The data model (`receiver_data`: y0 = U^dag p, scales and
    regularizers), the N x N filtered basis H = V psi(S) of each sigma
    and the separable `grid_factors` are built once, and so is the node
    mask `inball`: `localization_success` asked once over the whole grid,
    raveled x-major like the kernel's flat peak indices. Trials then run
    in blocks of `_kernels.trial_block(N, nz)`: each trial's N values of
    unit noise Z_t are drawn once, as its row of the block's array Z, and
    each sigma's peak search in the block is passed c Z, so
    a = H (y0 + c Z_t); a trial misses when its flat peak is outside the
    mask. So a run makes one draw per trial and never touches the M
    receiver values.
    """
    sm, y0, scales, regs = receiver_data(ms, src, points, sigmas, reg)
    Hs = [filtered_basis(sm.V, sm.s, r) for r in regs]
    E, PT = grid_factors(ms, grid)
    inball = localization_success((grid.x[:, None], grid.z[None, :]), src, ms.lambda_o).ravel()
    misses = np.zeros(len(Hs), dtype=np.int64)
    block = _kernels.trial_block(y0.size, grid.z.size)
    rng = np.random.Generator(np.random.Philox(key=0))
    for t0 in range(0, trials, block):
        Z = np.array([_trial_noise(rng, y0.size, seed, t)
                      for t in range(t0, min(t0 + block, trials))])
        for k, (c, H) in enumerate(zip(scales, Hs)):
            flat = _kernels.peak_search(H, y0, c * Z, ms.beta, E, PT)
            misses[k] += np.count_nonzero(~inball[flat])
    return misses / trials


def threshold_sigma(sigmas, rates):
    """First crossing of the error-rate curve through one half, log-
    interpolated in sigma (linearly on an interval starting at sigma 0);
    nan when the curve never crosses."""
    for i in range(len(rates) - 1):
        if rates[i] <= 0.5 < rates[i + 1]:
            f = (0.5 - rates[i]) / (rates[i + 1] - rates[i])
            if sigmas[i] == 0:
                return float(f * sigmas[i + 1])
            return float(sigmas[i] * (sigmas[i + 1] / sigmas[i]) ** f)
    return float("nan")


# ---------------------------------------------------------------------------
# runners

def run_modes(ecfg, outdir):
    """Print the guided-mode table; writes no file."""
    ms = ecfg.ms
    print(f"model {type(ms.spec).__name__} L={ms.spec.L:g} omega={ms.omega:g} "
          f"k_o={ms.k_o:g} lambda_o={ms.lambda_o:.6g}")
    print(f"{ms.n_modes} guided modes")
    print("j,alpha,beta")
    for j, al, be in mode_table(ms):
        print(f"{j},{al:.6g},{be:.6g}")


def run_spectrum(ecfg, outdir):
    """Spectrum of the array operator: singular values of B for receiver
    sets, eigenvalues of A for dense apertures. Writes spectrum.csv and
    prints the spectrum with its effective rank at rank.eps."""
    if isinstance(ecfg.geometry, Discrete):
        spectrum = sensing_matrix(ecfg.ms, ecfg.geometry.points).s
    else:
        spectrum = coupling_spectrum(ecfg.ms, ecfg.geometry)
    rank = effective_rank(spectrum, ecfg.rank_eps)
    io.write_spectrum_csv(f"{outdir}/spectrum.csv", spectrum, _meta(ecfg))
    for i, v in enumerate(spectrum):
        print(f"{i + 1},{v:.6g}")
    print(f"effective rank (eps={ecfg.rank_eps:g}): {rank}")
    print(f"wrote {outdir}/spectrum.csv")


def run_image(ecfg, outdir):
    """Single noisy-data imaging pass at the first configured relative
    noise level (0 when noise.sigmas is empty).

    Projects the receiver data onto U^dag, adds the trial-0 noise draw
    (none at sigma 0), builds the regularized estimate, migrates it, and
    locates the peak. Writes image.csv and prints the peak with its
    half-wavelength success flag."""
    ms, src = ecfg.ms, ecfg.source
    sigma = ecfg.sigmas[0] if ecfg.sigmas else 0.0
    sm, y0, (c,), (reg,) = receiver_data(ms, src, ecfg.geometry.points, [sigma], ecfg.reg)
    # noiseless data skip the draw, and numpy.random stays unloaded
    y = (y0 + c * _trial_noise(np.random.Generator(np.random.Philox(key=0)), y0.size, ecfg.seed, 0)
         if c else y0)
    a = amplitudes(filtered_basis(sm.V, sm.s, reg), y[None])[0]
    im = migrate(a, ms, ecfg.grid)
    x, z, value = locate_peak(im)
    success = localization_success((x, z), src, ms.lambda_o)
    io.write_image_csv(f"{outdir}/image.csv", im, _meta(ecfg, sigma=sigma))
    print(f"sigma={sigma:g} peak x={x:.6g} z={z:.6g} "
          f"value={value:.6g} success={'true' if success else 'false'}")
    print(f"wrote {outdir}/image.csv")


def run_mc_rate(ecfg, outdir):
    """Error-rate curve over the configured sigma list; writes rates.csv
    and prints one line per sigma."""
    rates = localization_error_rates(
        ecfg.ms, ecfg.source, ecfg.geometry.points, ecfg.sigmas,
        ecfg.trials, ecfg.seed, grid=ecfg.grid, reg=ecfg.reg)
    meta = _meta(ecfg, noise="philox key=seed counter=(0,0,trial,0) N values on U^dag p")
    io.write_rates_csv(f"{outdir}/rates.csv", ecfg.sigmas, rates, ecfg.trials, ecfg.seed, meta)
    for s, r in zip(ecfg.sigmas, rates):
        print(f"sigma={s:.6g} error_rate={r:.6g}")
    print(f"wrote {outdir}/rates.csv")


def rank_scan_rows(ms, kind, apertures):
    """(a/L, predicted, measured) rows for the (a/L, Dense) apertures of
    one kind that config.build_experiment builds; measured counts the
    eigenvalues at or above the kind's DENSE_LINE_KINDS level times the
    top one."""
    _, level = DENSE_LINE_KINDS[kind]
    rows = []
    for r, aperture in apertures:
        d = coupling_spectrum(ms, aperture)
        segments = aperture.mu_z if kind == "vertical" else aperture.mu_x
        predicted = dense_rank_prediction(kind, segments, ms.lambda_o, ms.n_modes)
        rows.append((r, predicted, effective_rank(d, level * d[0])))
    return rows


def run_rank_scan(ecfg, outdir):
    """Predicted vs measured effective rank over a/L: writes one CSV per
    kind, in rank.kinds order, then prints every row."""
    scans = []
    for kind, apertures in ecfg.rank_apertures.items():
        rows = rank_scan_rows(ecfg.ms, kind, apertures)
        io.write_rank_scan_csv(f"{outdir}/rank_scan_{kind}.csv", rows, _meta(ecfg))
        scans.append((kind, rows))
    for kind, rows in scans:
        for r, pred, meas in rows:
            print(f"{kind} a/L={r:g} predicted={pred:.6g} measured={meas}")
        print(f"wrote {outdir}/rank_scan_{kind}.csv")
