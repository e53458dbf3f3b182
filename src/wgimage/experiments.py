"""Experiment runners: spectra, images, localization error rates, rank scans.

These are the command line's subcommands, one runner each:
run_<command>(ecfg, outdir) takes a built ExperimentConfig, computes
with the library modules, writes the command's deterministic CSV into
outdir and prints its summary on stdout.

Measurement noise is additive circular complex Gaussian, scaled relative
to the peak data amplitude, and follows one convention. Trial t draws its
unit complex noise Z_t (real and imaginary parts standard normal) from
the Philox stream keyed on the pair (seed, t): key = seed, counter =
(0, 0, t, 0). At relative level sigma the noise on data p is
s_meas / sqrt(2) * Z_t, with s_meas = sigma * max|p| (`noise_scale`).
A single imaging pass uses trial 0. Trials are order-independent, and
any slice of them can be recomputed in isolation. The Monte Carlo loop
runs over blocks of trial_block(M) trials, at most BLOCK_VALUES noise
values each (one trial if M is larger), and draws each Z_t once, for
every sigma.
"""

import functools

import numpy as np

from . import _kernels, io
from .errors import ConfigError
from .estimate import (
    RegPolicy,
    coupling_matrix,
    estimator_matrix,
    sensing_matrix,
    svd_estimate,
)
from .image import default_grid, locate_peak, localization_success, migrate
from .rank import dense_rank_prediction, effective_rank
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


def noise_scale(sigma, p):
    """s_meas = sigma * max|p|, the absolute noise scale of relative level
    sigma (a number or an array of them) on data p."""
    return np.asarray(sigma, dtype=float) * np.abs(p).max()


@functools.cache
def _philox_normal():
    """The one Philox generator behind every draw, built on the first
    (numpy.random is imported lazily, and most runs draw no noise)."""
    return np.random.Generator(np.random.Philox(key=0))


def _trial_noise(m, seed, t):
    """Unit complex noise Z_t of trial t, shape (m,): real parts drawn
    before imaginary parts, from the Philox stream keyed on (seed, t).

    The values are those of Generator(Philox(key=seed, counter=t << 128)).
    Rather than build that generator (whose constructor also seeds a
    SeedSequence from OS entropy, only to discard it), the draw resets one
    shared Philox to the state a fresh one starts in: the 128-bit key as
    two 64-bit words, the counter words (0, 0, t, 0) and an empty output
    buffer. The reset covers the whole state, so no draw depends on an
    earlier one; draws from concurrent threads would share it, though."""
    rng = _philox_normal()
    rng.bit_generator.state = {"bit_generator": "Philox",
                               "state": {"counter": (0, 0, t, 0),
                                         "key": (seed & (2**64 - 1), seed >> 64)},
                               "buffer": (0, 0, 0, 0), "buffer_pos": 4,
                               "has_uint32": 0, "uinteger": 0}
    x = rng.standard_normal(2 * m)
    z = np.empty(m, dtype=complex)
    z.real, z.imag = x[:m], x[m:]
    return z


# ---------------------------------------------------------------------------
# localization error rates

#: Noise values per block of the Monte Carlo loop, which runs
#: trial_block(M) trials per block: it bounds the noise arrays at about
#: BLOCK_VALUES values (128 trials at M = 1000), while few receivers let
#: one block, and one best-first search per sigma, cover many trials.
BLOCK_VALUES = 128_000


def trial_block(m):
    """Trials per Monte Carlo block at m receivers: BLOCK_VALUES // m, at
    least one."""
    return max(1, BLOCK_VALUES // m)


def localization_error_rates(ms, src, points, sigmas, trials, seed,
                             grid=None, reg=RegPolicy()):
    """Fraction of noise draws whose image peak lands farther than half a
    wavelength from the source, for each relative noise level sigma.

    The estimator matrix G = V psi(D) U^dag of each sigma and the
    separable grid factors are built once. Trials then run in blocks of
    trial_block(M): each trial's unit noise Z_t is drawn once, and every
    sigma's peak search in the block reuses it, rescaled. So a run makes
    one draw per trial, and the noise held at once never exceeds
    max(BLOCK_VALUES, M) values per array; at M = 20 up to 6400 trials
    share one block.
    """
    if grid is None:
        grid = default_grid(ms)
    sm = sensing_matrix(ms, points)
    a_o = source_amplitudes(ms, src)
    p = sm.B @ a_o
    xs, zs = grid.x, grid.z
    E = np.exp(1j * np.outer(xs, ms.beta))
    PT = np.ascontiguousarray(ms.profile_matrix(zs).T)
    half2 = (0.5 * ms.lambda_o) ** 2
    s_meas = noise_scale(sigmas, p)
    Gs = [estimator_matrix(sm, reg.regularizer(s, a_o)) for s in s_meas]
    misses = np.zeros(len(Gs), dtype=np.int64)
    block = trial_block(p.size)
    for t0 in range(0, trials, block):
        Z = np.array([_trial_noise(p.size, seed, t)
                      for t in range(t0, min(t0 + block, trials))])
        for k, (s, G) in enumerate(zip(s_meas, Gs)):
            peaks = _kernels.peak_search(G, p, s / np.sqrt(2.0) * Z, ms.beta, E, PT)
            d2 = (xs[peaks[:, 0]] - src.x_o) ** 2 + (zs[peaks[:, 1]] - src.z_o) ** 2
            misses[k] += np.count_nonzero(d2 > half2)
    return misses / trials


def threshold_sigma(sigmas, rates, level=0.5):
    """First crossing of the error-rate curve through `level`, log-
    interpolated in sigma (linearly on an interval starting at sigma 0);
    nan when the curve never crosses."""
    for i in range(len(rates) - 1):
        if rates[i] <= level < rates[i + 1]:
            f = (level - rates[i]) / (rates[i + 1] - rates[i])
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
    if ecfg.geometry is None:
        raise ConfigError("spectrum experiment needs array.* keys")
    if isinstance(ecfg.geometry, Discrete):
        spectrum = sensing_matrix(ecfg.ms, ecfg.geometry.points).s
    else:
        spectrum = coupling_matrix(ecfg.ms, ecfg.geometry).d
    rank = effective_rank(spectrum, ecfg.rank_eps)
    io.write_spectrum_csv(f"{outdir}/spectrum.csv", spectrum, _meta(ecfg))
    for i, v in enumerate(spectrum):
        print(f"{i + 1},{v:.6g}")
    print(f"effective rank (eps={ecfg.rank_eps:g}): {rank}")
    print(f"wrote {outdir}/spectrum.csv")


def _receiver_points(ecfg, command):
    """Receiver points of a config that has a receiver set and a source."""
    if ecfg.geometry is None or ecfg.source is None:
        raise ConfigError(f"{command} experiment needs array.* and source.* keys")
    if not isinstance(ecfg.geometry, Discrete):
        raise ConfigError(f"{command} experiment runs on receiver-set geometries")
    return ecfg.geometry.points


def run_image(ecfg, outdir):
    """Single noisy-data imaging pass at the first configured relative
    noise level (0 when noise.sigmas is empty).

    Records data on the receivers, adds the trial-0 noise draw, builds
    the regularized estimate, migrates it, and locates the peak. Writes
    image.csv and prints the peak with its half-wavelength success flag."""
    points = _receiver_points(ecfg, "image")
    ms, src = ecfg.ms, ecfg.source
    sigma = ecfg.sigmas[0] if ecfg.sigmas else 0.0
    sm = sensing_matrix(ms, points)
    a_o = source_amplitudes(ms, src)
    p = sm.B @ a_o
    s_meas = noise_scale(sigma, p)
    w = s_meas / np.sqrt(2.0) * _trial_noise(p.size, ecfg.seed, 0)
    a = svd_estimate(p + w, sm, ecfg.reg.regularizer(s_meas, a_o))
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
    points = _receiver_points(ecfg, "mc-rate")
    if not ecfg.sigmas:
        raise ConfigError("mc-rate experiment needs noise.sigmas")
    rates = localization_error_rates(
        ecfg.ms, ecfg.source, points, ecfg.sigmas,
        ecfg.trials, ecfg.seed, grid=ecfg.grid, reg=ecfg.reg)
    meta = _meta(ecfg, noise="philox key=seed counter=(0,0,trial,0)")
    io.write_rates_csv(f"{outdir}/rates.csv", ecfg.sigmas, rates, ecfg.trials, ecfg.seed, meta)
    for s, r in zip(ecfg.sigmas, rates):
        print(f"sigma={s:.6g} error_rate={r:.6g}")
    print(f"wrote {outdir}/rates.csv")


#: Rank-scan count level, relative to the top eigenvalue, per kind. Vertical
#: spectra plateau at their top value, so the half-maximum count is the
#: natural measure. Horizontal spectra have no plateau: they decay smoothly
#: to a sharp drop at the predicted rank, so the significant set is counted
#: at 1e-2 of the top eigenvalue.
RANK_LEVEL = {"vertical": 0.5, "horizontal": 1e-2}


def rank_scan_rows(ms, kind, apertures):
    """(a/L, predicted, measured) rows for the (a/L, Dense) apertures of
    one kind that config.build_experiment builds; measured counts the
    eigenvalues at or above RANK_LEVEL[kind] times the top one."""
    rows = []
    for r, aperture in apertures:
        d = coupling_matrix(ms, aperture).d
        segments = aperture.mu_z if kind == "vertical" else aperture.mu_x
        predicted = dense_rank_prediction(kind, segments, ms.lambda_o, ms.n_modes)
        rows.append((r, predicted, effective_rank(d, RANK_LEVEL[kind] * d[0])))
    return rows


def run_rank_scan(ecfg, outdir):
    """Predicted vs measured effective rank over a/L: writes one CSV per
    kind, then prints every row."""
    scans = []
    for kind in ecfg.rank_kinds:
        rows = rank_scan_rows(ecfg.ms, kind, ecfg.rank_apertures[kind])
        io.write_rank_scan_csv(f"{outdir}/rank_scan_{kind}.csv", rows, _meta(ecfg))
        scans.append((kind, rows))
    for kind, rows in scans:
        for r, pred, meas in rows:
            print(f"{kind} a/L={r:g} predicted={pred:.6g} measured={meas}")
        print(f"wrote {outdir}/rank_scan_{kind}.csv")
