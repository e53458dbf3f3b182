"""Experiment runners: spectra, images, localization error rates, rank scans.

These are the work units behind the command line. Each runner takes a
built ExperimentConfig, computes with the library modules, and writes
deterministic CSV. The Monte Carlo loop keeps a fixed convention for
reproducibility: trial t draws its unit complex noise Z_t from a Philox
stream keyed seed XOR t, and its noise at relative level sigma is
s_meas / sqrt(2) * Z_t. Trials are order-independent, and any slice of
them can be recomputed in isolation. The loop runs over blocks of
TRIAL_BLOCK trials and draws each Z_t once, for every sigma.
"""

import numpy as np

from . import _kernels, io
from .errors import ConfigError
from .estimate import (
    HardThreshold,
    Tikhonov,
    coupling_matrix,
    sensing_matrix,
)
from .image import default_grid, locate_peak, localization_success, migrate
from .rank import AbsoluteThreshold, PlateauHalf, dense_rank_prediction, effective_rank, spectrum_report
from .synth import (
    DenseHorizontal,
    DenseVertical,
    Discrete,
    source_amplitudes,
)


def mode_table(ms):
    """Rows (index, alpha_j, beta_j) using the model's customary mode
    numbering (1-based for slab models, 0-based for the graded one)."""
    idx = np.arange(ms.n_modes) + ms.paper_index_offset
    return [(int(j), float(al), float(be))
            for j, al, be in zip(idx, ms.alpha, ms.beta)]


def _meta(ecfg, **extra):
    meta = {"config": io.config_digest(ecfg.cfg.text or repr(sorted(ecfg.cfg.entries.items()))),
            "seed": ecfg.seed}
    meta.update(extra)
    return meta


def _trial_noise(m, seed, t):
    """Unit complex noise Z_t of trial t: real and imaginary parts
    standard normal, from the Philox stream keyed seed XOR t, real parts
    drawn before imaginary parts. The noise at scale s is s / sqrt(2) * Z_t."""
    rng = np.random.Generator(np.random.Philox(key=seed ^ t))
    return rng.standard_normal(m) + 1j * rng.standard_normal(m)


def _filter_for(reg, sigma_meas, a_o, s):
    """Spectral filter values for a RegPolicy at a given noise level."""
    if reg is None or reg.kind == "tikhonov":
        if reg is None or reg.policy == "heuristic":
            eps = sigma_meas * np.sqrt(a_o.size) / np.linalg.norm(a_o)
        else:
            eps = reg.eps
        return Tikhonov(eps).filter(s)
    if reg.kind == "hard":
        if reg.policy == "heuristic":
            eps = sigma_meas * np.sqrt(a_o.size) / np.linalg.norm(a_o)
        else:
            eps = reg.eps
        return HardThreshold(eps).filter(s)
    if reg.kind == "none":
        return 1.0 / s
    raise ConfigError(f"unknown regularizer kind {reg.kind!r}")


# ---------------------------------------------------------------------------
# localization error rates

#: Trials per block of the Monte Carlo loop: it bounds the noise arrays at
#: TRIAL_BLOCK x M values, while each amplitude GEMM still covers many trials.
TRIAL_BLOCK = 128


def localization_error_rates(ms, src, points, sigmas, trials, seed,
                             grid=None, reg=None):
    """Fraction of noise draws whose image peak lands farther than half a
    wavelength from the source, for each relative noise level sigma.

    The estimator matrix G = V psi(D) U^dag of each sigma and the
    separable grid factors are built once. Trials then run in blocks of
    TRIAL_BLOCK: each trial's unit noise Z_t is drawn once, and every
    sigma's peak search in the block reuses it as s_meas / sqrt(2) * Z_t.
    So a run makes one draw per trial, and the noise held at once never
    exceeds TRIAL_BLOCK x M values per array.
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
    s_meas = np.asarray(sigmas, dtype=float) * np.abs(p).max()
    Gs = [(sm.V * _filter_for(reg, s, a_o, sm.s)) @ sm.U.conj().T for s in s_meas]
    misses = np.zeros(len(Gs), dtype=np.int64)
    for t0 in range(0, trials, TRIAL_BLOCK):
        Z = np.array([_trial_noise(p.size, seed, t)
                      for t in range(t0, min(t0 + TRIAL_BLOCK, trials))])
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

def run_spectrum(ecfg, outdir):
    """Spectrum of the array operator: singular values of B for receiver
    sets, eigenvalues of A for dense apertures. Writes spectrum.csv and
    returns the SpectrumReport."""
    if ecfg.geometry is None:
        raise ConfigError("spectrum experiment needs array.* keys")
    if isinstance(ecfg.geometry, Discrete):
        spectrum = sensing_matrix(ecfg.ms, ecfg.geometry.points).s
    else:
        spectrum = coupling_matrix(ecfg.ms, ecfg.geometry).d
    eps = ecfg.cfg.get_float("rank.eps", 1e-7)
    report = spectrum_report(spectrum, AbsoluteThreshold(eps))
    io.write_spectrum_csv(f"{outdir}/spectrum.csv", spectrum, _meta(ecfg))
    return report


def run_image(ecfg, sigma, outdir, png=False):
    """Single noisy-data imaging pass at relative noise level sigma.

    Records data on the receivers, adds the trial-0 noise draw, builds
    the regularized estimate, migrates it, and reports the peak with its
    half-wavelength success flag. Writes image.csv (and image.png on
    request)."""
    if ecfg.geometry is None or ecfg.source is None:
        raise ConfigError("image experiment needs array.* and source.* keys")
    if not isinstance(ecfg.geometry, Discrete):
        raise ConfigError("image experiment runs on receiver-set geometries")
    ms, src = ecfg.ms, ecfg.source
    sm = sensing_matrix(ms, ecfg.geometry.points)
    a_o = source_amplitudes(ms, src)
    p = sm.B @ a_o
    s_meas = sigma * np.abs(p).max()
    w = s_meas / np.sqrt(2.0) * _trial_noise(p.size, ecfg.seed, 0)
    filt = _filter_for(ecfg.reg, s_meas, a_o, sm.s)
    a = (sm.V * filt) @ (sm.U.conj().T @ (p + w))
    im = migrate(a, ms, ecfg.grid)
    peak = locate_peak(im)
    success = localization_success(peak, src, ms.lambda_o)
    io.write_image_csv(f"{outdir}/image.csv", im, _meta(ecfg, sigma=sigma))
    if png:
        io.save_heatmap_png(f"{outdir}/image.png", im)
    return im, peak, success


def run_mc_rate(ecfg, outdir):
    """Error-rate curve over the configured sigma list; writes rates.csv."""
    if ecfg.geometry is None or ecfg.source is None:
        raise ConfigError("mc-rate experiment needs array.* and source.* keys")
    if not isinstance(ecfg.geometry, Discrete):
        raise ConfigError("mc-rate experiment runs on receiver-set geometries")
    if not ecfg.sigmas:
        raise ConfigError("mc-rate experiment needs noise.sigmas")
    rates = localization_error_rates(
        ecfg.ms, ecfg.source, ecfg.geometry.points, ecfg.sigmas,
        ecfg.trials, ecfg.seed, grid=ecfg.grid, reg=ecfg.reg)
    io.write_rates_csv(f"{outdir}/rates.csv", ecfg.sigmas, rates,
                       ecfg.trials, ecfg.seed, _meta(ecfg))
    return np.asarray(ecfg.sigmas, dtype=float), rates


def rank_scan_rows(ms, kind, ratios, z_a):
    """(a/L, predicted, measured) rows for dense apertures of total
    length 2a = 2 (a/L) L.

    Vertical spectra plateau at their top value, so the half-maximum
    count is the natural measure. Horizontal spectra have no plateau:
    they decay smoothly to a sharp drop at the predicted rank, so the
    significant set is counted at 1e-2 of the top eigenvalue.
    """
    L = ms.spec.L
    rows = []
    for r in ratios:
        a = r * L
        if kind == "vertical":
            geom = DenseVertical(z_a=a, a=a)
            cm = coupling_matrix(ms, geom)
            measured = effective_rank(cm.d, PlateauHalf())
        elif kind == "horizontal":
            geom = DenseHorizontal(z_a=z_a, a=a)
            cm = coupling_matrix(ms, geom)
            measured = effective_rank(cm.d, AbsoluteThreshold(1e-2 * cm.d[0]))
        else:
            raise ConfigError(f"rank kind must be vertical or horizontal, got {kind!r}")
        predicted = dense_rank_prediction(kind, [(a, a)], ms.lambda_o, ms.n_modes)
        rows.append((r, predicted, measured))
    return rows


def run_rank_scan(ecfg, outdir):
    """Predicted vs measured effective rank over a/L, one CSV per kind."""
    cfg = ecfg.cfg
    kinds = [k.strip() for k in
             cfg.get_str("rank.kinds", "vertical,horizontal").split(",") if k.strip()]
    z_a = cfg.get_float("rank.z_a", 0.22 * ecfg.ms.spec.L)
    out = {}
    for kind in kinds:
        default = "0.1,0.2,0.3,0.4" if kind == "vertical" else "0.05,0.1"
        ratios = cfg.get_floats(f"rank.ratios_{kind}",
                                cfg.get("rank.ratios", default))
        rows = rank_scan_rows(ecfg.ms, kind, ratios, z_a)
        io.write_rank_scan_csv(f"{outdir}/rank_scan_{kind}.csv", rows, _meta(ecfg))
        out[kind] = rows
    return out
