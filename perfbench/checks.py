"""Output checks for the wgimage benchmark, computed apart from the program.

Every reference value here comes from the closed-form physics written
out again in this file: the guided-mode dispersion relations, the sin,
cos and normalised Hermite mode profiles, the trace of a dense-aperture
Gram matrix and the noiseless migration image. Nothing is imported from
wgimage, so a fault in the package cannot hide in its own reference.

Each check raises CheckFailed with a message naming what is wrong.
"""

import io
import math

import numpy as np


class CheckFailed(Exception):
    pass


def expect(cond, msg):
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# config text and CSV files

def parse_cfg(text):
    """key=value lines, # comments; the format the configs are written in."""
    out = {}
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


def read_csv(path):
    """(column names, rows of floats), after the # header lines."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    while text.startswith("#"):
        text = text.partition("\n")[2]
    cols, _, body = text.partition("\n")
    expect(cols, f"{path}: no column line")
    cols = cols.split(",")
    try:
        rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    except ValueError as exc:
        raise CheckFailed(f"{path}: {exc}") from None
    expect(rows.size == 0 or rows.shape[1] == len(cols), f"{path}: rows do not match the columns")
    return cols, rows.reshape(-1, len(cols))


# ---------------------------------------------------------------------------
# guided modes

class Guide:
    """Mode basis of one waveguide model, from its dispersion relation.

    homogeneous_dd: alpha_j = j pi / L, j >= 1, profile sqrt(2/L) sin(alpha z)
    homogeneous_dn: alpha_j = (j - 1/2) pi / L, profile sqrt(2/L) cos(alpha z)
    parabolic:      alpha_j = sqrt((2j + 1) k / L), j >= 0, profile
                    g^(1/2) h_j(g z) with g = sqrt(k / L), h_j the
                    normalised Hermite function.
    A mode is guided when alpha_j < k = omega / c_o.
    """

    def __init__(self, model, L, omega, c_o=1.0):
        self.model, self.L = model, float(L)
        self.k = float(omega) / float(c_o)
        self.wavelength = 2.0 * math.pi / self.k
        alpha = []
        j = 0 if model == "parabolic" else 1
        while True:
            if model == "homogeneous_dd":
                a = j * math.pi / self.L
            elif model == "homogeneous_dn":
                a = (j - 0.5) * math.pi / self.L
            elif model == "parabolic":
                a = math.sqrt((2 * j + 1) * self.k / self.L)
            else:
                raise ValueError(f"unknown model {model!r}")
            if a >= self.k:
                break
            alpha.append(a)
            j += 1
        self.alpha = np.array(alpha)
        self.beta = np.sqrt(self.k ** 2 - self.alpha ** 2)
        self.first_index = 0 if model == "parabolic" else 1

    @classmethod
    def from_cfg(cls, cfg):
        return cls(cfg.get("waveguide.model", "homogeneous_dd"),
                   float(cfg["waveguide.L"]), float(cfg["omega"]),
                   float(cfg.get("waveguide.c_o", 1.0)))

    @property
    def n(self):
        return self.alpha.size

    def profiles(self, z):
        """phi_j(z), shape (len(z), n)."""
        z = np.atleast_1d(np.asarray(z, dtype=float))
        if self.model == "homogeneous_dd":
            return math.sqrt(2.0 / self.L) * np.sin(np.outer(z, self.alpha))
        if self.model == "homogeneous_dn":
            return math.sqrt(2.0 / self.L) * np.cos(np.outer(z, self.alpha))
        g = math.sqrt(self.k / self.L)
        s = g * z
        h = np.empty((z.size, self.n))
        h[:, 0] = math.pi ** -0.25 * np.exp(-0.5 * s * s)
        if self.n > 1:
            h[:, 1] = math.sqrt(2.0) * s * h[:, 0]
        for m in range(1, self.n - 1):
            h[:, m + 1] = (math.sqrt(2.0 / (m + 1)) * s * h[:, m]
                           - math.sqrt(m / (m + 1.0)) * h[:, m - 1])
        return math.sqrt(g) * h

    def mean_profile_energy(self, lo, hi):
        """(1/(hi - lo)) int_lo^hi sum_j phi_j(z)^2 dz: the trace of the
        Gram matrix of a uniform measure on [lo, hi] in depth."""
        a = self.alpha
        if self.model in ("homogeneous_dd", "homogeneous_dn"):
            sign = -1.0 if self.model == "homogeneous_dd" else 1.0
            # int (2/L) sin^2(a z) dz = (2/L)(z/2 - sin(2 a z)/(4 a)); cos^2 flips the sign
            F = lambda z: (2.0 / self.L) * (0.5 * z * a.size
                                            + sign * np.sum(np.sin(2 * a * z) / (4 * a)))
            return (F(hi) - F(lo)) / (hi - lo)
        # Hermite profiles: composite 40-point Gauss-Legendre, panels of a
        # quarter of the shortest local wavelength
        panels = max(8, int(math.ceil((hi - lo) * self.k / (0.5 * math.pi))))
        x, w = np.polynomial.legendre.leggauss(40)
        edges = np.linspace(lo, hi, panels + 1)
        half = 0.5 * np.diff(edges)
        z = ((edges[:-1] + half)[:, None] + half[:, None] * x[None, :]).ravel()
        wz = (half[:, None] * w[None, :]).ravel()
        return float(wz @ np.sum(self.profiles(z) ** 2, axis=1)) / (hi - lo)


def grid_axis_count(lo, hi, step):
    """Node count of a search-grid axis: nodes lo + i step cover [lo, hi],
    the last may overshoot hi by up to step/2."""
    return int(math.ceil((hi - lo) / step + 0.5 - 1e-12))


def search_grid(cfg, guide):
    """(x nodes, z nodes) of the configured search grid."""
    step = guide.wavelength / float(cfg.get("grid.step_fraction", 20.0))
    if guide.model == "parabolic":
        z_lo, z_hi = -guide.L, guide.L
    else:
        z_lo, z_hi = 0.0, guide.L
    x_lo = float(cfg.get("grid.x_min", 50.0))
    x_hi = float(cfg.get("grid.x_max", 150.0))
    z_lo = float(cfg.get("grid.z_min", z_lo))
    z_hi = float(cfg.get("grid.z_max", z_hi))
    return (x_lo + step * np.arange(grid_axis_count(x_lo, x_hi, step)),
            z_lo + step * np.arange(grid_axis_count(z_lo, z_hi, step)))


def receiver_points(cfg):
    """Receiver positions (M, 2) of the vertical and planar_lhs kinds.

    The Latin hypercube follows the documented design: per axis, a Philox
    stream keyed array.seed draws a permutation of the M bins and then M
    uniform offsets within them.
    """
    kind = cfg["array.kind"]
    M = int(cfg["array.M"])
    if kind == "vertical":
        k = np.arange(1, M + 1)
        z = float(cfg["array.z_a"]) + float(cfg["array.extent"]) * (k - M / 2.0) / M
        return np.column_stack([np.zeros(M), z])
    if kind == "planar_lhs":
        rng = np.random.Generator(np.random.Philox(int(cfg["array.seed"])))
        size = float(cfg["array.size"])
        pts = np.empty((M, 2))
        for ax, c in enumerate((float(cfg["array.center_x"]), float(cfg["array.center_z"]))):
            perm = rng.permutation(M)
            u = rng.uniform(size=M)
            pts[:, ax] = c - size + (perm + u) * (2.0 * size / M)
        return pts
    raise ValueError(f"no receiver rule for array.kind {kind!r}")


# ---------------------------------------------------------------------------
# checks per subcommand

def check_rates(path, sigmas, trials):
    """rates.csv: one row per sigma, the requested trials, each rate in
    [0, 1] and a whole number of failures out of `trials`. Returns the rates."""
    cols, rows = read_csv(path)
    expect(cols == ["sigma", "error_rate", "trials", "seed"], f"{path}: columns {cols}")
    expect(rows.shape[0] == len(sigmas),
           f"{path}: {rows.shape[0]} rows for {len(sigmas)} sigmas")
    expect(np.allclose(rows[:, 0], sigmas, rtol=1e-11, atol=0), f"{path}: sigma column")
    expect(np.all(rows[:, 2] == trials), f"{path}: trials column {rows[:, 2]} != {trials}")
    rates = rows[:, 1]
    expect(np.all((rates >= 0) & (rates <= 1)), f"{path}: rate outside [0, 1]: {rates}")
    counts = rates * trials
    expect(np.all(np.abs(counts - np.round(counts)) <= 1e-6),
           f"{path}: rate not a multiple of 1/{trials}: {rates}")
    return rates


def check_spectrum(path, cfg):
    """spectrum.csv of a dense aperture: one eigenvalue per guided mode,
    descending, nonnegative to rounding, summing to the Gram trace."""
    guide = Guide.from_cfg(cfg)
    cols, rows = read_csv(path)
    expect(cols == ["index", "value"], f"{path}: columns {cols}")
    expect(rows.shape[0] == guide.n, f"{path}: {rows.shape[0]} rows for {guide.n} modes")
    d = rows[:, 1]
    expect(np.all(rows[:, 0] == np.arange(1, guide.n + 1)), f"{path}: index column")
    expect(np.all(np.diff(d) <= 0), f"{path}: spectrum not descending")
    expect(d.min() >= -1e-12 * d.max(), f"{path}: eigenvalue {d.min()} below -1e-12 max")
    kind, z_a, a = cfg["array.kind"], float(cfg["array.z_a"]), float(cfg["array.a"])
    if kind in ("dense_vertical", "dense_planar"):
        trace = guide.mean_profile_energy(z_a - a, z_a + a)
    elif kind == "dense_horizontal":
        trace = float(np.sum(guide.profiles([z_a]) ** 2))
    else:
        raise ValueError(f"no trace rule for array.kind {kind!r}")
    rel = abs(d.sum() - trace) / trace
    expect(rel <= 1e-8, f"{path}: eigenvalue sum {d.sum():.15g} differs from the "
                        f"trace {trace:.15g} by {rel:.2e} relative")


def check_rank_scan(path, cfg, kind):
    """rank_scan_<kind>.csv: measured ranks within 10 % of 4a/lambda
    (vertical) or 15 % of 2a/lambda (horizontal), capped at the mode count."""
    guide = Guide.from_cfg(cfg)
    ratios = [float(v) for v in cfg[f"rank.ratios_{kind}"].split(",")]
    cols, rows = read_csv(path)
    expect(cols == ["a_over_L", "predicted", "measured"], f"{path}: columns {cols}")
    expect(rows.shape[0] == len(ratios), f"{path}: {rows.shape[0]} rows for {len(ratios)} ratios")
    factor, tol = (4.0, 0.10) if kind == "vertical" else (2.0, 0.15)
    for (r, _, measured), want_r in zip(rows, ratios):
        expect(abs(r - want_r) <= 1e-12, f"{path}: a/L {r} != {want_r}")
        pred = min(factor * r * guide.L / guide.wavelength, guide.n)
        expect(abs(measured - pred) <= tol * pred,
               f"{path}: a/L={r:g} rank {measured:g}, expected {pred:.4g} within {tol:.0%}")


def check_modes(stdout, cfg):
    """`wgimage modes` output: the mode count and each (j, alpha, beta)."""
    guide = Guide.from_cfg(cfg)
    lines = stdout.splitlines()
    expect(f"{guide.n} guided modes" in lines, f"modes: expected '{guide.n} guided modes'")
    table = lines[lines.index("j,alpha,beta") + 1:]
    expect(len(table) == guide.n, f"modes: {len(table)} table rows for {guide.n} modes")
    got = np.array([[float(v) for v in ln.split(",")] for ln in table])
    expect(np.array_equal(got[:, 0], np.arange(guide.n) + guide.first_index), "modes: index column")
    expect(np.allclose(got[:, 1], guide.alpha, rtol=1e-5, atol=0), "modes: alpha column")
    expect(np.allclose(got[:, 2], guide.beta, rtol=1e-5, atol=0), "modes: beta column")


def check_image(path, cfg, samples=400, seed=0):
    """image.csv: nx*nz rows on the grid, values in [0, 1] with maximum
    exactly 1, peak within lambda/2 of the source. At sigma 0 on a
    receiver set that resolves every mode the estimate is exact, so the
    image is the normalised modulus of the mode sum
    sum_j phi_j(z) phi_j(z_o) e^{i beta_j (x - x_o)}; sampled pixels must
    match it within a tolerance that grows with cond(B)."""
    guide = Guide.from_cfg(cfg)
    xs, zs = search_grid(cfg, guide)
    cols, rows = read_csv(path)
    expect(cols == ["x", "z", "I_normalized"], f"{path}: columns {cols}")
    expect(rows.shape[0] == xs.size * zs.size,
           f"{path}: {rows.shape[0]} rows for a {xs.size}x{zs.size} grid")
    vals = rows[:, 2]
    expect(np.all((vals >= 0) & (vals <= 1)), f"{path}: values outside [0, 1]")
    expect(vals.max() == 1.0, f"{path}: maximum {vals.max()!r} is not exactly 1")
    x_o, z_o = float(cfg["source.x"]), float(cfg["source.z"])
    k = int(np.argmax(vals))
    dist = math.hypot(rows[k, 0] - x_o, rows[k, 1] - z_o)
    expect(dist <= 0.5 * guide.wavelength,
           f"{path}: peak at ({rows[k, 0]:g}, {rows[k, 1]:g}) is {dist:.3g} from the "
           f"source, more than lambda/2 = {0.5 * guide.wavelength:.3g}")
    expect(np.allclose(rows[:, 0], np.repeat(xs, zs.size), rtol=1e-11, atol=1e-9)
           and np.allclose(rows[:, 1], np.tile(zs, xs.size), rtol=1e-11, atol=1e-9),
           f"{path}: pixel coordinates are not the x-major search grid")
    if float(cfg.get("noise.sigmas", "0").split(",")[0]) != 0.0:
        return
    pts = receiver_points(cfg)
    B = guide.profiles(pts[:, 1]) * np.exp(-1j * np.outer(pts[:, 0], guide.beta))
    s = np.linalg.svd(B, compute_uv=False)
    cond = s[0] / s[-1]
    expect(cond < 1e8, f"{path}: cond(B) = {cond:.3g}; the array does not resolve every mode")
    # sampled pixels against the mode sum, normalised at the CSV's peak
    # pixel (the maximum of the reference when the two images agree)
    pick = np.random.default_rng(seed).choice(vals.size, size=min(samples, vals.size),
                                              replace=False)
    pick = np.append(pick, k)
    # exact grid nodes: the CSV's 12-digit coordinates would move the
    # reference by up to ~1e-10
    x, z = xs[pick // zs.size], zs[pick % zs.size]
    coeff = guide.profiles([z_o])[0]
    ref = np.abs(np.sum(np.exp(1j * np.outer(x - x_o, guide.beta)) * coeff
                        * guide.profiles(z), axis=1))
    err = np.max(np.abs(vals[pick] - ref / ref[-1]))
    tol = 1e-10 + 1e3 * cond * np.finfo(float).eps
    expect(err <= tol, f"{path}: pixels differ from the closed-form image by {err:.3g} "
                       f"(tolerance {tol:.3g} at cond(B) = {cond:.3g})")
