"""Verification checks shared by the CLI ``verify`` command and the test suite.

Each function runs one family of checks and returns :class:`Check` records.
Sample sizes and significance levels for the statistical tests are
pre-registered here as module constants so that reruns with the same seed are
reproducible verdicts, not tuning opportunities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

import numpy as np

from . import channels, combinatorics, oracle
from .channels import RngState

__all__ = [
    "Check",
    "run_property_checks",
    "run_oracle_checks",
    "run_chain_checks",
    "run_simulator_checks",
]

SIGNIFICANCE = 1e-3

# pre-registered statistical test design
DELETION_TRIALS = 1_000_000
DELETION_BLOCK = 20
DELETION_P = 0.1
INSERTION_TRIALS = 1_000_000
INSERTION_BLOCK = 20
INSERTION_P = 0.1
SINGLE_BIT_TRIALS = 1_000_000
BSC_BITS = 1_000_000
BSC_P = 0.2
JOINT_TRIALS = 300_000
JOINT_P_D = 0.2
JOINT_P_E = 0.15
KS_INPUT_BITS = 200_000
KS_P_D = 0.3
KS_SIGMA = 1.0
NOISE_SAMPLES = 1_000_000
NOISE_SIGMA = 0.7
AWGN_MC_SAMPLES = 1_000_000
# the property checks enumerate block lengths 1..PROPERTY_N_MAX
PROPERTY_N_MAX = 12
# the survivor row sums are checked over every input of lengths 1..SURVIVOR_N_MAX
SURVIVOR_N_MAX = 8
# the looped checks feed their trials in chunks of at most this many input bits
_CHUNK_ELEMENTS = 1 << 16

# the oracle and chain scopes enumerate every block length the oracles take
DELETION_GRID_N = range(1, oracle.MAX_DELETION_ENTROPY_N + 1)
INSERTION_GRID_N = range(1, oracle.MAX_INSERTION_N + 1)
DELETION_GRID_P = (0.01, 0.1, 0.3)
SUBSTITUTION_GRID_P = (0.0, 0.05)
INSERTION_GRID_P = (0.01, 0.1, 0.3)


@dataclass(frozen=True)
class Check:
    """One verdict of ``synchan verify``: the check's name, whether it passed, and what it saw."""

    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


def _check(name: str, passed: bool, detail: str) -> Check:
    return Check(name, bool(passed), detail)


# ---------------------------------------------------------------------------
# combinatorial property checks
# ---------------------------------------------------------------------------


def run_property_checks(seed: int | None = None) -> list[Check]:
    """Run-count identities, survivor row sums, law normalization.

    The checks draw nothing, so ``seed`` is ignored; it stays only because
    ``bench/child.py`` passes it.
    """
    checks = []
    worst_count = 0.0
    for n in range(1, PROPERTY_N_MAX + 1):
        # a run of an input ends where the next bit differs or the block ends; every
        # row ends one at its last bit, so in row-major order run ends are a run apart
        bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
        ends = np.ones(bits.shape, dtype=bool)
        ends[:, :-1] = bits[:, 1:] != bits[:, :-1]
        totals = np.bincount(np.diff(np.flatnonzero(ends), prepend=-1), minlength=n + 1)
        for l in range(1, n + 1):
            expected = combinatorics.expected_run_count(l, n) * (1 << n)
            worst_count = max(worst_count, abs(totals[l] - expected))
    checks.append(
        _check(
            "expected_run_count_enumeration",
            worst_count < 1e-9,
            f"max count deviation {worst_count:.2e} over n <= {PROPERTY_N_MAX}",
        )
    )

    # rows that count each of an input's C(n, m) size-m keep sets once give every conditional
    # law, and the marginal, the mass sum_m C(n, m) p_d^(n-m) (1-p_d)^m = 1 at any p_d
    rows_exact = all(
        np.all(counts.sum(axis=1) == comb(n, m))
        for n in range(1, SURVIVOR_N_MAX + 1)
        for m in range(n + 1)
        for _, counts in oracle._survivor_counts(n, m, np.arange(1 << n))
    )
    checks.append(
        _check(
            "deletion_survivor_row_sums",
            rows_exact,
            f"every input's survivor counts of length m sum to C(n,m) exactly (n <= {SURVIVOR_N_MAX})",
        )
    )

    float_resid = max(
        abs(1.0 - math.fsum(oracle.exact_insertion_conditional_law((0, 1, 1, 0, 1), p).values()))
        for p in (0.01, 0.1, 0.3)
    )
    checks.append(
        _check(
            "insertion_law_normalization",
            float_resid < 1e-12,
            f"max |1 - mass| = {float_resid:.2e}",
        )
    )
    return checks


# ---------------------------------------------------------------------------
# oracle identity checks
# ---------------------------------------------------------------------------


def run_oracle_checks(
    deletion_n: Iterable[int] = DELETION_GRID_N,
    insertion_n: Iterable[int] = INSERTION_GRID_N,
) -> list[Check]:
    """Output-entropy identities and per-length uniformity on the default grids."""
    deletion_worst, deletion_uniform = 0.0, True
    for n in deletion_n:
        for report in oracle._deletion_reports(n, DELETION_GRID_P, SUBSTITUTION_GRID_P).values():
            deletion_worst = max(deletion_worst, abs(report.bound_chain[0].margin))
        # the aggregates of the survivor pass behind those reports, not a second pass
        for m, agg in enumerate(oracle._deletion_sums(n, SUBSTITUTION_GRID_P)[1]):
            deletion_uniform &= bool(np.all(agg == (1 << (n - m)) * comb(n, n - m)))
    insertion_worst, insertion_uniform = 0.0, True
    for n in insertion_n:
        for p_i in INSERTION_GRID_P:
            report = oracle.exact_insertion_entropies(n, p_i)
            insertion_worst = max(insertion_worst, abs(report.bound_chain[0].margin))
        for j, agg in enumerate(oracle.insertion_output_multiplicities(n)):
            insertion_uniform &= bool(np.all(agg == (1 << j) * comb(n, j)))
    return [
        _check(
            "deletion_output_entropy_identity",
            deletion_worst < 1e-9,
            f"max |H(Y') - n(1-p) - H(T)| = {deletion_worst:.2e}",
        ),
        _check(
            "insertion_output_entropy_identity",
            insertion_worst < 1e-9,
            f"max |H(Y) - n(1+p) - H(T)| = {insertion_worst:.2e}",
        ),
        _check(
            "deletion_per_length_uniformity",
            deletion_uniform,
            "aggregate multiplicities equal 2^j C(n,j) exactly",
        ),
        _check(
            "insertion_per_length_uniformity",
            insertion_uniform,
            "aggregate event counts equal 2^j C(n,j) exactly",
        ),
    ]


def run_chain_checks(
    deletion_n: Iterable[int] = DELETION_GRID_N,
    insertion_n: Iterable[int] = INSERTION_GRID_N,
) -> list[Check]:
    """Conditional-entropy bounds and capacity chains against exact enumeration."""
    reports = [
        (f"deletion_{{}}[n={n},pd={p_d},pe={p_e}]", report)
        for n in deletion_n
        for (p_d, p_e), report in oracle._deletion_reports(n, DELETION_GRID_P, SUBSTITUTION_GRID_P).items()
    ]
    reports += [
        (f"insertion_{{}}[n={n},pi={p_i}]", oracle.exact_insertion_entropies(n, p_i))
        for n in insertion_n
        if n >= 2
        for p_i in INSERTION_GRID_P
    ]
    return [
        _check(name.format(c.label), c.holds, f"margin {c.margin:+.3e}")
        for name, report in reports
        for c in report.bound_chain[1:]
    ]


def _recorded_defect(scope: str, check: Check) -> bool:
    """Whether ``check`` fails for the recorded single-insertion weight defect (README): it fails
    both insertion chain checks with the printed weight at any n, with the exact weight only at
    n = 2, where the multi-insertion term log2 C(n, 2) is 0."""
    label, _, point = check.name.partition("[")
    printed = label.removesuffix("_exact_weight")
    chains = ("insertion_conditional_entropy_bound", "insertion_capacity_chain")
    known = printed in chains and (printed == label or point.startswith("n=2,"))
    return scope == "chains" and not check.passed and known


# ---------------------------------------------------------------------------
# simulator statistical checks
# ---------------------------------------------------------------------------


def _chi_square(observed: Sequence[float], expected: Sequence[float]) -> float:
    """p-value of a chi-square test with small-expectation bins pooled."""
    obs_pool, exp_pool = [], []
    small_o = small_e = 0.0
    for o, e in zip(observed, expected):
        if e < 5.0:
            small_o += o
            small_e += e
        else:
            obs_pool.append(o)
            exp_pool.append(e)
    if small_e > 0:
        obs_pool.append(small_o)
        exp_pool.append(small_e)
    obs = np.asarray(obs_pool)
    exp = np.asarray(exp_pool)
    exp = exp * obs.sum() / exp.sum()
    stat = float(((obs - exp) ** 2 / exp).sum())
    return _chi2_tail(stat, len(obs) - 1)


def _stirlerr(a: float) -> float:
    """ln Gamma(a + 1) - ln(sqrt(2 pi a) (a/e)^a), by its Stirling series above 15."""
    if a <= 15.0:
        return math.lgamma(a + 1.0) - (a + 0.5) * math.log(a) + a - 0.5 * math.log(2.0 * math.pi)
    inv = 1.0 / (a * a)
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - inv / 1188) * inv) * inv) * inv) / a


def _bd0(a: float, x: float) -> float:
    """a ln(a/x) + x - a, summed as a series in (a - x)/(a + x) where it nearly cancels."""
    if abs(a - x) >= 0.1 * (a + x):
        return a * math.log(a / x) + x - a
    v = (a - x) / (a + x)
    total, term = (a - x) * v, 2.0 * a * v
    for j in range(1, 1000):
        term *= v * v
        total, previous = total + term / (2 * j + 1), total
        if total == previous:
            break
    return total


def _gamma_prefactor(a: float, x: float) -> float:
    """x^a e^-x / Gamma(a) in Loader's (2000) saddle-point form, accurate for large a and x."""
    return a * math.exp(-_stirlerr(a) - _bd0(a, x)) / math.sqrt(2.0 * math.pi * a)


def _chi2_tail(x: float, k: int, upper: bool = True) -> float:
    """P(X > x), or P(X < x) if not ``upper``, for X chi-square with k degrees of freedom.

    The regularised incomplete gamma function at a = k/2, x/2: its power
    series below a + 1, and Lentz's continued fraction for the upper tail above.
    """
    a, x = 0.5 * k, 0.5 * x
    if x <= 0.0:
        return float(upper)
    if x < a + 1.0:
        total = term = 1.0 / a
        for j in range(1, 1_000_000):
            term *= x / (a + j)
            total += term
            if term < total * 1e-17:
                break
        else:
            raise ArithmeticError(f"chi-square series did not converge (x={2 * x!r}, k={k})")
        lower = total * _gamma_prefactor(a, x)
        return 1.0 - lower if upper else lower
    tiny = 1e-300
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    total = d
    for j in range(1, 1_000_000):
        an = -j * (j - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        total *= c * d
        if abs(c * d - 1.0) < 1e-16:
            break
    else:
        raise ArithmeticError(f"chi-square continued fraction did not converge (x={2 * x!r}, k={k})")
    tail = total * _gamma_prefactor(a, x)
    return tail if upper else 1.0 - tail


def _chi2_two_sided(x: float, k: int) -> float:
    """Two-sided p-value of a chi-square statistic with k degrees of freedom: twice its smaller tail."""
    return 2.0 * min(_chi2_tail(x, k, upper=False), _chi2_tail(x, k))


def _ks_pvalue(d: float, n: int) -> float:
    """Two-sided Kolmogorov-Smirnov p-value of statistic ``d`` over ``n`` samples: the asymptotic
    Kolmogorov law at Stephens' (1970) scaled statistic, within 3% of the exact law for n >= 1000."""
    lam = (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * d
    if lam < 0.2:
        return 1.0  # within 1e-12 of the series, which converges slowly here
    terms = ((-1) ** (j - 1) * math.exp(-2.0 * (j * lam) ** 2) for j in range(1, 101))
    return min(1.0, max(0.0, 2.0 * math.fsum(terms)))


def _binomial_pmf(n: int, p: float) -> np.ndarray:
    k = np.arange(n + 1)
    return np.array([comb(n, int(i)) for i in k]) * p**k * (1 - p) ** (n - k)


def _chunked(simulate, block: Sequence[int], trials: int, *args):
    """Batch outputs of ``trials`` copies of ``block``, fed in chunks of fixed size."""
    rows = max(1, _CHUNK_ELEMENTS // len(block))
    for start in range(0, trials, rows):
        yield simulate(np.tile(np.uint8(block), (min(rows, trials - start), 1)), *args)


def run_simulator_checks(seed: int = 20250809, scale: float = 1.0) -> list[Check]:
    """Distributional tests of the four channel simulators with fixed seeds.

    ``scale`` shrinks every registered sample size proportionally (used by
    fast test runs); verdicts at reduced size are still valid tests at the
    registered significance.
    """
    if not 0.0 < scale < math.inf:
        raise ValueError(f"scale must be positive and finite, got {scale!r}")
    checks = []
    streams = RngState(seed).split(6)

    trials = max(1000, int(DELETION_TRIALS * scale))
    bits = [0, 1] * (DELETION_BLOCK // 2)
    lengths = np.zeros(DELETION_BLOCK + 1, dtype=np.int64)
    for _, survivors in _chunked(channels.simulate_deletion, bits, trials, DELETION_P, streams[0]):
        lengths += np.bincount(survivors, minlength=DELETION_BLOCK + 1)
    pvalue = _chi_square(lengths, _binomial_pmf(DELETION_BLOCK, 1 - DELETION_P) * trials)
    checks.append(
        _check(
            "deletion_survivor_count_law",
            pvalue >= SIGNIFICANCE,
            f"chi-square p = {pvalue:.4g} over {trials} trials",
        )
    )

    nbits = max(1000, int(BSC_BITS * scale))
    flips = int(
        (channels.simulate_bsc(np.zeros(nbits, dtype=np.uint8), BSC_P, streams[1]) == 1).sum()
    )
    z = abs(flips - nbits * BSC_P) / math.sqrt(nbits * BSC_P * (1 - BSC_P))
    # a two-sided normal test is a chi-square test of z^2 with one degree of freedom
    pvalue = _chi2_tail(z * z, 1)
    checks.append(
        _check(
            "bsc_flip_rate",
            pvalue >= SIGNIFICANCE,
            f"|z| = {z:.3f}, p = {pvalue:.4g} over {nbits} bits",
        )
    )

    # with an all-zeros input the survivor count and flip count are both
    # readable straight off the output, so the joint law is fully observable
    trials = max(1000, int(JOINT_TRIALS * scale))
    block = DELETION_BLOCK
    joint = np.zeros((block + 1, block + 1), dtype=np.int64)
    simulate = channels.simulate_deletion_substitution
    for out, sizes in _chunked(simulate, [0] * block, trials, JOINT_P_D, JOINT_P_E, streams[2]):
        flips = np.bincount(np.repeat(np.arange(sizes.size), sizes), out, sizes.size)
        np.add.at(joint, (sizes, flips.astype(np.int64)), 1)
    length_pmf = _binomial_pmf(block, 1 - JOINT_P_D)
    expected = np.zeros_like(joint, dtype=np.float64)
    for m in range(block + 1):
        expected[m, : m + 1] = trials * length_pmf[m] * _binomial_pmf(m, JOINT_P_E)
    pvalue = _chi_square(joint.ravel(), expected.ravel())
    checks.append(
        _check(
            "deletion_substitution_joint_law",
            pvalue >= SIGNIFICANCE,
            f"chi-square p = {pvalue:.4g} over {trials} trials",
        )
    )

    # an all-ones input maps to the constant -1 vector, so the received
    # samples shifted by +1 are exactly the noise draws
    nsamp = max(1000, int(NOISE_SAMPLES * scale))
    noisy = channels.simulate_deletion_awgn(np.ones(nsamp, dtype=np.uint8), 0.0, NOISE_SIGMA, streams[3])
    noise = noisy + 1.0
    z_mean = abs(noise.mean()) / (NOISE_SIGMA / math.sqrt(nsamp))
    var_stat = noise.var() * nsamp / NOISE_SIGMA**2
    pvalue = min(_chi2_tail(z_mean * z_mean, 1), _chi2_two_sided(var_stat, nsamp - 1))
    checks.append(
        _check(
            "awgn_noise_moments",
            pvalue >= SIGNIFICANCE,
            f"|z_mean| = {z_mean:.3f}, scaled var stat {var_stat:.1f}, p = {pvalue:.4g}",
        )
    )

    n_in = max(1000, int(KS_INPUT_BITS * scale))
    x = streams[4].generator.integers(0, 2, size=n_in, dtype=np.uint8)
    received = channels.simulate_deletion_awgn(x, KS_P_D, KS_SIGMA, streams[4])

    # the cdf of the equal mixture of N(+1, sigma^2) and N(-1, sigma^2) at the sorted outputs
    r = math.sqrt(2.0) * KS_SIGMA
    cdf = [math.erfc((1.0 - v) / r) + math.erfc((-1.0 - v) / r) for v in np.sort(received).tolist()]
    cdf = np.array(cdf) / 4
    ranks = np.arange(received.size + 1) / received.size
    ks_p = _ks_pvalue(max((ranks[1:] - cdf).max(), (cdf - ranks[:-1]).max()), received.size)
    checks.append(
        _check(
            "awgn_marginal_density",
            ks_p >= SIGNIFICANCE,
            f"KS p = {ks_p:.4g} over {received.size} outputs",
        )
    )

    trials = max(1000, int(INSERTION_TRIALS * scale))
    bits_ins = [0, 1] * (INSERTION_BLOCK // 2)
    counts = np.zeros(INSERTION_BLOCK + 1, dtype=np.int64)
    simulate = channels.simulate_gallager_insertion
    for _, sizes in _chunked(simulate, bits_ins, trials, INSERTION_P, streams[5]):
        counts += np.bincount(sizes - INSERTION_BLOCK, minlength=INSERTION_BLOCK + 1)
    pvalue = _chi_square(counts, _binomial_pmf(INSERTION_BLOCK, INSERTION_P) * trials)
    checks.append(
        _check(
            "insertion_event_count_law",
            pvalue >= SIGNIFICANCE,
            f"chi-square p = {pvalue:.4g} over {trials} trials",
        )
    )

    trials = max(1000, int(SINGLE_BIT_TRIALS * scale))
    pair_counts = np.zeros(4, dtype=np.int64)
    for out, sizes in _chunked(simulate, [1], trials, 0.5, streams[5]):
        first = (np.cumsum(sizes) - sizes)[sizes == 2]
        pair_counts += np.bincount(2 * out[first] + out[first + 1], minlength=4)
    pvalue = _chi_square(pair_counts, np.full(4, pair_counts.sum() / 4.0))
    checks.append(
        _check(
            "insertion_replacement_uniformity",
            pvalue >= SIGNIFICANCE,
            f"chi-square p = {pvalue:.4g} over {int(pair_counts.sum())} events",
        )
    )

    samples = max(100_000, int(AWGN_MC_SAMPLES * scale))
    mc = oracle.mc_awgn_entropy_check(1.0, samples=samples, seed=seed + 17)
    # the deviation in standard errors is a normal statistic, tested as bsc_flip_rate's z
    checks.append(
        _check(
            "awgn_quadrature_vs_mc",
            _chi2_tail(mc.deviation_sigmas**2, 1) >= SIGNIFICANCE,
            f"|estimate - closed form| = {mc.deviation_sigmas:.2f} std errors over {samples} samples",
        )
    )
    return checks

