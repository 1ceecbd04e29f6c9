"""End-to-end verification matrix: one test per package-level guarantee.

Every test pins a measurable claim with explicit tolerances: the
closed-form training oracles (the Gaussian mean, and the binary-cube
Boltzmann machine at d = 1, the Bernoulli, at d = 6 with enumerated states
and at d = 8 with sampled ones), exactness of the b-maximization, gradient
correctness against finite differences, unbiasedness of the normalizer
estimate, concavity of the exact objectives, the lower-bound/upper-bound
ordering of the evaluation pair, the scaled-density divergence identity,
the bilinear conditional oracle and its training through
``train_regression`` to the conditional MLE, and reference levels for the
bundled two-dimensional and conditional benchmarks.

The two benchmark tests at the bottom train full models across five seeds
each, in two worker processes (``side_by_side``), and together need about
three minutes on a 2-CPU machine; run the suite on an otherwise idle
machine so the wall-clock assertions are meaningful.
"""

import math
import time
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from scipy import stats
from scipy.optimize import minimize

from snl_ebm.datasets import fit_standardizer, load_named
from snl_ebm.evaluation import evaluate
from snl_ebm.models import DENSITY_WIDTHS, GaussianMeanModel, MlpEnergy
from snl_ebm.objectives import estimate_z
from snl_ebm.proposals import (
    FittedGaussian,
    StandardGaussian,
    UniformBox,
    fit_gaussian,
    sample_and_score,
)
from snl_ebm.regression import (
    FEATURE_WIDTHS,
    BilinearConditionalModel,
    ConditionalEnergyModel,
    NormalizerNet,
    RegressionTrainConfig,
    eval_regression_l_is,
    train_regression,
)
from snl_ebm.rng import PortableRng
from snl_ebm.training import TrainConfig, train_density
from snl_ebm.proposals import MdnProposal
from reference import (
    BinaryCubeModel,
    ExhaustiveCube,
    LinearNormalizer,
    TrainableBilinearModel,
    UniformCube,
    cube_states,
    generalized_kl,
    maximize_over_b,
    snl_gradients,
    snl_objective,
    trapezoid_1d,
    z_estimate,
)
from side_by_side import run_side_by_side


# -- closed-form training oracles ---------------------------------------------


def test_gaussian_oracle_training_recovers_sample_optimum():
    """Stochastic training on N(2,1) draws lands on (x_bar, x_bar^2/2).

    1000 points, 256 proposal draws per step, 25 epochs total: a short
    low-rate warmup settles b near log Z before the main phase moves theta.
    """
    t0 = time.perf_counter()
    rng = PortableRng(0)
    data = (rng.normal(1000) + 2.0).reshape(-1, 1)
    xbar = float(data.mean())
    model = GaussianMeanModel(0.0)
    proposal = fit_gaussian(data)
    warm = TrainConfig(objective="snl", epochs=2, learning_rate=1e-3,
                       batch_size=16, proposal_samples=256, seed=0)
    r1 = train_density(model, proposal, data, data, warm)
    main = replace(warm, epochs=23, learning_rate=1e-2)
    r2 = train_density(model, proposal, data, data, main, b=r1.state.b)
    elapsed = time.perf_counter() - t0

    theta = float(model.theta[0])
    b = r2.state.b
    theta_err = abs(theta - xbar)
    b_err = abs(b - 0.5 * xbar * xbar)
    print(f"gaussian oracle: |theta-x_bar|={theta_err:.5f} (<0.02) "
          f"|b-x_bar^2/2|={b_err:.5f} (<0.05) {elapsed:.2f}s (<5s)")
    assert theta_err < 0.02
    assert b_err < 0.05
    assert elapsed < 5.0


def test_bernoulli_oracle_training_recovers_sample_optimum():
    """Same pipeline on 2000 Bernoulli(0.75) draws with the exhaustive
    two-point normalizer: theta goes to logit(x_bar) and b to log(1+e^theta)."""
    t0 = time.perf_counter()
    rng = PortableRng(0)
    draws = (rng.uniform(2000) < 0.75).astype(np.float64).reshape(-1, 1)
    xbar = float(draws.mean())
    model = BinaryCubeModel(1, 0.0)
    proposal = ExhaustiveCube(1)
    warm = TrainConfig(objective="snl", epochs=12, learning_rate=5e-2,
                       batch_size=250, proposal_samples=2, seed=0)
    r1 = train_density(model, proposal, draws, draws, warm)
    main = replace(warm, epochs=13, learning_rate=2e-3)
    r2 = train_density(model, proposal, draws, draws, main, b=r1.state.b)
    elapsed = time.perf_counter() - t0

    theta = float(model.theta[0])
    theta_err = abs(theta - math.log(xbar / (1.0 - xbar)))
    b_err = abs(r2.state.b - math.log(1.0 + math.exp(theta)))
    print(f"bernoulli oracle: |theta-logit(x_bar)|={theta_err:.5f} (<0.01) "
          f"|b-log(1+e^theta)|={b_err:.5f} (<0.01) {elapsed:.2f}s (<2s)")
    assert theta_err < 0.01
    assert b_err < 0.01
    assert elapsed < 2.0


def _cube_draws(dim, n, rng):
    """n draws from a d-cube Boltzmann machine with biases in [-1, 1] and
    couplings in [-0.5, 0.5], by inverting its CDF over the 2^d states."""
    truth = BinaryCubeModel(dim, np.concatenate([rng.uniform(dim, -1.0, 1.0),
                                                 rng.uniform(dim * (dim - 1) // 2, -0.5, 0.5)]))
    states = cube_states(dim)
    cdf = np.cumsum(np.exp(-truth.energy(states) - truth.exact_log_z()))
    return states[np.minimum(np.searchsorted(cdf, rng.uniform(n) * cdf[-1], side="right"), cdf.size - 1)]


def _cube_mle(dim, data):
    """(theta_MLE, log Z and mean log-likelihood there) of the d-cube model,
    by BFGS on the exact likelihood; its gradient is E_model[T] - mean T."""
    model = BinaryCubeModel(dim)
    t_bar = model.statistic(data).mean(axis=0)

    def loss(theta):
        model.theta = theta
        return -model.exact_log_likelihood(data), model.exact_log_z_grad() - t_bar

    fit = minimize(loss, np.zeros(model.n_params), jac=True, method="BFGS", options={"gtol": 1e-11})
    model.theta = fit.x
    return fit.x, model.exact_log_z(), model.exact_log_likelihood(data)


def test_binary_cube_oracle_training_recovers_mle_by_enumeration():
    """2000 draws from a d = 6 Boltzmann machine (21 parameters), trained
    with the enumerating proposal, which makes every SNL gradient exact:
    full batch, 200 epochs at lr 5e-2 then 200 at 3e-3. theta goes to
    theta_MLE (scipy's BFGS) and b to log Z(theta_MLE), within 1e-5 each.
    Measured 3.2e-6 (theta) and 4.3e-6 (b) in 0.4-0.7 s."""
    t0 = time.perf_counter()
    data = _cube_draws(6, 2000, PortableRng(0).split("data"))
    theta_mle, log_z_mle, _ = _cube_mle(6, data)
    model = BinaryCubeModel(6)
    proposal = ExhaustiveCube(6)
    warm = TrainConfig(objective="snl", epochs=200, learning_rate=5e-2,
                       batch_size=2000, proposal_samples=1, seed=0)
    r1 = train_density(model, proposal, data, data, warm)
    r2 = train_density(model, proposal, data, data, replace(warm, learning_rate=3e-3), b=r1.state.b)
    elapsed = time.perf_counter() - t0

    theta_err = float(np.max(np.abs(model.theta - theta_mle)))
    b_err = abs(r2.state.b - log_z_mle)
    print(f"cube d=6 oracle: max|theta-theta_MLE|={theta_err:.2e} (<1e-5) "
          f"|b-log Z(theta_MLE)|={b_err:.2e} (<1e-5) {elapsed:.2f}s (<2s)")
    assert theta_err < 1e-5
    assert b_err < 1e-5
    assert elapsed < 2.0


def test_binary_cube_sampled_training_reaches_mle_likelihood():
    """2000 draws from a d = 8 Boltzmann machine (36 parameters, 256
    states), trained in minibatches of 200 with 1024 fresh UniformCube draws
    per step: 60 epochs at lr 5e-2, 30 at 1e-2, 30 at 2e-3. The exact
    log-likelihood gap to the MLE's ends below 1e-3. Measured 1.1e-4 here,
    and 1.5e-4 to 2.7e-4 with four other training seeds, in 0.7-1.1 s."""
    t0 = time.perf_counter()
    data = _cube_draws(8, 2000, PortableRng(1).split("data"))
    _, _, ll_mle = _cube_mle(8, data)
    model = BinaryCubeModel(8)
    b = None
    for phase, (epochs, lr) in enumerate([(60, 5e-2), (30, 1e-2), (30, 2e-3)]):
        config = TrainConfig(objective="snl", epochs=epochs, learning_rate=lr,
                             batch_size=200, proposal_samples=1024, seed=phase)
        b = train_density(model, UniformCube(8), data, data, config, b=b).state.b
    elapsed = time.perf_counter() - t0

    gap = ll_mle - model.exact_log_likelihood(data)
    print(f"cube d=8 sampled: ll(theta_MLE)-ll(theta)={gap:.2e} (<1e-3) {elapsed:.2f}s (<3s)")
    assert 0.0 <= gap < 1e-3
    assert elapsed < 3.0


# -- exactness of the scalar b-maximization -----------------------------------


def test_b_maximization_recovers_exact_likelihood_and_log_z():
    """Maximizing the lower bound over b alone returns the exact average
    log-likelihood, and the argmax returns log Z, on closed-form models:
    the Gaussian, the Bernoulli (d = 1 cube) and the d = 3 cube."""
    rng = PortableRng(33)
    worst_value = 0.0
    worst_argmax = 0.0
    for k in range(60):
        r = rng.split(f"pair-{k}")
        if k >= 50:
            model = BinaryCubeModel(3, r.uniform(6, -1.5, 1.5))
            data = (r.uniform((30, 3)) < 0.6).astype(np.float64)
        elif k % 2 == 0:
            model = GaussianMeanModel(float(r.uniform(1, -2.0, 2.0)[0]))
            shift = float(r.uniform(1, -1.0, 1.0)[0])
            data = (r.normal(40) + shift).reshape(-1, 1)
        else:
            model = BinaryCubeModel(1, float(r.uniform(1, -1.5, 1.5)[0]))
            data = (r.uniform(30) < 0.6).astype(np.float64).reshape(-1, 1)
        data_term = float(np.mean(model.unnorm_log_density(data)))
        b_hat, value = maximize_over_b(data_term, model.exact_log_z())
        worst_value = max(worst_value, abs(value - model.exact_log_likelihood(data)))
        worst_argmax = max(worst_argmax, abs(b_hat - model.exact_log_z()))
    print(f"b-maximization: value err {worst_value:.2e} (<1e-8) "
          f"argmax err {worst_argmax:.2e} (<1e-6) over 60 pairs")
    assert worst_value < 1e-8
    assert worst_argmax < 1e-6


# -- stochastic gradients vs finite differences -------------------------------


def _estimated_snl(model, b, data, batch):
    return snl_objective(model, b, data, estimate_z(model, batch)).value


def _fd_worst_error(model, b, data, batch):
    # central differences of the frozen-batch objective; the analytic gradient
    # must match in every coordinate of theta and in b.
    got = snl_gradients(model, b, data, batch)
    theta0 = model.theta.copy()
    worst = 0.0
    for j in range(theta0.size):
        h = 1e-5 * max(1.0, abs(theta0[j]))
        t = theta0.copy()
        t[j] += h
        model.theta = t
        f_hi = _estimated_snl(model, b, data, batch)
        t = theta0.copy()
        t[j] -= h
        model.theta = t
        f_lo = _estimated_snl(model, b, data, batch)
        fd = (f_hi - f_lo) / (2.0 * h)
        a = got.grad_theta[j]
        worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-3))
    model.theta = theta0
    hb = 1e-5 * max(1.0, abs(b))
    fd_b = (_estimated_snl(model, b + hb, data, batch)
            - _estimated_snl(model, b - hb, data, batch)) / (2.0 * hb)
    worst = max(worst, abs(got.grad_b - fd_b) / max(abs(got.grad_b), abs(fd_b), 1e-3))
    return worst


def test_stochastic_gradients_match_central_finite_differences():
    """snl_gradients equals the derivative of the frozen-batch estimate for
    every model family, across 24 randomized configurations; the last four
    are the d = 3 cube with sampled and with enumerated proposals."""
    rng = PortableRng(44)
    overall = 0.0
    for k in range(24):
        r = rng.split(f"config-{k}")
        if k >= 20:
            model = BinaryCubeModel(3, r.uniform(6, -1.0, 1.0))
            data = (r.uniform((int(r.uniform(1, 20, 60)[0]), 3)) < 0.6).astype(np.float64)
            prop = UniformCube(3) if k % 2 == 1 else ExhaustiveCube(3)
            m = 32
        elif k % 3 == 0:
            model = GaussianMeanModel(float(r.uniform(1, -1.5, 1.5)[0]))
            n = int(r.uniform(1, 20, 60)[0])
            data = (r.normal(n) + 0.7).reshape(-1, 1)
            if k % 2 == 0:
                prop = StandardGaussian(1)
            else:
                prop = FittedGaussian(np.array([0.5]), np.array([[1.4]]))
            m = 64 + 16 * k
        elif k % 3 == 1:
            model = BinaryCubeModel(1, float(r.uniform(1, -1.0, 1.0)[0]))
            n = int(r.uniform(1, 20, 60)[0])
            data = (r.uniform(n) < 0.6).astype(np.float64).reshape(-1, 1)
            prop = UniformCube(1) if k % 2 == 1 else ExhaustiveCube(1)
            m = 32
        else:
            dim = 1 if k % 2 == 0 else 2
            widths = [dim, 8, 6, 1] if k < 10 else [dim, 12, 1]
            model = MlpEnergy(widths, StandardGaussian(dim), r.split("init"))
            model.theta = model.theta + 0.1 * r.normal(model.theta.size)
            data = r.normal((30, dim))
            if k % 4 == 2:
                prop = StandardGaussian(dim)
            else:
                prop = UniformBox(-3.0 * np.ones(dim), 3.0 * np.ones(dim))
            m = 128
        batch = sample_and_score(prop, r.split("draw"), m,
                                 base=getattr(model, "base", None))
        b = float(r.uniform(1, -0.5, 1.5)[0])
        overall = max(overall, _fd_worst_error(model, b, data, batch))
    print(f"gradients vs finite differences: worst rel err {overall:.2e} (<1e-5)")
    assert overall < 1e-5


# -- unbiasedness of the normalizer estimate ----------------------------------


def test_z_estimator_unbiased_gaussian_and_exact_bernoulli():
    """200-replicate mean of the importance estimate sits within four pooled
    standard errors of e^{1/2} for the tilted Gaussian at theta=1; the
    exhaustive two-point enumeration returns 1+e^theta exactly."""
    rng = PortableRng(55)
    model = GaussianMeanModel(1.0)
    proposal = StandardGaussian(1)
    means = np.empty(200)
    ses = np.empty(200)
    for rep in range(200):
        batch = sample_and_score(proposal, rng.split(f"rep-{rep}"), 2000,
                                 base=model.base)
        z = z_estimate(model, batch)
        means[rep] = z.mean_weight
        ses[rep] = z.standard_error
    pooled = float(np.sqrt(np.sum(ses**2))) / 200.0
    gap = abs(float(means.mean()) - math.exp(0.5))
    print(f"z estimate: |mean - e^(1/2)| = {gap:.5f} (< 4*pooled = {4*pooled:.5f})")
    assert gap < 4.0 * pooled

    for theta in (math.log(3.0), -0.7, 1.3):
        bern = BinaryCubeModel(1, theta)
        batch = sample_and_score(ExhaustiveCube(1), rng.split("enum"), 2)
        z = z_estimate(bern, batch)
        assert abs(z.mean_weight - (1.0 + math.exp(theta))) < 1e-12


# -- concavity of the exact objectives ----------------------------------------


def _concavity_violations(rng, segment):
    """Midpoint checks along 500 random segments, each drawn by ``segment(k,
    r)`` as (model builder, data, theta_1, theta_2) with b_1, b_2 in [-1, 3]:
    the count of violations beyond 1e-10 of the exact lower bound's joint
    concavity in (theta, b) and of the exact likelihood's concavity in theta."""
    violations = 0
    for k in range(500):
        r = rng.split(f"check-{k}")
        build, data, th1, th2 = segment(k, r)
        b1, b2 = (float(v) for v in r.uniform(2, -1.0, 3.0))
        lam = float(r.uniform(1, 0.05, 0.95)[0])

        def snl(th, b):
            m = build(th)
            return snl_objective(m, b, data, m.exact_log_z()).value

        mid = snl(lam * th1 + (1 - lam) * th2, lam * b1 + (1 - lam) * b2)
        if mid < lam * snl(th1, b1) + (1 - lam) * snl(th2, b2) - 1e-10:
            violations += 1

        def ll(th):
            return build(th).exact_log_likelihood(data)

        mid_ll = ll(lam * th1 + (1 - lam) * th2)
        if mid_ll < lam * ll(th1) + (1 - lam) * ll(th2) - 1e-10:
            violations += 1
    return violations


def test_exact_snl_and_likelihood_are_concave():
    """One thousand random convex-combination checks: the exact lower bound
    is jointly concave in (theta, b) and the exact likelihood is concave in
    theta, for both closed-form families, with no violation beyond 1e-10."""

    def segment(k, r):
        if k % 2 == 0:
            build = GaussianMeanModel
            lo, hi = -3.0, 3.0
            data = (r.normal(25) + 0.4).reshape(-1, 1)
        else:
            build = partial(BinaryCubeModel, 1)
            lo, hi = -2.5, 2.5
            data = (r.uniform(20) < 0.7).astype(np.float64).reshape(-1, 1)
        th1, th2 = (float(v) for v in r.uniform(2, lo, hi))
        return build, data, th1, th2

    violations = _concavity_violations(PortableRng(66), segment)
    print(f"concavity: {violations} violations beyond 1e-10 in 1000 checks (=0)")
    assert violations == 0


def test_exact_snl_is_jointly_concave_on_the_binary_cube():
    """The same checks on the d = 4 cube (10 parameters, theta in [-1, 1]^10,
    40 fixed draws): no violation beyond 1e-10 in 1000 checks."""
    data = (PortableRng(67).uniform((40, 4)) < 0.3).astype(np.float64)

    def segment(k, r):
        return partial(BinaryCubeModel, 4), data, r.uniform(10, -1.0, 1.0), r.uniform(10, -1.0, 1.0)

    violations = _concavity_violations(PortableRng(67), segment)
    print(f"cube concavity: {violations} violations beyond 1e-10 in 1000 checks (=0)")
    assert violations == 0


# -- evaluation sandwich -------------------------------------------------------


def test_lower_bound_below_upper_bound_across_seeded_evaluations():
    """On a trained 2-d model the reported lower bound never exceeds the
    importance-sampled upper bound when both use the same 20000 draws;
    at least 99 of 100 seeded evaluations must satisfy the ordering."""
    raw = load_named("checkerboard", 1000, 3)
    ds = fit_standardizer(raw.train).transform_split(raw)
    model = MlpEnergy([2, 32, 32, 1], StandardGaussian(2), PortableRng(3))
    cfg = TrainConfig(objective="snl", epochs=5, learning_rate=1e-3,
                      batch_size=64, proposal_samples=256, seed=3)
    result = train_density(model, StandardGaussian(2), ds.train, ds.val, cfg)
    model.theta = result.best_theta
    splits = {"train": ds.train, "val": ds.val, "test": ds.test}
    held = 0
    for seed in range(100):
        rep = evaluate(model, result.best_b, splits, StandardGaussian(2),
                       n_samples=20000, seed=seed)
        held += int(all(s.l_snl <= s.l_is + 1e-12 for s in rep.splits))
    print(f"bound ordering: held in {held}/100 seeded evaluations (>=99)")
    assert held >= 99


# -- scaled-density divergence identity ----------------------------------------


def test_scaled_density_divergence_minimum_matches_gaussian_formula():
    """min over c of the generalized divergence between a Gaussian density and
    a scaled Gaussian equals the closed-form Gaussian KL.

    The quadrature window covers nine standard deviations of both densities;
    the scale ranges keep every node above the float64 underflow threshold so
    the support check cannot trip on rounded-to-zero tails.
    """
    rng = PortableRng(1010)
    worst = 0.0
    for _ in range(10):
        mu1, mu2 = (float(v) for v in rng.uniform(2, -1.0, 1.0))
        s1, s2 = (float(v) for v in rng.uniform(2, 0.8, 1.25))
        log_c2 = float(rng.uniform(1, -1.0, 1.0)[0])
        lo = min(mu1 - 9.0 * s1, mu2 - 9.0 * s2)
        hi = max(mu1 + 9.0 * s1, mu2 + 9.0 * s2)
        quad = trapezoid_1d(lo, hi, 16001)

        def p1(x):
            return stats.norm.pdf(x[:, 0], mu1, s1)

        def f2(x):
            return math.exp(log_c2) * stats.norm.pdf(x[:, 0], mu2, s2)

        mass1 = float(quad.weights @ p1(quad.points))
        mass2 = float(quad.weights @ f2(quad.points))
        c_star = mass1 / mass2
        value = generalized_kl(p1, lambda x: c_star * f2(x), quad)
        # neighbors of the optimal scale must both sit above the minimum
        up = generalized_kl(p1, lambda x: 1.001 * c_star * f2(x), quad)
        down = generalized_kl(p1, lambda x: 0.999 * c_star * f2(x), quad)
        assert up > value and down > value
        exact = math.log(s2 / s1) + (s1**2 + (mu1 - mu2) ** 2) / (2.0 * s2**2) - 0.5
        worst = max(worst, abs(value - exact))
    print(f"divergence minimum: worst |min - gaussian KL| = {worst:.2e} (<1e-6)")
    assert worst < 1e-6


# -- bilinear conditional oracle -----------------------------------------------


def test_bilinear_conditional_oracle_optimum_and_importance_estimate():
    """For E(x,y) = -theta x y with a standard Gaussian carrier the pointwise
    optimal b is (theta x)^2/2, and the importance-sampled conditional
    log-likelihood at 20000 draws matches the closed form within three
    standard errors."""
    rng = PortableRng(1111)
    model = BilinearConditionalModel(0.8)
    x = rng.uniform(20, -1.5, 1.5)
    y = rng.normal(20) + 0.3

    worst_b = 0.0
    log_z = model.exact_log_z(x)
    energies = model.energy_pairs(x, y)
    for i in range(20):
        b_hat, _ = maximize_over_b(-float(energies[i]), float(log_z[i]))
        worst_b = max(worst_b, abs(b_hat - float(log_z[i])))
    print(f"bilinear oracle: worst |b_hat - (theta x)^2/2| = {worst_b:.2e} (<1e-6)")
    assert worst_b < 1e-6

    report = eval_regression_l_is(model, (x, y), StandardGaussian(1),
                                  n_samples=20000,
                                  rng=PortableRng(7).split("evaluate"))
    exact = model.exact_conditional_log_likelihood(x, y)
    gap = abs(report.l_is - exact)
    print(f"bilinear oracle: |l_is - exact| = {gap:.5f} "
          f"(< 3*se = {3*report.l_is_se:.5f})")
    assert gap < 3.0 * report.l_is_se


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bilinear_conditional_oracle_training_recovers_conditional_mle(seed):
    """E(x,y) = -theta x y with features (x, x^2) and a linear normalizer,
    trained through ``train_regression`` on 2000 pairs x ~ U(-1.5, 1.5),
    y = 0.8 x + 0.3 + N(0, 1): SNL, 60 epochs at lr 1e-3, batches of 64, 32
    draws per point from the fitted carrier N(mu, sigma^2). theta goes to
    the conditional MLE sum x (y - mu) / (sigma^2 sum x^2) within 0.01, and
    b(x) to log Z(x) = theta mu x + theta^2 sigma^2 x^2 / 2 within 0.04 over
    [-1.5, 1.5]. Measured on seeds 0-9: |theta - theta_MLE| <= 0.0036 and
    max |b - log Z| <= 0.030, in 0.7-1.3 s a seed."""
    t0 = time.perf_counter()
    rng = PortableRng(seed).split("oracle-data")
    pairs = []
    for n in (2000, 500):  # training, validation
        x = rng.uniform(n, -1.5, 1.5)
        pairs.append((x, 0.8 * x + 0.3 + rng.normal(n)))
    (x, y), val = pairs
    model, normalizer = TrainableBilinearModel(), LinearNormalizer()
    config = RegressionTrainConfig(objective="snl", epochs=60, learning_rate=1e-3, batch_size=64,
                                   samples_per_point=32, seed=seed)
    train_regression(model, normalizer, fit_gaussian(y.reshape(-1, 1)), (x, y), val, config)
    elapsed = time.perf_counter() - t0

    theta_err = abs(float(model.theta[0]) - model.conditional_mle(x, y))
    grid = np.linspace(-1.5, 1.5, 301)
    b_err = float(np.max(np.abs(normalizer.values(model.features(grid)) - model.exact_log_z(grid))))
    print(f"bilinear training seed {seed}: |theta-theta_MLE|={theta_err:.4f} (<0.01) "
          f"max|b-log Z|={b_err:.4f} (<0.04) {elapsed:.2f}s")
    assert theta_err < 0.01
    assert b_err < 0.04


# -- benchmark reproductions (slow) ---------------------------------------------


def _mean_se(values):
    """'mean +- standard error' of per-seed values, the error over the seeds."""
    return f"{np.mean(values):+.4f} +- {np.std(values, ddof=1) / math.sqrt(len(values)):.4f}"


def _density_benchmark_run(name, objective, seed):
    split = load_named(name, 10000, seed)
    split = fit_standardizer(split.train).transform_split(split)
    model = MlpEnergy(list(DENSITY_WIDTHS), base=StandardGaussian(2),
                      rng=PortableRng(seed).split("model"))
    proposal = StandardGaussian(2)
    if objective == "snl":
        cfg = TrainConfig(objective="snl", epochs=25, learning_rate=1e-3,
                          batch_size=32, proposal_samples=1024, seed=seed)
    else:
        # matched noise budget: one noise draw per data point, nu = 1
        cfg = TrainConfig(objective="nce", epochs=25, learning_rate=1e-3,
                          batch_size=32, proposal_samples=32, seed=seed,
                          nce_nu=1.0)
    result = train_density(model, proposal, split.train, split.val, cfg)
    rep = evaluate(model, result.state.b, {"test": split.test}, proposal,
                   n_samples=20000, seed=seed)
    return rep.splits[0]


@pytest.mark.slow
def test_density_benchmark_levels_and_snl_nce_ordering():
    """Five-seed benchmark on the two bundled 2-d datasets: the mean test
    upper bound should land within 0.08 of the reference levels -1.902
    (checkerboard) and -1.914 (four_circles), and the self-normalized
    objective should do at least as well as the contrastive baseline."""
    t0 = time.perf_counter()
    reference = {"checkerboard": -1.902, "four_circles": -1.914}
    runs = iter(run_side_by_side(_density_benchmark_run, [
        (name, objective, seed) for name in reference for objective in ("snl", "nce") for seed in range(5)]))
    means, vals = {}, {}
    for name in ("checkerboard", "four_circles"):
        for objective in ("snl", "nce"):
            reports, seconds = zip(*[next(runs) for _ in range(5)])
            seconds = sum(seconds)  # of the cell's five runs, which ran side by side with others
            vals[name, objective] = np.array([r.l_is for r in reports])
            means[name, objective] = float(np.mean(vals[name, objective]))
            print(f"{name} {objective}: per-seed {np.round(vals[name, objective], 4).tolist()} "
                  f"mean {means[name, objective]:.4f}")
            print(f"  mean {_mean_se(vals[name, objective])}, {seconds:.0f}s; per-seed "
                  f"l_is_se {[round(r.l_is_se, 4) for r in reports]}, "
                  f"l_is - l_snl {[round(r.l_is - r.l_snl, 4) for r in reports]}")
        print(f"{name} snl - nce, paired over seeds: "
              f"{_mean_se(vals[name, 'snl'] - vals[name, 'nce'])}")
    elapsed = time.perf_counter() - t0

    problems = []
    for name, level in reference.items():
        snl_mean = means[name, "snl"]
        nce_mean = means[name, "nce"]
        if abs(snl_mean - level) > 0.08:
            problems.append(f"{name}: mean test upper bound {snl_mean:.4f} "
                            f"outside {level}+-0.08")
        if snl_mean < nce_mean:
            problems.append(f"{name}: snl mean {snl_mean:.4f} below "
                            f"nce mean {nce_mean:.4f}")
    if elapsed >= 900.0:
        problems.append(f"runtime {elapsed:.0f}s, budget 900s")
    print(f"density benchmark: {elapsed:.0f}s, " +
          ("all checks passed" if not problems else "; ".join(problems)))
    assert not problems, "; ".join(problems)


def _regression_benchmark_run(name, objective, proposal_kind, seed):
    split = load_named(name, 2858, seed)
    x_tr, y_tr = split.train[:, 0], split.train[:, 1]
    rng = PortableRng(seed)
    model = ConditionalEnergyModel(rng.split("model"))
    normalizer = NormalizerNet(rng.split("normalizer"))
    if proposal_kind == "mdn":
        proposal = MdnProposal(FEATURE_WIDTHS[-1], 2, rng.split("proposal-init"))
    else:
        proposal = fit_gaussian(y_tr.reshape(-1, 1))
    cfg = RegressionTrainConfig(objective=objective, epochs=40,
                                learning_rate=1e-3, batch_size=64,
                                samples_per_point=16, seed=seed)
    train_regression(model, normalizer, proposal, (x_tr, y_tr),
                     (split.val[:, 0], split.val[:, 1]), cfg)
    report = eval_regression_l_is(
        model, (split.test[:, 0], split.test[:, 1]),
        fit_gaussian(y_tr.reshape(-1, 1)), n_samples=20000,
        rng=PortableRng(seed).split("evaluate"),
        normalizer_fn=lambda xs: normalizer.values(model.features(xs)),
    )
    return report


@pytest.mark.slow
def test_regression_benchmark_levels_and_snl_nce_ordering():
    """Five-seed conditional benchmark: on the first 1-d dataset the
    self-normalized objective with a two-component mixture proposal should
    reach a mean test upper bound in [0.15, 0.35], and on both datasets it
    should beat the contrastive baseline trained with the same proposal
    (the second dataset uses a Gaussian fitted to the training responses)."""
    cells = [
        ("regression1", "snl", "mdn"),
        ("regression1", "nce", "mdn"),
        ("regression2", "snl", "fitted"),
        ("regression2", "nce", "fitted"),
    ]
    runs = iter(run_side_by_side(_regression_benchmark_run, [cell + (seed,) for cell in cells for seed in range(5)]))
    means, vals = {}, {}
    for name, objective, kind in cells:
        reports, seconds = zip(*[next(runs) for _ in range(5)])
        seconds = sum(seconds)  # of the cell's five runs, which ran side by side with others
        vals[name, objective] = np.array([r.l_is for r in reports])
        means[name, objective] = float(np.mean(vals[name, objective]))
        print(f"{name} {objective} {kind}: per-seed {np.round(vals[name, objective], 4).tolist()} "
              f"mean {means[name, objective]:.4f}")
        print(f"  mean {_mean_se(vals[name, objective])}, {seconds:.0f}s; per-seed "
              f"l_is_se {[round(r.l_is_se, 4) for r in reports]}, "
              f"l_is - l_snl {[round(r.l_is - r.l_snl, 4) for r in reports]}")
    for name in ("regression1", "regression2"):
        print(f"{name} snl - nce, paired over seeds: "
              f"{_mean_se(vals[name, 'snl'] - vals[name, 'nce'])}")

    problems = []
    level = means["regression1", "snl"]
    if not 0.15 <= level <= 0.35:
        problems.append(f"regression1: snl mean {level:.4f} outside [0.15, 0.35]")
    for name in ("regression1", "regression2"):
        if means[name, "snl"] <= means[name, "nce"]:
            problems.append(f"{name}: snl mean {means[name, 'snl']:.4f} does not "
                            f"beat nce mean {means[name, 'nce']:.4f}")
    print("regression benchmark: " +
          ("all checks passed" if not problems else "; ".join(problems)))
    assert not problems, "; ".join(problems)
