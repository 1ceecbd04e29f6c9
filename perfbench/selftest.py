"""Self-test of the benchmark's checks: each must accept a correct input and
reject a planted wrong one (b shifted by 1 nat, a perturbed grid entry, an
oracle theta off by 10 %, ...). A check that cannot fail proves nothing.

    python3 perfbench/selftest.py

Exits 0 when every check behaves, 1 otherwise. Takes a few seconds.
"""

from __future__ import annotations

import sys

from run import import_library


def cases():
    """(description, check built from a correct input, check built from a planted input)."""
    import numpy as np

    import checks
    from snl_ebm.evaluation import evaluate
    from snl_ebm.models import DENSITY_WIDTHS, GaussianMeanModel, MlpEnergy
    from snl_ebm.proposals import StandardGaussian
    from snl_ebm.regression import BilinearConditionalModel, ConditionalEnergyModel, eval_regression_l_is
    from snl_ebm.rng import PortableRng
    from workloads import regression1_splits, standardised_checkerboard

    raw, split = standardised_checkerboard(0)
    model = MlpEnergy(list(DENSITY_WIDTHS), base=StandardGaussian(2), rng=PortableRng(0).split("model"))
    proposal = StandardGaussian(2)
    log_z = evaluate(model, 0.0, {"test": split.test}, proposal, seed=1).log_z_estimate
    at_optimum = evaluate(model, log_z, {"test": split.test}, proposal, seed=1)
    shifted = evaluate(model, log_z + 1.0, {"test": split.test}, proposal, seed=1)
    good, bad = at_optimum.splits[0], shifted.splits[0]
    yield ("bound order", checks.bound_order("order", good.l_snl, good.l_is),
           checks.bound_order("order", good.l_is + 0.01, good.l_is))
    yield ("bound tight at b = log Z_hat, b shifted by 1 nat",
           checks.bound_tight("tight", good.l_snl, good.l_is),
           checks.bound_tight("tight", bad.l_snl, bad.l_is))

    log_z_quad = checks.quadrature_log_z(model.energy)
    shifted_quad = checks.quadrature_log_z(lambda x: model.energy(x) + 0.1)
    yield ("log Z_hat vs quadrature, energy shifted by 0.1",
           checks.log_z_matches_quadrature(at_optimum.log_z_estimate, good.l_is_se, log_z_quad),
           checks.log_z_matches_quadrature(at_optimum.log_z_estimate, good.l_is_se, shifted_quad))

    proposal_ll = float(np.mean(proposal.log_density(split.test)))
    yield ("above the proposal", checks.above_proposal(proposal_ll + 0.05, split.test),
           checks.above_proposal(proposal_ll - 0.01, split.test))
    generator = checks.checkerboard_log_density(raw.train)
    yield ("below the generator", checks.below_generator(generator - 0.3, generator),
           checks.below_generator(generator + 0.1, generator))
    yield ("no skipped steps", checks.no_skipped_steps(0), checks.no_skipped_steps(1))

    train, _, test = regression1_splits(0)
    exact = checks.regression1_exact(test[0], test[1], train[1])
    yield ("regression level, l_is below 0", checks.regression_level(0.4, exact),
           checks.regression_level(-0.01, exact))
    yield ("regression level, l_is above the generator", checks.regression_level(0.4, exact),
           checks.regression_level(exact + 0.1, exact))

    conditional = ConditionalEnergyModel(PortableRng(0).split("conditional"))
    x, ys = test[0][:8], PortableRng(1).normal(256)
    grid = conditional.energy_grid_shared(x, ys)
    pairs = conditional.energy_pairs(np.repeat(x, ys.size), np.tile(ys, x.size)).reshape(x.size, ys.size)
    planted = grid.copy()
    planted[3, 17] += 1e-6
    yield ("grid vs pairs, one entry perturbed", checks.grid_matches_pairs(grid, pairs),
           checks.grid_matches_pairs(planted, pairs))

    theta = 0.9
    data = (PortableRng(2).normal(2000) + theta).reshape(-1, 1)
    oracle = evaluate(GaussianMeanModel(theta), 0.0, {"test": data}, StandardGaussian(1), seed=3)
    yield ("gaussian oracle, theta off by 10 %",
           checks.gaussian_oracle(oracle.log_z_estimate, oracle.splits[0].l_is_se, theta),
           checks.gaussian_oracle(oracle.log_z_estimate, oracle.splits[0].l_is_se, 1.1 * theta))

    rng = PortableRng(4)
    x_b = rng.uniform(573, -1.5, 1.5)
    y_b = rng.normal(573) + 0.3
    report = eval_regression_l_is(BilinearConditionalModel(theta), (x_b, y_b), StandardGaussian(1),
                                  rng=PortableRng(5).split("evaluate"))
    yield ("bilinear oracle, theta off by 10 %",
           checks.bilinear_oracle(report.l_is, report.l_is_se, theta, x_b, y_b),
           checks.bilinear_oracle(report.l_is, report.l_is_se, 1.1 * theta, x_b, y_b))


def main() -> int:
    import_library()
    status = 0
    for description, correct, planted in cases():
        fine = correct.ok and not planted.ok
        status |= not fine
        print(f"{'ok  ' if fine else 'FAIL'} {description}: correct input {'passes' if correct.ok else 'FAILS'} "
              f"({correct.detail}); planted input {'is rejected' if not planted.ok else 'PASSES'} "
              f"({planted.detail})")
    print("self-test " + ("passed" if status == 0 else "FAILED"))
    return status


if __name__ == "__main__":
    sys.exit(main())
