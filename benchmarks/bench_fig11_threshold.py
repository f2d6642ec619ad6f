"""Regenerate Fig. 11: LDPJoinSketch+ AE vs frequent-item threshold theta.

Paper shape: U-shaped error.  A tiny theta admits noise-level items into
the frequent set (inflating the removed mass); a huge theta leaves the set
empty, so no collision mitigation happens.  The sweet spot depends on the
data scale — at laptop scale it sits around theta ~ 1e-2 rather than the
paper's 1e-3 (the LDP noise floor is relatively higher; see "Scaled-down
stream sizes" under README's "Deviations from the paper").
"""

from repro.experiments.figures import fig11_threshold

from conftest import BENCH_SCALE, BENCH_SEED


def test_fig11_threshold(regenerate):
    table = regenerate(
        "fig11",
        fig11_threshold,
        scale=BENCH_SCALE,
        trials=5,
        seed=BENCH_SEED,
    )
    thetas = table.column("theta")
    fi_sizes = table.column("fi_size")
    assert thetas == sorted(thetas)
    # The frequent-item set shrinks with theta: far fewer items at the
    # largest threshold than at the smallest.  (Pairwise monotonicity does
    # not hold in the noise-flooded left arm, where the FI size hovers at
    # a large near-constant value.)
    assert fi_sizes[-1] < 0.01 * fi_sizes[0] + 10
    # The extreme right (theta=0.1, empty FI) must not be the best point -
    # otherwise separation would be pointless at every theta.
    errors = table.column("ae")
    assert min(errors) < errors[-1] or min(errors) < errors[0]
