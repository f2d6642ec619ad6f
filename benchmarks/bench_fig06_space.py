"""Regenerate Fig. 6: AE vs sketch space on Zipf(2.0), eps=10.

Paper shape: error falls as space grows; at equal space LDPJoinSketch(+)
beats Apple-HCMS.  At laptop scale the collision-dominated methods
(Apple-HCMS with calibrated read-out) still show the falling trend, while
LDPJoinSketch is already at its LDP-noise floor — more columns spread the
same reports thinner, so its curve is flat (see "Scaled-down stream
sizes" under README's "Deviations from the paper").  The
dominance of LDPJoinSketch over Apple-HCMS at every space level is the
shape assertion here.
"""

from repro.experiments.figures import fig6_space

from conftest import BENCH_SCALE, BENCH_SEED, BENCH_TRIALS


def test_fig6_space(regenerate):
    table = regenerate(
        "fig6",
        fig6_space,
        scale=BENCH_SCALE,
        trials=BENCH_TRIALS,
        seed=BENCH_SEED,
    )
    # The collision-dominated Apple-HCMS series improves with space.
    hcms = table.filtered(method="Apple-HCMS")
    by_width = dict(zip(hcms.column("m"), hcms.column("ae")))
    assert by_width[max(by_width)] < by_width[min(by_width)]
    # At every space level the paper's method dominates Apple-HCMS.
    ldpjs = dict(
        zip(
            table.filtered(method="LDPJoinSketch").column("m"),
            table.filtered(method="LDPJoinSketch").column("ae"),
        )
    )
    for m, hcms_ae in by_width.items():
        assert ldpjs[m] < hcms_ae
    # Space accounting is monotone in m for every method.
    for method in ("Apple-HCMS", "LDPJoinSketch", "LDPJoinSketch+"):
        series = table.filtered(method=method)
        pairs = sorted(zip(series.column("m"), series.column("space_kb")))
        assert all(s1 < s2 for (_, s1), (_, s2) in zip(pairs, pairs[1:]))
