"""Private similarity computation for data valuation (intro scenario 1).

A data market wants to price a seller's dataset by how similar it is to a
buyer's — without either side revealing raw records.  The inner product of
two frequency vectors (exactly the join size) is the core of cosine
similarity:

    cos(A, B) = <f_A, f_B> / (||f_A|| * ||f_B||)

Under LDP all three quantities come out of one :class:`repro.api.JoinSession`:
<f_A, f_B> is the cross join size and each squared norm is a self-join
size (second frequency moment, estimable from the same sketches).

Run:  python examples/private_similarity.py
"""

import numpy as np

from repro import JoinSession, SketchParams
from repro.data import ZipfGenerator
from repro.join import FrequencyVector


def private_cosine(values_a, values_b, params, seed):
    """Estimate cos(A, B) from one LDP collection session."""
    session = JoinSession(params, seed=seed)
    session.collect("buyer", values_a)
    session.collect("seller", values_b)
    inner = session.estimate("buyer", "seller").estimate
    norm_a = session.second_moment("buyer")   # debiased ||f_A||^2
    norm_b = session.second_moment("seller")
    if norm_a <= 0 or norm_b <= 0:
        return 0.0
    return inner / np.sqrt(norm_a * norm_b)


def exact_cosine(values_a, values_b, domain):
    fa = FrequencyVector.from_values(values_a, domain)
    fb = FrequencyVector.from_values(values_b, domain)
    return fa.inner(fb) / np.sqrt(float(fa.second_moment) * float(fb.second_moment))


def main() -> None:
    domain = 8192
    params = SketchParams(k=18, m=2048, epsilon=4.0)

    # The buyer's interest profile.
    buyer = ZipfGenerator(domain, alpha=1.4).sample(300_000, rng=1)

    # Three candidate seller datasets of varying relevance.
    sellers = {
        "seller-similar  (same population)": ZipfGenerator(domain, alpha=1.4).sample(300_000, rng=2),
        "seller-related  (shifted skew)": ZipfGenerator(domain, alpha=1.1).sample(300_000, rng=3),
        "seller-unrelated (permuted ids)": ZipfGenerator(
            domain, alpha=1.4, shuffle_seed=99
        ).sample(300_000, rng=4),
    }

    print(f"{'candidate':38s} {'exact cos':>10s} {'private cos':>12s}")
    exact, private = {}, {}
    for position, (name, seller_values) in enumerate(sellers.items()):
        exact[name] = exact_cosine(buyer, seller_values, domain)
        private[name] = private_cosine(buyer, seller_values, params, seed=position)
        print(f"{name:38s} {exact[name]:10.4f} {private[name]:12.4f}")

    if sorted(sellers, key=exact.get) == sorted(sellers, key=private.get):
        print("\nThe private ranking matches the exact ranking: the market can")
        print("price the candidates without seeing a single raw record.")
    else:
        print("\nThe private ranking differs from the exact ranking: at")
        print(f"epsilon = {params.epsilon:g} the closest candidates lie within the noise.")


if __name__ == "__main__":
    main()
