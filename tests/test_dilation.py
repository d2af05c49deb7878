"""The dilation: the pipeline and both routes are exactly graded.

Give the potential's cubic coefficients weight 1 and its quartic and twist
coefficients weight 2 (the Ma-Marinescu rescaling Z -> Z / sqrt(p)).  Then
the jet fields `dRL1`, `nablaXJ`, `nablaBJ`, `Tas` and `SB` have weight 1,
every other field and `rX` weight 2, and `b_1` has weight 2 as a function of
the jet.  A finite table of potentials proves the routes agree for a whole
signature only if nothing in the pipeline or a route has a term of another
weight, such as a cubic times a quartic coefficient; scaling every datum by
its weight's power of t, for two values of t, catches such a term exactly.
"""

import random

import pytest

from bergman.closed_form import b1_formula
from bergman.geometry import _TENSOR_FIELDS, GeometryJet, jet_from_potential, parse_potential
from bergman.geometry import random_potential
from bergman.perturbation import b1_engine
from bergman.scalars import ExactScalar, rat
from bergman.series import Series

WEIGHT_ONE = ("dRL1", "nablaXJ", "nablaBJ", "Tas", "SB")
TWIST = ("1/2", "-1/3", "1/4")


def _twist(n: int, t: int = 1) -> Series:
    """The twist potential of `jet_cache`, times t^2."""
    return parse_potential({f"z{j + 1} zb{j + 1}": [{"pi_pow": 1, "re": c, "im": "0"}]
                            for j, c in enumerate(TWIST[:n])}, n).scale(rat(t * t))


def _dilated(phi: Series, t: int) -> Series:
    """The cubic terms of `phi` times t, the quartic ones times t^2."""
    return Series(phi.nvars, phi.cap,
                  {e: c * rat(t ** max(sum(e) - 2, 0)) for e, c in phi.terms.items()})


def _scaled(x, c: ExactScalar):
    return x * c if isinstance(x, ExactScalar) else tuple(_scaled(y, c) for y in x)


def _dilate_jet(jet: GeometryJet, t: int) -> GeometryJet:
    """Every field of `jet` times t to the power of its weight."""
    fields = {name: _scaled(getattr(jet, name), rat(t if name in WEIGHT_ONE else t * t))
              for name in _TENSOR_FIELDS}
    return GeometryJet(n=jet.n, q=jet.q, rk_e=jet.rk_e, rX=jet.rX * rat(t * t), **fields)


@pytest.mark.parametrize("n,q,rk_e,twist", [(2, 1, 1, False), (3, 2, 1, False), (3, 1, 2, True)])
def test_the_pipeline_is_graded(jet_cache, n, q, rk_e, twist):
    jet = jet_cache("random", n, q, 5, rk_e=rk_e, twist=TWIST[:n] if twist else None)
    for t in (2, 3):
        got = jet_from_potential(_dilated(random_potential(n, q, 5), t),
                                 _twist(n, t) if twist else None, n=n, q=q, rk_e=rk_e)
        assert got == _dilate_jet(jet, t), t


def _arbitrary_jet(n: int, q: int, rk_e: int, seed: int) -> GeometryJet:
    """A jet whose every entry is a random Gaussian rational times pi^0, pi or
    pi^2, with none of the relations a pipeline jet satisfies."""
    rng = random.Random(seed)

    def entry() -> ExactScalar:
        return ExactScalar.rational(f"{rng.randint(-3, 3)}/{rng.randint(1, 4)}",
                                    f"{rng.randint(-3, 3)}/{rng.randint(1, 4)}", rng.randint(0, 2))

    def tensor(shape):
        return entry() if not shape else tuple(tensor(shape[1:]) for _ in range(shape[0]))

    fields = {name: tensor((2 * n,) * rank + ((rk_e, rk_e) if name == "RE" else ()))
              for name, rank in _TENSOR_FIELDS.items()}
    return GeometryJet(n=n, q=q, rk_e=rk_e, rX=entry(), **fields)


@pytest.mark.parametrize("n,q,rk_e", [(2, 1, 2), (3, 2, 1)])
@pytest.mark.parametrize("route", [b1_formula, b1_engine], ids=["closed-form", "engine"])
def test_the_routes_are_graded(route, n, q, rk_e):
    jet = _arbitrary_jet(n, q, rk_e, seed=11)
    assert any(not x.is_zero() for row in jet.RE for m in row for r in m for x in r)
    b1 = route(jet, check=False).endo
    assert not b1.is_zero()
    for t in (2, 3):
        assert route(_dilate_jet(jet, t), check=False).endo == b1.scale(rat(t * t)), t
