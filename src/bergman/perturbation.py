"""Independent re-derivation of the subleading coefficient by resolvent calculus.

From a geometry jet this module freezes the first- and second-order
perturbation operators of the rescaled square of the Dirac-type operator as
explicit composites of oscillator primitives, pushes the model kernel
through the six-term second-order resolvent expansion, and reads the
coefficient off at the origin, computing only what the origin values read
(see `compute_F2_terms`).  Nothing here shares code with the closed
formula: agreement of the two routes is the package's flagship certificate.

Conventions used when dispatching frame sums to oscillator primitives
(xi-adapted frame, partner(a) = a + n mod 2n):

* sum_i T(e_i) Op(e_i)   ->  2 sum_a T(d_partner(a)) Op(d_a)
* nabla_0 along d/dxi_j is -b_j/2, along d/dxibar_j is +b_j^+/2,
* multiplication by the radial coordinate Z_a is mul_xi / mul_xibar,
* Clifford actions of forms are taken in the holomorphic frame, where a
  d-form's v-frame components are 2^(d/2) times the coordinate ones.
"""

from __future__ import annotations

from itertools import product
from typing import Callable

from .exterior import B1Result, ExteriorAlgebra, ExteriorEndo
from .geometry import GeometryJet
from .jet_checks import require_valid
from .oscillator import OscillatorContext, TwoPointState, sum_states
from .scalars import ExactScalar, rat
from .series import Series, monomial

Operator = Callable[[TwoPointState], TwoPointState]

# Coefficients of multiplication operators are polynomials in (xi, xibar):
# series in 2n variables, xi_j as variable j and xibar_j as variable n + j.
# The gradient square is the only quartic one.
_CAP = 4
_ZERO = ExactScalar.zero()


def _var(n: int, a: int) -> Series:
    """The coordinate monomial Z_a as a polynomial in (xi, xibar)."""
    return Series.var(2 * n, _CAP, a)


def _zpoly(n: int, rank: int, coeff: Callable[..., ExactScalar]) -> Series:
    """sum over frame labels a_1..a_r of coeff(a_1, .., a_r) Z_a1 ... Z_ar."""
    terms: dict[tuple[int, ...], ExactScalar] = {}
    for labels in product(range(2 * n), repeat=rank):
        c = coeff(*labels)
        if c.is_zero():
            continue
        key = monomial(2 * n, *labels)
        terms[key] = terms[key] + c if key in terms else c
    return Series(2 * n, _CAP, terms)


def _gradient_polys(jet: GeometryJet) -> list[Series]:
    """sum_{k,c} dRL1[k][c][a] Z_k Z_c for each frame label a."""
    return [_zpoly(jet.n, 2, lambda k, c, a=a: jet.dRL1[k][c][a]) for a in range(2 * jet.n)]


def _apply_poly(state: TwoPointState, p: Series) -> TwoPointState:
    n = state.ctx.n
    return state.mul_poly({(e[:n], e[n:]): c for e, c in p.terms.items()})


def _lower(state: TwoPointState, a: int) -> TwoPointState:
    """b_a for a < n, else b^+_(a-n): nabla_0 along d_a without its factor
    -1/2 resp. 1/2, which the operators fold into their coefficients."""
    n = state.ctx.n
    return state.apply_b(a) if a < n else state.apply_bdag(a - n)


# ---------------------------------------------------------------------------
# frame translations for the exterior sector
# ---------------------------------------------------------------------------


def _v_to_xi(n: int, q: int, label: int) -> int:
    """Map a holomorphic-frame label to the xi-frame coordinate label.

    The map is an involution, so it also maps xi-frame labels back.
    """
    if label < n:
        return n + label if label < q else label
    j = label - n
    return j if j < q else n + j


def _clifford_form(alg: ExteriorAlgebra, q: int, degree: int, comp_xi) -> ExteriorEndo:
    """Clifford contraction of a degree-d form given by xi-frame components
    `comp_xi(a_1, .., a_d)`; its v-frame components are 2^(d/2) times those."""
    n = alg.n
    factor = rat(2 ** (degree // 2))

    def comp_v(labels: tuple[int, ...]) -> ExactScalar:
        return comp_xi(*(_v_to_xi(n, q, l) for l in labels)) * factor

    return alg.clifford_of_form(degree, comp_v)


# ---------------------------------------------------------------------------
# the perturbation operators
# ---------------------------------------------------------------------------


def build_O1_prime(jet: GeometryJet, ctx: OscillatorContext) -> Operator:
    """The degree-one derivative coupling built from the curvature gradient.

    Written in creation/annihilation normal order: the creation side carries
    its quadratic coefficient on the left, the annihilation side on the
    right, which makes the vanishing of the kernel-to-kernel block manifest.
    """
    n = jet.n
    # both couplings carry 2/3, folded into the polynomials
    grad = [p.scale(rat("2/3")) for p in _gradient_polys(jet)]
    hplus, hminus = grad[:n], grad[n:]

    def op(state: TwoPointState) -> TwoPointState:
        plus, minus = [], []
        for j in range(n):
            if not hplus[j].is_zero():
                minus.append(_apply_poly(state.apply_bdag(j), hplus[j]))
            if not hminus[j].is_zero():
                plus.append(_apply_poly(state, hminus[j]).apply_b(j))
        return sum_states(state.ctx, plus, minus)

    return op


def build_O1(jet: GeometryJet, ctx: OscillatorContext) -> Operator:
    """First-order operator: gradient-coupled creation/annihilation part plus
    the Clifford action of the transported structure derivative."""
    n = jet.n
    dim = 2 * n
    prime = build_O1_prime(jet, ctx)

    cliff: list[tuple[Series, ExteriorEndo]] = []
    for a in range(dim):
        endo = _clifford_form(ctx.alg, jet.q, 2,
                              lambda b, c, a=a: jet.nablaBJ[a][b][c])
        # -4 pi i times the quarter action, which is half the contraction
        endo = endo.scale(ExactScalar.rational(0, -2, 1))
        if not endo.is_zero():
            cliff.append((_var(n, a), endo))

    def op(state: TwoPointState) -> TwoPointState:
        return sum_states(state.ctx, [prime(state)] + [
            _apply_poly(state.apply_endo(endo), z) for z, endo in cliff])

    return op


def build_O2_prime(jet: GeometryJet, ctx: OscillatorContext) -> Operator:
    """The scalar second-order piece: curvature-quadratic derivative terms,
    second curvature-derivative couplings, the gradient square, and the
    oscillator commutator correction."""
    n = jet.n
    dim = 2 * n
    alg = ctx.alg
    part = lambda a: (a + n) % dim
    # each coefficient of a nabla_0 along d_a carries its factor (see
    # `_lower`), so the operator lowers the state once per label a
    nabla0 = [rat("-1/2") if a < n else rat("1/2") for a in range(dim)]

    # (1/3) <R(Z, e_i) Z, e_j> nabla_i nabla_j ; double frame resolution
    kpoly: dict[tuple[int, int], Series] = {}
    for a in range(dim):
        for b in range(dim):
            p = _zpoly(n, 2, lambda c, d: jet.RTX[c][part(a)][d][part(b)])
            if not p.is_zero():
                kpoly[(a, b)] = p.scale(rat("4/3") * nabla0[a] * nabla0[b])

    # the cubic curvature polynomial sum dRL2[k][l][m][part(a)] Z_k Z_l Z_m of each a
    cubic = [_zpoly(n, 3, lambda k, l, m, a=a: jet.dRL2[k][l][m][part(a)])
             for a in range(dim)]

    # single-derivative coefficients
    single: list[Series] = []
    single_aux: list[list] = [[] for _ in range(dim)]
    for a in range(dim):
        pa = part(a)
        linear = _zpoly(n, 1, lambda c: sum(
            (jet.RTX[c][b][part(b)][pa] for b in range(dim)), _ZERO))
        single.append((linear.scale(rat("4/3")) + cubic[a].scale(rat("-1/4")))
                      .scale(rat(2) * nabla0[a]))
        for c in range(dim):
            mat = jet.RE[c][pa]
            if any(not x.is_zero() for row in mat for x in row):
                single_aux[a].append((_var(n, c), alg.endo_from_aux_matrix(
                    [[x * nabla0[a].scale(-2) for x in row] for row in mat])))

    # scalar multiplication: the divergence sum_a d_a cubic[a] / 2, times -1/4
    # and the resolution factor 2, plus the gradient square, as one polynomial
    grad = _gradient_polys(jet)
    scalar = Series.zero(dim, _CAP)
    for a in range(dim):
        scalar = (scalar + cubic[a].diff(a).scale(rat("-1/4"))
                  + (grad[a] * grad[part(a)]).scale(rat("-2/9")))

    # the commutator correction is -[L0, N] / 12 with N = 2 sum RTX[c][a][d][part(a)]
    # Z_c Z_d; this is N / 12
    commutator_n = _zpoly(n, 2, lambda c, d: sum(
        (jet.RTX[c][a][d][part(a)] for a in range(dim)), _ZERO)).scale(rat("1/6"))

    lowered_labels = sorted({b for _, b in kpoly} | {a for a in range(dim)
                                                     if not single[a].is_zero() or single_aux[a]})

    def op(state: TwoPointState) -> TwoPointState:
        lowered = {a: _lower(state, a) for a in lowered_labels}
        plus = [_apply_poly(_lower(lowered[b], a), p) for (a, b), p in kpoly.items()]
        minus = []
        for a in range(dim):
            if not single[a].is_zero():
                plus.append(_apply_poly(lowered[a], single[a]))
            for z, endo in single_aux[a]:
                plus.append(_apply_poly(lowered[a].apply_endo(endo), z))
        if not scalar.is_zero():
            plus.append(_apply_poly(state, scalar))
        if not commutator_n.is_zero():
            minus.append(_apply_poly(state, commutator_n).apply_L0())
            plus.append(_apply_poly(state.apply_L0(), commutator_n))
        return sum_states(state.ctx, plus, minus)

    return op


def build_psi_endo(jet: GeometryJet, alg: ExteriorAlgebra) -> ExteriorEndo:
    """Quarter of the Clifford action of the torsion 4-form."""
    psi = _clifford_form(alg, jet.q, 4, lambda a, b, c, d: jet.dTas[a][b][c][d])
    return psi.scale(rat("1/4"))


def build_O2(jet: GeometryJet, ctx: OscillatorContext) -> Operator:
    """Second-order operator: the scalar piece plus curvature couplings of
    the spinor connection, the structure-map second derivative and the
    torsion 4-form action.  O2 reaches b_1 only as P^perp O2 P, and
    P^perp c P = 0 for a scalar c, so the scalar-curvature shift is left out."""
    n, q = jet.n, jet.q
    dim = 2 * n
    alg = ctx.alg
    prime = build_O2_prime(jet, ctx)

    # spinor-connection curvature coupled to b / b+: its quarter action plus
    # half the trace.  RB and trRT10 are skew in (a, b) (`validate_jet`), so
    # the coupling of (b, a) is that of (a, b) negated, and the diagonal is zero
    rbl: dict[tuple[int, int], ExteriorEndo] = {}
    for a in range(dim):
        for b in range(dim):
            if b <= a:
                if (b, a) in rbl:
                    rbl[(a, b)] = -rbl[(b, a)]
                continue
            endo = _clifford_form(alg, q, 2, lambda c, d, a=a, b=b: jet.RB[a][b][c][d])
            tr = jet.trRT10[a][b]
            if not tr.is_zero():
                endo = endo + alg.scalar_endo(tr)
            if not endo.is_zero():
                rbl[(a, b)] = endo.scale(rat("1/2"))

    # structure-map second derivative, Clifford action, coefficient -2 pi i.
    # The forms of (a, b) and (b, a) multiply the same monomial Z_a Z_b, and
    # the Clifford map is linear: one form per unordered pair, added first
    d2j = jet.nablaB2J
    d2j_endo: list[tuple[Series, ExteriorEndo]] = []
    for a in range(dim):
        for b in range(a, dim):
            form = ((lambda c, d, a=a: d2j[a][a][c][d]) if a == b else
                    (lambda c, d, a=a, b=b: d2j[a][b][c][d] + d2j[b][a][c][d]))
            endo = _clifford_form(alg, q, 2, form)
            if not endo.is_zero():
                # -2 pi i times the quarter action, which is half the contraction
                d2j_endo.append((_var(n, a) * _var(n, b),
                                 endo.scale(ExactScalar.rational(0, -1, 1))))

    # constant Clifford blocks
    mixed_form = _clifford_form(alg, q, 2, lambda a, b: jet.trRT10[a][b].scale("1/2"))
    # (1/2) R^E(e_l, e_m) c(e_l) c(e_m) with prefactor 2: twice the quarter
    # action, so the full contraction, one aux-matrix entry (r, s) at a time
    re_cliff = alg.zero_endo()
    for r, s in product(range(jet.rk_e), repeat=2):
        form = _clifford_form(alg, q, 2, lambda a, b, r=r, s=s: jet.RE[a][b][r][s])
        if not form.is_zero():
            unit = [[rat(1) if (i, j) == (r, s) else _ZERO for j in range(jet.rk_e)]
                    for i in range(jet.rk_e)]
            re_cliff = re_cliff + form @ alg.endo_from_aux_matrix(unit)
    psi = build_psi_endo(jet, alg)
    const_endo = mixed_form + re_cliff - psi

    zvars = [_var(n, a) for a in range(dim)]

    def op(state: TwoPointState) -> TwoPointState:
        plus, minus = [prime(state)], []
        for (a, b), endo in rbl.items():
            if b < n:
                minus.append(_apply_poly(state.apply_bdag(b).apply_endo(endo), zvars[a]))
            else:
                plus.append(_apply_poly(state.apply_b(b - n).apply_endo(endo), zvars[a]))
        for z, endo in d2j_endo:
            plus.append(_apply_poly(state.apply_endo(endo), z))
        if not const_endo.is_zero():
            plus.append(state.apply_endo(const_endo))
        return sum_states(state.ctx, plus, minus)

    return op


# ---------------------------------------------------------------------------
# the six-term expansion
# ---------------------------------------------------------------------------


def engine_context(jet: GeometryJet) -> OscillatorContext:
    return OscillatorContext(jet.n, jet.q, jet.rk_e)


def compute_F2_terms(jet: GeometryJet) -> dict[str, ExteriorEndo]:
    """Origin values of the six resolvent-expansion terms, keyed by name.

    Only what the origin values read is computed.  No primitive the
    operators are made of (apply_b, apply_bdag, mul_xi, mul_xibar,
    apply_endo, apply_L0, scale), and none of the projections and
    resolvents, lowers the primed multi-indices (gamma, delta) of a term,
    and the origin reads only gamma = delta = 0.  So the double-resolved,
    second-order and iterated-resolvent terms are computed modulo primed
    terms: their inputs are moved to the quotient context
    (`restrict_second_zero`), where every state drops its primed terms as it
    is built and `mul_poly` never forms a primed image.  The kernel sandwich
    composes the resolved state with its adjoint, a product that reads its
    primed terms, so that state stays a full one; the sandwich is evaluated
    at the origin without forming the product
    (`PolyGaussianForm.compose_origin`).
    """
    ctx = engine_context(jet)
    o1 = build_O1(jet, ctx)
    o2 = build_O2(jet, ctx)
    pn = ctx.kernel_projector()

    # the sandwich composes resolved_once with its adjoint: a full state
    resolved_once = o1(pn).project_Nperp().resolvent_L20()
    rp = resolved_once.to_poly()
    # t1, t2 and t6 are read at the origin only: quotient states
    free = resolved_once.restrict_second_zero()
    t1 = o1(free).project_Nperp().resolvent_L20()
    t2 = o2(pn.restrict_second_zero()).project_Nperp().resolvent_L20()
    t6 = o1(free.resolvent_L20()).project_N()

    v1 = t1.evaluate_origin()
    v2 = t2.evaluate_origin()
    return {
        "double-resolved-gradient": v1,
        "resolved-second-order": v2,
        "double-resolved-gradient-adjoint": v1.adjoint(),
        "resolved-second-order-adjoint": v2.adjoint(),
        "kernel-sandwich": rp.compose_origin(rp.adjoint()),
        "iterated-resolvent": t6.evaluate_origin(),
    }


def b1_from_terms(terms: dict[str, ExteriorEndo], q: int) -> B1Result:
    """Sum the six expansion terms and compress the sum to the degree-q sector."""
    f2 = (terms["double-resolved-gradient"]
          - terms["resolved-second-order"]
          + terms["double-resolved-gradient-adjoint"]
          - terms["resolved-second-order-adjoint"]
          + terms["kernel-sandwich"]
          - terms["iterated-resolvent"])
    ie = f2.alg.project_degree(q)
    return B1Result(ie @ f2 @ ie, "engine")


def b1_engine(jet: GeometryJet, check: bool = True) -> B1Result:
    """The engine route: the expansion terms at the origin, summed and compressed."""
    if check:
        require_valid(jet)
    return b1_from_terms(compute_F2_terms(jet), jet.q)
