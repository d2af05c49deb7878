"""Validation and exact tensor-identity checks for geometry jets.

Everything here is a pointwise contraction of jet components in the
xi-adapted frame.  Index conventions: a < n is an unbarred slot, a + n its
conjugate; the metric at the point pairs a with a+n (value 1/2), so frame
sums over an orthonormal real frame turn into partner contractions with a
factor 2 per slot pair.  Normalized-frame components (the orthonormal
u-frame) differ from coordinate components by sqrt(2) per slot; all
quantities below involve an even total number of slots, so only integer
powers of 2 appear.

Two primitives carry the module.  `_pairing` computes every partner
contraction.  `CheckReport.add_slot_check` runs every check that holds slot
by slot, so every failed check names its first failing slot in its detail;
a check of one equation (`CheckReport.add_equal`) gives both sides instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from operator import eq

from .errors import InvalidJetError
from .scalars import ExactScalar, sum_products

_ZERO = ExactScalar.zero()
_I = ExactScalar.i()


@dataclass
class CheckReport:
    """Outcome of a validation or identity run; exact per-check verdicts."""

    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, ok, detail))

    def add_equal(self, name: str, lhs: ExactScalar, rhs: ExactScalar) -> None:
        ok = lhs == rhs
        detail = "" if ok else f"lhs = {lhs} ; rhs = {rhs}"
        self.add(name, ok, detail)

    def add_slot_check(self, name: str, slots, holds, show=None) -> None:
        """Add check `name`: `holds(*slot)` for every slot of the lazy iterable
        `slots`.  A failure's detail names the first failing slot, followed by
        `show(*slot)` when given."""
        bad = next((slot for slot in slots if not holds(*slot)), None)
        detail = "" if bad is None else \
            f"slot {bad}" + (f": {show(*bad)}" if show else "")
        self.add(name, bad is None, detail)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> list[tuple[str, str]]:
        return [(name, detail) for name, ok, detail in self.checks if not ok]

    def to_json(self) -> dict[str, object]:
        return {
            "ok": self.ok,
            "checks": [
                {"name": n, "ok": ok, **({"detail": d} if d else {})}
                for n, ok, d in self.checks
            ],
        }


@dataclass(frozen=True)
class LambdaScalars:
    """The two contraction scalars and the curvature 2-form entering the formula.

    `contracted_divergence` is the double contraction of d of the contracted
    torsion 1-form; `double_contraction` the full double contraction of the
    torsion 4-form; `p_form[a][b]` the scalar part of the curvature 2-form
    aggregate (auxiliary-bundle curvature is added by the consumer).
    """

    contracted_divergence: ExactScalar
    double_contraction: ExactScalar
    p_form: tuple[tuple[ExactScalar, ...], ...]


def _indices(dim: int, rank: int):
    return product(range(dim), repeat=rank)


def _total(terms) -> ExactScalar:
    return sum(terms, _ZERO)


# ---------------------------------------------------------------------------
# norm and contraction helpers (coordinate-frame components in)
# ---------------------------------------------------------------------------


def _pairing(t, u, n: int, *ranges: range) -> ExactScalar:
    """sum over the slots (a, b, c) in the product of `ranges` of t[a][b][c]
    times u at the partner slots, the partner of a being (a + n) mod 2n: t
    against u through the metric at the point, up to its factor 2 per slot
    pair."""
    p = [(a + n) % (2 * n) for a in range(2 * n)]
    return sum_products([(v, u[p[a]][p[b]][p[c]]) for a, b, c in product(*ranges)
                         if not (v := t[a][b][c]).is_zero()])


def _block(n: int, barred: bool) -> range:
    return range(n, 2 * n) if barred else range(n)


def frame_norm3(t, n: int) -> ExactScalar:
    """|T|^2 = sum over an orthonormal real frame of squared 3-slot components."""
    return _pairing(t, t, n, *[range(2 * n)] * 3).scale(8)


def s_norm(sb, n: int, first_barred: bool) -> ExactScalar:
    """sum over i,j,k of |<S(u-bar_i or u_i) u_j, u_k>|^2 in normalized frame."""
    return _pairing(sb, sb, n, _block(n, first_barred), range(n), range(n)).scale(8)


def mixed_block_norm(t, n: int, q: int, first_barred: bool) -> ExactScalar:
    """sum_i sum_{j<=q<k} |<(nabla_{.} J) u_j, u_k>|^2 in normalized frame."""
    return _pairing(t, t, n, _block(n, first_barred), range(q), range(q, n)).scale(8)


def lambda_scalars(jet) -> LambdaScalars:
    """Exact evaluation of the torsion contraction scalars and the 2-form P.

    The contracted torsion 1-form is computed as a tensor (torsion against
    the inverse-symplectic bivector), its covariant differential assembled
    from jet fields, and both contractions are taken against the frame
    bivector at the point, matching the operational definitions the identity
    suite pins down.
    """
    n = jet.n
    dim = 2 * n
    r = range(dim)

    def trace(t, a, b):  # sum_j t[j][j+n][a][b]
        return _total(t[j][n + j][a][b] for j in range(n))

    # (nabla_U beta)(V) = 2 sum_j covTas[U][j][j+n][V]
    #                     - 2 i sum_{a,b} nablaXJ[U][pb][pa] Tas[a][b][V],
    # contracted as sum_i (nabla_i beta)(i+n) - (nabla_{i+n} beta)(i).  The
    # second sums pair Tas[a][b][c] with nablaXJ[pc][pb][pa], the reversed
    # nablaXJ at the partner slots: + for c >= n, - for c < n.
    x = jet.nablaXJ
    x_rev = [[[x[c][b][a] for c in r] for b in r] for a in r]
    cov = _total(jet.covTas[i][j][n + j][n + i] - jet.covTas[n + i][j][n + j][i]
                 for i, j in _indices(n, 2))
    corr = _pairing(jet.Tas, x_rev, n, r, r, _block(n, True)) \
        - _pairing(jet.Tas, x_rev, n, r, r, _block(n, False))
    lam_d = (cov.scale(2) - corr.scale(0, 2)).scale(-4)
    lam_lam = _total(trace(jet.dTas, i, n + i) for i in range(n)).scale(-16)
    p_form = tuple(tuple(trace(jet.RB, a, b)
                         + (trace(jet.dTas, a, b) + jet.trRT10[a][b]).scale("1/2") for b in r)
                   for a in r)
    return LambdaScalars(lam_d, lam_lam, p_form)


def _add_divergence_relation(rep: CheckReport, jet, lam: LambdaScalars) -> None:
    """Add the contracted-divergence relation to `rep`: the contracted
    divergence of `lam`, the one reading of covTas by either route, against
    the double contraction of dTas and the pairings of SB with nablaXJ."""
    n = jet.n
    hi, lo = [_block(n, True)] * 3, [_block(n, False)] * 3
    mix = _pairing(jet.SB, jet.nablaXJ, n, *hi) - _pairing(jet.SB, jet.nablaXJ, n, *lo)
    rep.add_equal("contracted-divergence-relation",
                  lam.contracted_divergence.scale("1/4"),
                  lam.double_contraction.scale("1/16") + mix.scale(0, 4))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def require_valid(jet) -> None:
    """Raise InvalidJetError naming every failed check of `validate_jet`."""
    rep = validate_jet(jet)
    if not rep.ok:
        raise InvalidJetError("; ".join(name for name, _ in rep.failures()))


def validate_jet(jet) -> CheckReport:
    """Structural consistency of a jet: symmetries, types, derived relations."""
    n, q = jet.n, jet.q
    dim = 2 * n
    p = [(a + n) % dim for a in range(dim)]
    rep = CheckReport()
    check = rep.add_slot_check
    tas, x, bj, rtx, rb = jet.Tas, jet.nablaXJ, jet.nablaBJ, jet.RTX, jet.RB
    b2j, d1, d2, dtas = jet.nablaB2J, jet.dRL1, jet.dRL2, jet.dTas

    def reality(name, t, rank, anti=False):
        """Each entry against the conjugate of its partner entry, in index
        order.  The relation is symmetric, so each pair is tested once, from
        the entry whose first slot is unbarred: the first failing slot is
        the same."""
        kind, sign = ("anti-reality", -1) if anti else ("reality", 1)
        holds = (lambda a, b: t[a][b].conjugates(t[p[a]][p[b]], sign),
                 lambda a, b, c: t[a][b][c].conjugates(t[p[a]][p[b]][p[c]], sign),
                 lambda a, b, c, d: t[a][b][c][d].conjugates(t[p[a]][p[b]][p[c]][p[d]], sign))
        check(f"{kind}[{name}]", product(range(n), *[range(dim)] * (rank - 1)), holds[rank - 2])

    reality("Tas", tas, 3)
    reality("nablaXJ", x, 3)
    reality("nablaBJ", bj, 3)
    reality("RTX", rtx, 4)
    reality("RB", rb, 4)
    # the line-bundle curvature form is imaginary valued, so its derivatives
    # pick up a sign under conjugation
    reality("dRL1", d1, 3, anti=True)

    # A relation between two entries, or a sum over the cyclic orders of
    # three slots, is tested once per pair of entries or per cyclic orbit:
    # it holds trivially at the other slots.
    check("riemann-antisym-front", _indices(dim, 4),
          lambda a, b, c, d: a > b or rtx[a][b][c][d].negates(rtx[b][a][c][d]))
    check("riemann-antisym-back", _indices(dim, 4),
          lambda a, b, c, d: c > d or rtx[a][b][c][d].negates(rtx[a][b][d][c]))
    check("riemann-pair-symmetry", _indices(dim, 4),
          lambda a, b, c, d: (a, b) > (c, d) or rtx[a][b][c][d] == rtx[c][d][a][b])
    check("riemann-first-bianchi", _indices(dim, 4),
          lambda a, b, c, d: a > b or a > c
          or (rtx[a][b][c][d] + rtx[b][c][a][d] + rtx[c][a][b][d]).is_zero())

    ric_scalar = _total(rtx[c][a][p[a]][p[c]] for a, c in _indices(dim, 2)).scale(4)
    rep.add_equal("scalar-curvature-contraction", jet.rX, ric_scalar)

    check("torsion-totally-antisymmetric", _indices(dim, 3),
          lambda a, b, c: tas[a][b][c].negates(tas[b][a][c])
          and tas[a][b][c].negates(tas[a][c][b]))
    minus_half = ExactScalar.rational("-1/2")
    check("s-tensor-from-torsion", _indices(dim, 3),
          lambda a, b, c: jet.SB[a][b][c] == tas[a][b][c] * minus_half)
    check("four-form-totally-antisymmetric", _indices(dim, 4),
          lambda a, b, c, d: dtas[a][b][c][d].negates(dtas[b][a][c][d])
          and dtas[a][b][c][d].negates(dtas[a][c][b][d])
          and dtas[a][b][c][d].negates(dtas[a][b][d][c]))

    check("structure-derivative-cyclic", _indices(dim, 3),
          lambda a, b, c: a > b or a > c or (x[a][b][c] + x[b][c][a] + x[c][a][b]).is_zero())
    check("structure-derivative-pure-type", _indices(dim, 3),
          lambda a, b, c: (a < n) == (b < n) == (c < n) or x[a][b][c].is_zero())

    zi = [n + j if j < q else j for j in range(n)]     # d/dz_j in xi labels
    zbi = [j if j < q else n + j for j in range(n)]    # its conjugate
    bj_slots = lambda: product(range(dim), range(n), range(n))
    check("bismut-derivative-preserves-types", bj_slots(),
          lambda u, j, k: bj[u][zi[j]][zi[k]].is_zero() and bj[u][zbi[j]][zbi[k]].is_zero())
    check("bismut-derivative-exchanges-signature-blocks", bj_slots(),
          lambda u, j, k: (j < q) != (k < q) or bj[u][zi[j]][zbi[k]].is_zero())

    jdiag = [_I if c < n else -_I for c in range(dim)]
    jsum = [[u + v for v in jdiag] for u in jdiag]

    def sides(a, b, c, d):
        return b2j[a][b][c][d] - b2j[b][a][c][d], rb[a][b][c][d] * jsum[c][d]

    def holds(a, b, c, d):
        if jsum[c][d].is_zero():  # mixed c, d: the relation is a symmetry of nablaB2J
            return b2j[a][b][c][d] == b2j[b][a][c][d]
        lhs, rhs = sides(a, b, c, d)
        return lhs == rhs

    check("second-derivative-antisymmetrization", _indices(dim, 4), holds,
          lambda *slot: "{} vs {}".format(*sides(*slot)))

    check("curvature-derivative-antisym", _indices(dim, 3),
          lambda k, a, b: d1[k][a][b].negates(d1[k][b][a]))
    check("curvature-second-derivative-symmetries", _indices(dim, 4),
          lambda k, l, a, b: d2[k][l][a][b] == d2[l][k][a][b]
          and d2[k][l][a][b].negates(d2[k][l][b][a]))

    minus_two_pi_i = ExactScalar.rational(0, -2, 1)
    check("curvature-derivative-matches-structure-derivative", _indices(dim, 3),
          lambda k, a, b: d1[k][a][b] == minus_two_pi_i * x[k][a][b])

    # the engine's Clifford map reads these forms on increasing label words
    # only, so it would drop the symmetric part of a form that is not skew;
    # the slots of trRT10 and RE, of nablaBJ, and of RB and nablaB2J in turn
    tr, re = jet.trRT10, jet.RE

    def unskewed(*s) -> list[str]:
        """The fields that are not skew in the last two slots of s."""
        *front, c, d = s
        if len(s) == 4:
            a, b = front
            pairs = [("RB", rb[a][b][c][d], rb[a][b][d][c]),
                     ("nablaB2J", b2j[a][b][c][d], b2j[a][b][d][c])]
        elif len(s) == 3:
            pairs = [("nablaBJ", bj[front[0]][c][d], bj[front[0]][d][c])]
        else:
            pairs = [("trRT10", tr[c][d], tr[d][c]), *(("RE", re[c][d][e][f], re[d][c][e][f])
                                                      for e, f in _indices(jet.rk_e, 2))]
        return list(dict.fromkeys(name for name, u, v in pairs if not u.negates(v)))

    check("clifford-forms-skew", (s for rank in (2, 3, 4) for s in _indices(dim, rank)
                                  if s[-2] <= s[-1]),
          lambda *s: not unskewed(*s), lambda *s: ", ".join(unskewed(*s)))
    # the engine quantizes RB once per unordered front pair and negates it for
    # the other order; the antisymmetrization check above sees RB only where
    # jsum is nonzero
    check("bismut-curvature-antisym-front", _indices(dim, 4),
          lambda a, b, c, d: a > b or rb[a][b][c][d].negates(rb[b][a][c][d]))
    # the routes read different entries of these forms, so an entry that is
    # not the conjugate of its partner makes them disagree
    reality("dTas", dtas, 4)
    reality("trRT10", tr, 2, anti=True)
    # the closed form reads covTas only through the contracted divergence, and
    # the engine not at all, so a covTas that keeps its own slot relations and
    # breaks this one splits the routes too
    _add_divergence_relation(rep, jet, lambda_scalars(jet))
    # a nablaB2J entry that is not the conjugate of its partner splits the
    # routes too, and the checks above see only differences and skews of its
    # entries
    reality("nablaB2J", b2j, 4)
    return rep


# ---------------------------------------------------------------------------
# the exact identity suite
# ---------------------------------------------------------------------------


def identity_suite(jet) -> CheckReport:
    """Both sides of each structural identity, evaluated exactly from the jet."""
    n, q = jet.n, jet.q
    rep = CheckReport()
    b2j, rtx = jet.nablaB2J, jet.RTX

    norm_b = frame_norm3(jet.nablaBJ, n)
    norm_x = frame_norm3(jet.nablaXJ, n)
    s_uu = s_norm(jet.SB, n, first_barred=False)
    s_bu = s_norm(jet.SB, n, first_barred=True)
    lam = lambda_scalars(jet)

    rep.add_equal("mixed-block-norm-barred",
                  mixed_block_norm(jet.nablaBJ, n, q, first_barred=True),
                  s_bu.scale(2))
    rep.add_equal("mixed-block-norm-unbarred",
                  mixed_block_norm(jet.nablaBJ, n, q, first_barred=False),
                  norm_b.scale("1/4") - s_bu.scale(2))

    curv_diff = _total(jet.RB[i][n + i][j][n + j] - rtx[i][n + i][j][n + j]
                       for i, j in _indices(n, 2)).scale(4)
    rep.add_equal("curvature-difference-vs-torsion-squares",
                  curv_diff,
                  s_uu - s_bu + lam.double_contraction.scale("1/16"))

    # <S(._i) ._j , (nabla_{conj ._i} J) conj ._j> summed over i, j, both
    # unbarred minus both barred
    lo, hi = _block(n, False), _block(n, True)
    r = range(2 * n)
    mix = _pairing(jet.SB, jet.nablaXJ, n, lo, lo, r) - _pairing(jet.SB, jet.nablaXJ, n, hi, hi, r)
    rep.add_equal("norm-difference-decomposition",
                  (norm_b - norm_x).scale("1/8"),
                  s_uu + s_bu + mix.scale(0, 4))

    _add_divergence_relation(rep, jet, lam)

    rep.add_equal("curvature-difference-master",
                  curv_diff,
                  (norm_b - norm_x).scale("1/8")
                  + lam.contracted_divergence.scale("1/4")
                  - s_bu.scale(2))

    rep.add_equal("second-derivative-trace-norm",
                  _total(b2j[i][n + i][j][n + j] for i, j in _indices(n, 2)).scale(0, 1),
                  norm_b.scale("1/16"))
    rep.add_equal("holomorphic-pair-curvature-norm",
                  _total(rtx[i][j][n + i][n + j] for i, j in _indices(n, 2)),
                  norm_x.scale("1/32"))

    if jet.is_torsion_free():
        def mixed(j, k):
            return _total(b2j[n + i][i][n + j][n + k] for i in range(n))

        def vs_curvature(j, k):
            return (_total(b2j[i][n + i][n + j][n + k] for i in range(n)),
                    _total(rtx[i][n + i][n + j][n + k] for i in range(n)).scale(0, -2))

        rep.add_slot_check("kahler-mixed-second-derivative-vanishes", _indices(n, 2),
                           lambda j, k: mixed(j, k).is_zero(), mixed)
        rep.add_slot_check("kahler-second-derivative-vs-curvature", _indices(n, 2),
                           lambda j, k: eq(*vs_curvature(j, k)),
                           lambda j, k: "{} vs {}".format(*vs_curvature(j, k)))
    return rep
