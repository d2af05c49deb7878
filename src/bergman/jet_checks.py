"""Validation and exact tensor-identity checks for geometry jets.

Everything here is a pointwise contraction of jet components in the
xi-adapted frame.  Index conventions: a < n is an unbarred slot, a + n its
conjugate; the metric at the point pairs a with a+n (value 1/2), so frame
sums over an orthonormal real frame turn into partner contractions with a
factor 2 per slot pair.  Normalized-frame components (the orthonormal
u-frame) differ from coordinate components by sqrt(2) per slot; all
quantities below involve an even total number of slots, so only integer
powers of 2 appear.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice, product

from .errors import InvalidJetError
from .scalars import ExactScalar

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


def _allzero(t) -> bool:
    if isinstance(t, ExactScalar):
        return t.is_zero()
    return all(_allzero(x) for x in t)


# ---------------------------------------------------------------------------
# norm and contraction helpers (coordinate-frame components in)
# ---------------------------------------------------------------------------


def frame_norm3(t, n: int) -> ExactScalar:
    """|T|^2 = sum over an orthonormal real frame of squared 3-slot components."""
    dim = 2 * n
    p = lambda a: (a + n) % dim
    acc = _ZERO
    for a in range(dim):
        for b in range(dim):
            for c in range(dim):
                v = t[a][b][c]
                if not v.is_zero():
                    acc = acc + v * t[p(a)][p(b)][p(c)]
    return acc.scale(8)


def s_norm(sb, n: int, first_barred: bool) -> ExactScalar:
    """sum over i,j,k of |<S(u-bar_i or u_i) u_j, u_k>|^2 in normalized frame."""
    return _block_norm(sb, n, range(n), range(n), first_barred)


def mixed_block_norm(t, n: int, q: int, first_barred: bool) -> ExactScalar:
    """sum_i sum_{j<=q<k} |<(nabla_{.} J) u_j, u_k>|^2 in normalized frame."""
    return _block_norm(t, n, range(q), range(q, n), first_barred)


def _block_norm(t, n: int, js: range, ks: range, first_barred: bool) -> ExactScalar:
    dim = 2 * n
    acc = _ZERO
    for i in range(n):
        fi = n + i if first_barred else i
        for j in js:
            for k in ks:
                v = t[fi][j][k]
                if not v.is_zero():
                    acc = acc + v * t[(fi + n) % dim][n + j][n + k]
    return acc.scale(8)


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

    # (nabla_U beta)(V) = 2 sum_j covTas[U][j][j+n][V]
    #                     - 2 i sum_{a,b} nablaXJ[U][pb][pa] Tas[a][b][V]
    def cov_beta(u: int, v: int) -> ExactScalar:
        acc = _ZERO
        for j in range(n):
            acc = acc + jet.covTas[u][j][n + j][v]
        acc = acc.scale(2)
        corr = _ZERO
        for a in range(dim):
            for b in range(dim):
                tv = jet.Tas[a][b][v]
                if tv.is_zero():
                    continue
                nj = jet.nablaXJ[u][(b + n) % dim][(a + n) % dim]
                if not nj.is_zero():
                    corr = corr + nj * tv
        return acc - corr.scale(0, 2)  # times 2i

    lam_d = _ZERO
    for i in range(n):
        lam_d = lam_d + cov_beta(i, n + i) - cov_beta(n + i, i)
    lam_d = lam_d.scale(-4)

    lam_lam = _ZERO
    for i in range(n):
        for j in range(n):
            lam_lam = lam_lam + jet.dTas[j][n + j][i][n + i]
    lam_lam = lam_lam.scale(-16)

    p_form = []
    for a in range(dim):
        row = []
        for b in range(dim):
            acc = _ZERO
            for j in range(n):
                acc = acc + jet.RB[j][n + j][a][b] \
                    + jet.dTas[j][n + j][a][b].scale("1/2")
            acc = acc + jet.trRT10[a][b].scale("1/2")
            row.append(acc)
        p_form.append(tuple(row))
    return LambdaScalars(lam_d, lam_lam, tuple(p_form))


def _add_divergence_relation(rep: CheckReport, jet, lam: LambdaScalars) -> None:
    """Add the contracted-divergence relation to `rep`: the contracted
    divergence of `lam`, the one reading of covTas by either route, against
    the double contraction of dTas and the pairings of SB with nablaXJ."""
    n = jet.n

    def s_gradient_mix(barred: bool) -> ExactScalar:
        acc = _ZERO
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if barred:
                        v = jet.SB[n + i][n + j][n + k]
                        w = jet.nablaXJ[i][j][k]
                    else:
                        v = jet.SB[i][j][k]
                        w = jet.nablaXJ[n + i][n + j][n + k]
                    if not v.is_zero():
                        acc = acc + v * w
        return acc.scale(8)

    rep.add_equal("contracted-divergence-relation",
                  lam.contracted_divergence.scale("1/4"),
                  lam.double_contraction.scale("1/16")
                  - s_gradient_mix(False).scale(0, "1/2")
                  + s_gradient_mix(True).scale(0, "1/2"))


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
    p = lambda a: (a + n) % dim
    rep = CheckReport()

    def reality(name, tensor, rank, anti=False):
        """Each entry against the conjugate of its partner entry, in index order."""
        kind, sign = ("anti-reality", -1) if anti else ("reality", 1)
        flat, partner = list(tensor), [p(a) for a in range(dim)]
        for _ in range(rank - 1):
            flat = [y for x in flat for y in x]
            partner = [i * dim + p(a) for i in partner for a in range(dim)]
        bad = next((i for i, v in enumerate(flat) if not v.conjugates(flat[partner[i]], sign)),
                   None)
        detail = "" if bad is None else \
            f"component {next(islice(_indices(dim, rank), bad, None))} violates {kind}"
        rep.add(f"{kind}[{name}]", bad is None, detail)

    reality("Tas", jet.Tas, 3)
    reality("nablaXJ", jet.nablaXJ, 3)
    reality("nablaBJ", jet.nablaBJ, 3)
    reality("RTX", jet.RTX, 4)
    reality("RB", jet.RB, 4)
    # the line-bundle curvature form is imaginary valued, so its derivatives
    # pick up a sign under conjugation
    reality("dRL1", jet.dRL1, 3, anti=True)

    # A relation between two entries, or a sum over the cyclic orders of
    # three slots, is tested once per pair of entries or per cyclic orbit.
    rep.add("riemann-antisym-front",
            all(jet.RTX[a][b][c][d].negates(jet.RTX[b][a][c][d])
                for a, b, c, d in _indices(dim, 4) if a <= b))
    rep.add("riemann-antisym-back",
            all(jet.RTX[a][b][c][d].negates(jet.RTX[a][b][d][c])
                for a, b, c, d in _indices(dim, 4) if c <= d))
    rep.add("riemann-pair-symmetry",
            all(jet.RTX[a][b][c][d] == jet.RTX[c][d][a][b]
                for a, b, c, d in _indices(dim, 4) if (a, b) <= (c, d)))
    rep.add("riemann-first-bianchi",
            all((jet.RTX[a][b][c][d] + jet.RTX[b][c][a][d]
                 + jet.RTX[c][a][b][d]).is_zero()
                for a, b, c, d in _indices(dim, 4) if a <= b and a <= c))

    ric_scalar = _ZERO
    for a in range(dim):
        for c in range(dim):
            ric_scalar = ric_scalar + jet.RTX[c][a][p(a)][p(c)].scale(4)
    rep.add_equal("scalar-curvature-contraction", jet.rX, ric_scalar)

    rep.add("torsion-totally-antisymmetric",
            all(jet.Tas[a][b][c].negates(jet.Tas[b][a][c])
                and jet.Tas[a][b][c].negates(jet.Tas[a][c][b])
                for a, b, c in _indices(dim, 3)))
    rep.add("s-tensor-from-torsion",
            all(jet.SB[a][b][c] == jet.Tas[a][b][c].scale("-1/2")
                for a, b, c in _indices(dim, 3)))
    rep.add("four-form-totally-antisymmetric",
            all(jet.dTas[a][b][c][d].negates(jet.dTas[b][a][c][d])
                and jet.dTas[a][b][c][d].negates(jet.dTas[a][c][b][d])
                and jet.dTas[a][b][c][d].negates(jet.dTas[a][b][d][c])
                for a, b, c, d in _indices(dim, 4)))

    rep.add("structure-derivative-cyclic",
            all((jet.nablaXJ[a][b][c] + jet.nablaXJ[b][c][a]
                 + jet.nablaXJ[c][a][b]).is_zero()
                for a, b, c in _indices(dim, 3) if a <= b and a <= c))
    rep.add("structure-derivative-pure-type",
            all(jet.nablaXJ[a][b][c].is_zero()
                for a, b, c in _indices(dim, 3)
                if len({x < n for x in (a, b, c)}) != 1))

    zi = lambda j: n + j if j < q else j        # d/dz_j in xi labels
    zbi = lambda j: j if j < q else n + j       # its conjugate
    rep.add("bismut-derivative-preserves-types",
            all(jet.nablaBJ[u][zi(j)][zi(k)].is_zero()
                and jet.nablaBJ[u][zbi(j)][zbi(k)].is_zero()
                for u in range(dim) for j in range(n) for k in range(n)))
    rep.add("bismut-derivative-exchanges-signature-blocks",
            all(jet.nablaBJ[u][zi(j)][zbi(k)].is_zero()
                for u in range(dim) for j in range(n) for k in range(n)
                if (j < q) == (k < q)))

    jdiag = [_I if c < n else -_I for c in range(dim)]
    jsum = [[x + y for y in jdiag] for x in jdiag]
    b2j, rb = jet.nablaB2J, jet.RB

    def sides(a, b, c, d):
        return b2j[a][b][c][d] - b2j[b][a][c][d], rb[a][b][c][d] * jsum[c][d]

    def holds(a, b, c, d):
        if jsum[c][d].is_zero():  # mixed c, d: the relation is a symmetry of nablaB2J
            return b2j[a][b][c][d] == b2j[b][a][c][d]
        lhs, rhs = sides(a, b, c, d)
        return lhs == rhs

    bad = next((slot for slot in _indices(dim, 4) if not holds(*slot)), None)
    detail = "" if bad is None else "slot {}: {} vs {}".format(bad, *sides(*bad))
    rep.add("second-derivative-antisymmetrization", bad is None, detail)

    rep.add("curvature-derivative-antisym",
            all(jet.dRL1[k][a][b].negates(jet.dRL1[k][b][a])
                for k, a, b in _indices(dim, 3)))
    rep.add("curvature-second-derivative-symmetries",
            all(jet.dRL2[k][l][a][b] == jet.dRL2[l][k][a][b]
                and jet.dRL2[k][l][a][b].negates(jet.dRL2[k][l][b][a])
                for k, l, a, b in _indices(dim, 4)))

    minus_two_pi_i = ExactScalar.rational(0, -2, 1)
    rep.add("curvature-derivative-matches-structure-derivative",
            all(jet.dRL1[k][a][b] == minus_two_pi_i * jet.nablaXJ[k][a][b]
                for k, a, b in _indices(dim, 3)))

    # the engine's Clifford map reads these forms on increasing label words
    # only, so it would drop the symmetric part of a form that is not skew
    rep.add("clifford-forms-skew",
            all(jet.trRT10[c][d].negates(jet.trRT10[d][c])
                and all(jet.RE[c][d][r][s].negates(jet.RE[d][c][r][s])
                        for r, s in _indices(jet.rk_e, 2))
                for c, d in _indices(dim, 2) if c <= d)
            and all(jet.nablaBJ[a][c][d].negates(jet.nablaBJ[a][d][c])
                    for a, c, d in _indices(dim, 3) if c <= d)
            and all(jet.RB[a][b][c][d].negates(jet.RB[a][b][d][c])
                    and jet.nablaB2J[a][b][c][d].negates(jet.nablaB2J[a][b][d][c])
                    for a, b, c, d in _indices(dim, 4) if c <= d))
    # the engine quantizes RB once per unordered front pair and negates it for
    # the other order; the antisymmetrization check above sees RB only where
    # jsum is nonzero
    rep.add("bismut-curvature-antisym-front",
            all(jet.RB[a][b][c][d].negates(jet.RB[b][a][c][d])
                for a, b, c, d in _indices(dim, 4) if a <= b))
    # the routes read different entries of these forms, so an entry that is
    # not the conjugate of its partner makes them disagree
    reality("dTas", jet.dTas, 4)
    reality("trRT10", jet.trRT10, 2, anti=True)
    # the closed form reads covTas only through the contracted divergence, and
    # the engine not at all, so a covTas that keeps its own slot relations and
    # breaks this one splits the routes too
    _add_divergence_relation(rep, jet, lambda_scalars(jet))
    return rep


def _indices(dim: int, rank: int):
    return product(range(dim), repeat=rank)


# ---------------------------------------------------------------------------
# the exact identity suite
# ---------------------------------------------------------------------------


def identity_suite(jet) -> CheckReport:
    """Both sides of each structural identity, evaluated exactly from the jet."""
    n, q = jet.n, jet.q
    dim = 2 * n
    rep = CheckReport()

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

    curv_diff = _ZERO
    for i in range(n):
        for j in range(n):
            curv_diff = curv_diff + (jet.RB[i][n + i][j][n + j] - jet.RTX[i][n + i][j][n + j])
    curv_diff = curv_diff.scale(4)
    rep.add_equal("curvature-difference-vs-torsion-squares",
                  curv_diff,
                  s_uu - s_bu + lam.double_contraction.scale("1/16"))

    def pairing(first_barred: bool) -> ExactScalar:
        # <S(._i) ._j , (nabla_{conj ._i} J) conj ._j> summed over i, j
        acc = _ZERO
        for i in range(n):
            fi = n + i if first_barred else i
            ci = (fi + n) % dim
            for j in range(n):
                sj = n + j if first_barred else j
                cj = (sj + n) % dim
                for k in range(dim):
                    v = jet.SB[fi][sj][k]
                    if not v.is_zero():
                        acc = acc + v * jet.nablaXJ[ci][cj][(k + n) % dim]
        return acc.scale(8)

    rep.add_equal("norm-difference-decomposition",
                  (norm_b - norm_x).scale("1/8"),
                  s_uu + s_bu
                  + pairing(False).scale(0, "1/2")
                  - pairing(True).scale(0, "1/2"))

    _add_divergence_relation(rep, jet, lam)

    rep.add_equal("curvature-difference-master",
                  curv_diff,
                  (norm_b - norm_x).scale("1/8")
                  + lam.contracted_divergence.scale("1/4")
                  - s_bu.scale(2))

    def second_deriv_trace() -> ExactScalar:
        acc = _ZERO
        for i in range(n):
            for j in range(n):
                acc = acc + jet.nablaB2J[i][n + i][j][n + j]
        return acc.scale(0, 1)

    rep.add_equal("second-derivative-trace-norm",
                  second_deriv_trace(), norm_b.scale("1/16"))

    def bisectional() -> ExactScalar:
        acc = _ZERO
        for i in range(n):
            for j in range(n):
                acc = acc + jet.RTX[i][j][n + i][n + j]
        return acc

    rep.add_equal("holomorphic-pair-curvature-norm",
                  bisectional(), norm_x.scale("1/32"))

    if jet.is_torsion_free():
        ok = True
        detail = ""
        for j in range(n):
            for k in range(n):
                acc = _ZERO
                for i in range(n):
                    acc = acc + jet.nablaB2J[n + i][i][n + j][n + k]
                if not acc.is_zero():
                    ok = False
                    detail = f"slot ({j},{k}): {acc}"
                    break
        rep.add("kahler-mixed-second-derivative-vanishes", ok, detail)

        ok = True
        detail = ""
        for j in range(n):
            for k in range(n):
                lhs = _ZERO
                rhs = _ZERO
                for i in range(n):
                    lhs = lhs + jet.nablaB2J[i][n + i][n + j][n + k]
                    rhs = rhs + jet.RTX[i][n + i][n + j][n + k]
                if lhs != rhs.scale(0, -2):
                    ok = False
                    detail = f"slot ({j},{k}): {lhs} vs {rhs.scale(0, -2)}"
                    break
        rep.add("kahler-second-derivative-vs-curvature", ok, detail)
    return rep
