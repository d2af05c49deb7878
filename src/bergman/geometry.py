"""Pointwise geometry jets for the mixed-curvature Bergman coefficient.

A jet is the complete 2-jet at a base point of every tensor the coefficient
formula and the perturbation engine consume: line-bundle curvature and its
first and second derivatives in geodesic normal coordinates, Levi-Civita and
torsion-adjusted ("Bismut side") curvatures, the skew structure map defined
by the symplectic form against the metric, and its first two covariant
derivatives.

Jets are constructed from a local potential in already-normalized
coordinates:  phi is a real truncated series of degree <= 4 in (z, zbar)
whose mixed Hessian at 0 is diag(-pi, .., -pi, +pi, .., +pi) with q minus
signs.  With the curvature convention R = d dbar phi this pins the
symplectic form at the point to its model value and makes the coordinate
frame orthonormal, so the whole pipeline stays inside exact pi-Laurent
arithmetic.  (The classical projective-line potential log(1 + |z|^2)
becomes pi |z|^2 - pi^2 |z|^4 / 2 after the normalizing rescale; helpers
below emit these truncations exactly.)

Frame bookkeeping.  Internally the pipeline works in the coordinate frame
(d/dz_1..d/dz_n, d/dzbar_1..d/dzbar_n).  The published jet components are
relabeled to the xi-adapted frame: xi_j = zbar_j for j <= q and z_j
otherwise, so index a < n means d/dxi_{a+1} and a >= n its conjugate.  In
that frame the structure map is +i on all unbarred directions.  All stored
components are C-multilinear in the coordinate frame; the metric at the
point pairs index a with a+n (mod 2n) with value 1/2.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegenerateCurvatureError,
    InvalidJetError,
    TruncationInsufficientError,
)
from .jet_checks import (  # noqa: F401  (re-exported: these are geometry operations)
    CheckReport,
    LambdaScalars,
    _allzero,
    identity_suite,
    lambda_scalars,
    validate_jet,
)
from .scalars import ExactScalar, rat
from .series import (
    Series,
    mat_inverse,
    mat_mul,
    mat_sqrt,
    mat_zero,
)

Tensor1 = tuple[ExactScalar, ...]
Tensor2 = tuple[Tensor1, ...]
Tensor3 = tuple[Tensor2, ...]
Tensor4 = tuple[Tensor3, ...]

_ZERO = ExactScalar.zero()
_ONE = rat(1)
_I = ExactScalar.i()
_HALF = rat("1/2")
_TWO = rat(2)


# ---------------------------------------------------------------------------
# potential parsing and generators
# ---------------------------------------------------------------------------

_FACTOR_RE = re.compile(r"^(z|zb)(\d+)(?:\^(\d+))?$")


def parse_potential(data: dict[str, object], n: int, cap: int = 4) -> Series:
    """Build a series from a monomial-coefficient map.

    Keys are space-separated factors `z<j>` / `zb<j>` with optional `^k`,
    1-based, e.g. "z1^2 zb1 zb2"; values are scalar payloads accepted by
    :meth:`ExactScalar.from_json` (plain "p/q" strings included).
    """
    terms: dict[tuple[int, ...], ExactScalar] = {}
    for key, payload in data.items():
        exps = [0] * (2 * n)
        key = key.strip()
        if key:
            for factor in key.split():
                m = _FACTOR_RE.match(factor)
                if not m:
                    raise ValueError(f"bad monomial factor {factor!r}")
                kind, idx, power = m.group(1), int(m.group(2)), int(m.group(3) or 1)
                if not 1 <= idx <= n:
                    raise ValueError(f"variable index out of range in {factor!r}")
                pos = idx - 1 + (n if kind == "zb" else 0)
                exps[pos] += power
        c = ExactScalar.from_json(payload)
        e = tuple(exps)
        terms[e] = terms.get(e, _ZERO) + c
    return Series(2 * n, cap, terms)


def potential_to_dict(phi: Series) -> dict[str, object]:
    n = phi.nvars // 2
    out: dict[str, object] = {}
    for e in sorted(phi.terms):
        factors = []
        for j in range(n):
            if e[j]:
                factors.append(f"z{j+1}" + (f"^{e[j]}" if e[j] > 1 else ""))
        for j in range(n):
            if e[n + j]:
                factors.append(f"zb{j+1}" + (f"^{e[n+j]}" if e[n + j] > 1 else ""))
        out[" ".join(factors)] = phi.terms[e].to_json()
    return out


def flat_potential(n: int, q: int) -> Series:
    """The exact model potential: curvature constant, all derived tensors zero."""
    terms: dict[tuple[int, ...], ExactScalar] = {}
    for j in range(n):
        e = [0] * (2 * n)
        e[j] = 1
        e[n + j] = 1
        terms[tuple(e)] = ExactScalar.pi(1, -1 if j < q else 1)
    return Series(2 * n, 4, terms)


def fs_product_potential(n: int, q: int) -> Series:
    """Product of Fubini-Study factors, negative on the first q directions.

    Each factor is the degree-4 truncation of +-log(1 + pi |z_j|^2) in
    normalized coordinates: +-(pi |z_j|^2 - pi^2 |z_j|^4 / 2).
    """
    terms: dict[tuple[int, ...], ExactScalar] = {}
    for j in range(n):
        sign = -1 if j < q else 1
        e = [0] * (2 * n)
        e[j] = 1
        e[n + j] = 1
        terms[tuple(e)] = ExactScalar.pi(1, sign)
        e4 = [0] * (2 * n)
        e4[j] = 2
        e4[n + j] = 2
        terms[tuple(e4)] = ExactScalar.pi(2, Fraction(-sign, 2))
    return Series(2 * n, 4, terms)


def random_potential(n: int, q: int, seed: int) -> Series:
    """Seeded random real degree-4 potential with the normalized Hessian.

    Uses the standard library Mersenne Twister (`random.Random(seed)`), so a
    reported seed reproduces the jet bit-for-bit.  Cubic and quartic terms
    get small Gaussian-rational coefficients times pi^2; conjugate monomials
    are mirrored to keep the potential real.
    """
    rng = random.Random(seed)
    terms: dict[tuple[int, ...], ExactScalar] = dict(flat_potential(n, q).terms)

    def small() -> Fraction:
        return Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3]))

    monos = _monomials(2 * n, (3, 4))
    for e in monos:
        z_part, zb_part = e[:n], e[n:]
        mirror = zb_part + z_part
        if mirror < e:
            continue
        if mirror == e:
            c = ExactScalar.rational(small(), 0, 2)
        else:
            c = ExactScalar.rational(small(), small(), 2)
        if c.is_zero():
            continue
        terms[e] = terms.get(e, _ZERO) + c
        if mirror != e:
            terms[mirror] = terms.get(mirror, _ZERO) + c.conjugate()
    return Series(2 * n, 4, terms)


def _monomials(nvars: int, degrees: tuple[int, ...]) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], rest: int, budget: int):
        if rest == 1:
            out.append(tuple(prefix + [budget]))
            return
        for k in range(budget + 1):
            rec(prefix + [k], rest - 1, budget - k)

    for d in degrees:
        rec([], nvars, d)
    return [e for e in out if sum(e) in degrees]


# ---------------------------------------------------------------------------
# the jet container
# ---------------------------------------------------------------------------

JET_SCHEMA = "bergman-jet/1"

_FIELDS3 = ("Tas", "nablaXJ", "nablaBJ", "SB")
_FIELDS4 = ("RTX", "RB", "dTas", "covTas", "nablaB2J", "dRL2")


@dataclass(frozen=True)
class GeometryJet:
    """Complete pointwise data in the xi-adapted complex frame.

    Component conventions (indices run over 0..2n-1, a+n is the conjugate):

    * dRL1[k][a][b]: first normal-coordinate derivative of the line-bundle
      curvature 2-form; dRL2[k][l][a][b] the symmetrized second derivative.
    * RTX / RB: <R(e_a, e_b) e_c, e_d> for the Levi-Civita resp.
      torsion-adjusted connection.
    * Tas: the antisymmetrized torsion 3-form; covTas its Levi-Civita
      covariant derivative (derivative slot first); dTas its exterior
      derivative; SB[a][b][c] = -Tas[a][b][c]/2.
    * nablaXJ / nablaBJ: <(nabla_a J) e_b, e_c> for the structure map J
      defined by  omega(U, V) = g(J U, V); nablaB2J[a][b][c][d] the second
      covariant derivative <(nabla nabla J)_(e_a, e_b) e_c, e_d>.
    * RE[a][b]: auxiliary-bundle curvature, an rk_e x rk_e matrix per slot
      pair; trRT10: the trace 2-form of the holomorphic-tangent curvature.
    * rX: scalar curvature at the point.
    """

    n: int
    q: int
    rk_e: int
    dRL1: Tensor3
    dRL2: Tensor4
    RTX: Tensor4
    rX: ExactScalar
    RE: tuple[tuple[tuple[tuple[ExactScalar, ...], ...], ...], ...]
    trRT10: Tensor2
    Tas: Tensor3
    covTas: Tensor4
    dTas: Tensor4
    nablaXJ: Tensor3
    nablaBJ: Tensor3
    nablaB2J: Tensor4
    SB: Tensor3
    RB: Tensor4
    jet_id: str = ""

    @property
    def dim(self) -> int:
        return 2 * self.n

    def is_torsion_free(self) -> bool:
        return _allzero(self.Tas) and _allzero(self.covTas) and _allzero(self.dTas)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict[str, object]:
        def dump(t):
            if isinstance(t, ExactScalar):
                return t.to_json()
            return [dump(x) for x in t]

        body = {
            "schema": JET_SCHEMA,
            "n": self.n,
            "q": self.q,
            "rk_e": self.rk_e,
            "frame": "xi-adapted complex frame; index a<n is d/dxi_{a+1}, a+n its conjugate",
            "rX": self.rX.to_json(),
        }
        for name in ("dRL1", "dRL2", "RTX", "RE", "trRT10", "Tas", "covTas",
                     "dTas", "nablaXJ", "nablaBJ", "nablaB2J", "SB", "RB"):
            body[name] = dump(getattr(self, name))
        body["jet_id"] = self.jet_id or jet_digest(body)
        return body

    @classmethod
    def from_json(cls, data: dict[str, object]) -> "GeometryJet":
        if data.get("schema") != JET_SCHEMA:
            raise InvalidJetError(f"unknown jet schema {data.get('schema')!r}")

        def load(t):
            if isinstance(t, list) and (not t or isinstance(t[0], dict)):
                return ExactScalar.from_json(t)
            return tuple(load(x) for x in t)

        kwargs = {
            "n": int(data["n"]),
            "q": int(data["q"]),
            "rk_e": int(data["rk_e"]),
            "rX": ExactScalar.from_json(data["rX"]),
            "jet_id": str(data.get("jet_id", "")),
        }
        for name in ("dRL1", "dRL2", "RTX", "RE", "trRT10", "Tas", "covTas",
                     "dTas", "nablaXJ", "nablaBJ", "nablaB2J", "SB", "RB"):
            kwargs[name] = load(data[name])
        jet = cls(**kwargs)
        if not jet.jet_id:
            jet = _with_id(jet)
        return jet


def jet_digest(body: dict[str, object]) -> str:
    payload = {k: v for k, v in body.items() if k != "jet_id"}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _with_id(jet: GeometryJet) -> GeometryJet:
    body = jet.to_json()
    return GeometryJet(**{**{f: getattr(jet, f) for f in jet.__dataclass_fields__},
                          "jet_id": jet_digest(body)})


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------


def jet_from_potential(phi_l: Series | dict, phi_e: Series | dict | None = None, *,
                       n: int, q: int, rk_e: int = 1) -> GeometryJet:
    """Run the full truncated-series pipeline on a normalized potential."""
    if not 0 <= q <= n:
        raise ValueError("signature index out of range")
    if isinstance(phi_l, dict):
        phi_l = parse_potential(phi_l, n)
    if isinstance(phi_e, dict):
        phi_e = parse_potential(phi_e, n)
    dim = 2 * n
    if phi_l.nvars != dim:
        raise ValueError("potential variable count does not match n")
    if phi_l.cap < 4:
        raise TruncationInsufficientError("potential must be truncated at degree 4")
    if phi_l.conj() != phi_l:
        raise DegenerateCurvatureError("potential is not real")
    _check_hessian(phi_l, n, q)

    cap = 2  # all derived fields need at most two more derivatives at 0

    # curvature 2-form of the line bundle: R = d dbar phi
    RL = mat_zero(dim, dim, cap)
    for a in range(n):
        for b in range(n):
            d2 = phi_l.diff(a).diff(n + b).truncate(cap)
            RL[a][n + b] = d2
            RL[n + b][a] = -d2

    # omega = (i / 2 pi) R; the standard complex structure is diagonal
    omega = [[RL[a][b].scale(ExactScalar.rational(0, "1/2", -1)) for b in range(dim)]
             for a in range(dim)]
    jstd = [_I if a < n else -_I for a in range(dim)]

    # B(U, V) = omega(U, J V); metric g = |B| via Newton square root
    B = [[omega[a][b].scale(jstd[b]) for b in range(dim)] for a in range(dim)]
    part = lambda a: (a + n) % dim
    M = [[B[part(a)][b].scale(_TWO) for b in range(dim)] for a in range(dim)]
    g_endo = mat_sqrt(mat_mul(M, M))
    g = [[g_endo[part(a)][b].scale(_HALF) for b in range(dim)] for a in range(dim)]
    ginv = mat_inverse(g)

    # structure map: omega(U, V) = g(J U, V), so J^c_a = omega_ab g^bc
    Jmat = [[sum_series(omega[a][b] * ginv[b][c] for b in range(dim))
             for a in range(dim)] for c in range(dim)]

    # Levi-Civita data
    gamma = _christoffels(g, ginv, dim)
    g0 = [[g[a][b].value0() for b in range(dim)] for a in range(dim)]
    ginv0 = [[ginv[a][b].value0() for b in range(dim)] for a in range(dim)]
    rtx = _curvature(gamma, g0, dim)
    ric, r_scalar = _ricci_scalar(rtx, ginv0, dim)

    # Hermitian structure on the holomorphic tangent bundle and its torsion
    h = [[g[j][n + k] for k in range(n)] for j in range(n)]
    hinv = mat_inverse(h)
    gamma_ch = [[[sum_series(h[j][l].diff(i) * hinv[l][k] for l in range(n))
                  for k in range(n)] for j in range(n)] for i in range(n)]
    tr_rt10 = _chern_trace_form(gamma_ch, n, dim, cap)
    tas = _antisym_torsion(gamma_ch, g, n, dim, cap)

    sb_low = [[[tas[a][b][c].scale(rat("-1/2")) for c in range(dim)]
               for b in range(dim)] for a in range(dim)]
    sb_up = [[[sum_series(sb_low[a][b][c] * ginv[c][d] for c in range(dim))
               for d in range(dim)] for b in range(dim)] for a in range(dim)]
    gamma_b = [[[gamma[a][b][d] + sb_up[a][b][d] for d in range(dim)]
                for b in range(dim)] for a in range(dim)]
    rb = _curvature(gamma_b, g0, dim)

    # covariant derivatives of the structure map
    nxj, nxj_series = _nabla_J(Jmat, gamma, g, dim)
    nbj, nbj_series = _nabla_J(Jmat, gamma_b, g, dim)
    nb2j = _nabla2_J(nbj_series, gamma_b, gamma, g0, dim)

    # torsion derivatives
    cov_tas = _cov_tensor3(tas, gamma, dim)
    d_tas = _ext_deriv3(tas, dim)

    # auxiliary bundle curvature
    re_mat = _aux_curvature(phi_e, n, dim, rk_e, cap)

    # normal-coordinate derivatives of the line-bundle curvature
    drl1, drl2 = _radial_gauge_derivatives(RL, gamma, dim)

    # value-at-zero extraction and relabeling into the xi frame
    perm = _xi_permutation(n, q)
    tensors = {
        "dRL1": _relabel3(drl1, perm),
        "dRL2": _relabel4(drl2, perm),
        "RTX": _relabel4(rtx, perm),
        "RB": _relabel4(rb, perm),
        "Tas": _relabel3(_vals3(tas, dim), perm),
        "covTas": _relabel4(cov_tas, perm),
        "dTas": _relabel4(d_tas, perm),
        "nablaXJ": _relabel3(nxj, perm),
        "nablaBJ": _relabel3(nbj, perm),
        "nablaB2J": _relabel4(nb2j, perm),
        "trRT10": _relabel2(tr_rt10, perm),
    }
    tensors["SB"] = tuple(
        tuple(tuple(tensors["Tas"][a][b][c].scale("-1/2") for c in range(dim))
              for b in range(dim)) for a in range(dim))
    re_x = _relabel2(re_mat, perm)

    jet = GeometryJet(
        n=n, q=q, rk_e=rk_e,
        dRL1=tensors["dRL1"], dRL2=tensors["dRL2"],
        RTX=tensors["RTX"], rX=r_scalar, RE=re_x, trRT10=tensors["trRT10"],
        Tas=tensors["Tas"], covTas=tensors["covTas"], dTas=tensors["dTas"],
        nablaXJ=tensors["nablaXJ"], nablaBJ=tensors["nablaBJ"],
        nablaB2J=tensors["nablaB2J"],
        SB=tensors["SB"], RB=tensors["RB"],
    )
    return _with_id(jet)


def sum_series(items) -> Series:
    acc = None
    for s in items:
        acc = s if acc is None else acc + s
    if acc is None:
        raise ValueError("empty series sum")
    return acc


def _check_hessian(phi: Series, n: int, q: int) -> None:
    for j in range(n):
        for k in range(n):
            e = [0] * (2 * n)
            e[j] += 1
            e[n + k] += 1
            c = phi.coeff(tuple(e))
            if j == k:
                want = ExactScalar.pi(1, -1 if j < q else 1)
            else:
                want = _ZERO
            if c != want:
                raise DegenerateCurvatureError(
                    f"mixed Hessian entry ({j+1},{k+1}) is {c}, expected {want}; "
                    "normalize the potential first")


def _christoffels(g, ginv, dim):
    low = [[[ (g[b][c].diff(a) + g[a][c].diff(b) - g[a][b].diff(c)).scale(_HALF)
              for c in range(dim)] for b in range(dim)] for a in range(dim)]
    return [[[sum_series(low[a][b][c] * ginv[c][d] for c in range(dim))
              for d in range(dim)] for b in range(dim)] for a in range(dim)]


def _curvature(gamma, g0, dim):
    """<R(e_a, e_b) e_c, e_d> at the base point, lowered with g(0)."""
    out = [[[[_ZERO for _ in range(dim)] for _ in range(dim)]
            for _ in range(dim)] for _ in range(dim)]
    gam0 = [[[gamma[a][b][c].value0() for c in range(dim)] for b in range(dim)]
            for a in range(dim)]
    for a in range(dim):
        for b in range(dim):
            if a == b:
                continue
            for c in range(dim):
                up = [_ZERO] * dim
                for e in range(dim):
                    v = _first_deriv(gamma[b][c][e], a) - _first_deriv(gamma[a][c][e], b)
                    for f in range(dim):
                        v = v + gam0[a][f][e] * gam0[b][c][f] - gam0[b][f][e] * gam0[a][c][f]
                    up[e] = v
                for d in range(dim):
                    acc = _ZERO
                    for e in range(dim):
                        acc = acc + up[e] * g0[e][d]
                    out[a][b][c][d] = acc
    return tuple(tuple(tuple(tuple(r) for r in s) for s in t) for t in out)


def _first_deriv(s: Series, a: int) -> ExactScalar:
    e = [0] * s.nvars
    e[a] = 1
    return s.coeff(tuple(e))


def _ricci_scalar(rtx, ginv0, dim):
    ric = [[_ZERO for _ in range(dim)] for _ in range(dim)]
    for a in range(dim):
        for b in range(dim):
            acc = _ZERO
            for c in range(dim):
                for d in range(dim):
                    if ginv0[c][d].is_zero():
                        continue
                    acc = acc + ginv0[c][d] * rtx[c][a][b][d]
            ric[a][b] = acc
    r = _ZERO
    for a in range(dim):
        for b in range(dim):
            if not ginv0[a][b].is_zero():
                r = r + ginv0[a][b] * ric[a][b]
    return ric, r


def _chern_trace_form(gamma_ch, n, dim, cap):
    """Trace 2-form of the holomorphic-tangent curvature; mixed slots only."""
    out = [[_ZERO for _ in range(dim)] for _ in range(dim)]
    for i in range(n):
        for m in range(n):
            acc = _ZERO
            for j in range(n):
                acc = acc + (-_first_deriv(gamma_ch[i][j][j], n + m))
            out[i][n + m] = acc
            out[n + m][i] = -acc
    return out


def _antisym_torsion(gamma_ch, g, n, dim, cap):
    """Total antisymmetrization of the Chern-connection torsion, as a series 3-form."""
    tvec = [[[Series.zero(dim, cap) for _ in range(dim)] for _ in range(dim)]
            for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                t = gamma_ch[i][j][k] - gamma_ch[j][i][k]
                tvec[i][j][k] = t
                tvec[n + i][n + j][n + k] = t.conj()
    low = [[[Series.zero(dim, cap) for _ in range(dim)] for _ in range(dim)]
           for _ in range(dim)]
    for a in range(dim):
        for b in range(dim):
            pairs = []
            for d in range(dim):
                if not tvec[a][b][d].is_zero():
                    pairs.append(d)
            if not pairs:
                continue
            for c in range(dim):
                acc = None
                for d in pairs:
                    p = tvec[a][b][d] * g[d][c]
                    acc = p if acc is None else acc + p
                if acc is not None:
                    low[a][b][c] = acc
    tas = [[[Series.zero(dim, cap) for _ in range(dim)] for _ in range(dim)]
           for _ in range(dim)]
    for a in range(dim):
        for b in range(dim):
            for c in range(dim):
                tas[a][b][c] = low[a][b][c] + low[b][c][a] + low[c][a][b]
    return tas


def _vals3(t, dim):
    return tuple(tuple(tuple(t[a][b][c].value0() for c in range(dim))
                       for b in range(dim)) for a in range(dim))


def _nabla_J(Jmat, gamma, g, dim):
    """Lowered components of nabla J at 0 plus the endomorphism series of nabla J."""
    cap = Jmat[0][0].cap
    series = [[[Series.zero(dim, cap) for _ in range(dim)] for _ in range(dim)]
              for _ in range(dim)]
    for a in range(dim):
        for c in range(dim):
            for b in range(dim):
                s = Jmat[c][b].diff(a)
                for d in range(dim):
                    s = s + gamma[a][d][c] * Jmat[d][b] - gamma[a][b][d] * Jmat[c][d]
                series[a][c][b] = s  # (nabla_a J)^c_b
    low = [[[_ZERO for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    for a in range(dim):
        for b in range(dim):
            for c in range(dim):
                acc = _ZERO
                for d in range(dim):
                    v = series[a][d][b].value0()
                    if not v.is_zero():
                        acc = acc + v * g[d][c].value0()
                low[a][b][c] = acc
    return tuple(tuple(tuple(r) for r in s) for s in low), series


def _nabla2_J(nj_series, gamma_endo, gamma_dir, g0, dim):
    """<(nabla nabla J)_(e_a, e_b) e_c, e_d> at 0; first slot differentiates.

    The endomorphism slots are transported with the same connection that
    produced nabla J, while the direction slot is corrected with the
    torsion-free connection; that mixed convention is the one under which
    the antisymmetrized second derivative equals the curvature commutator.
    """
    ge0 = [[[gamma_endo[x][y][z].value0() for z in range(dim)] for y in range(dim)]
           for x in range(dim)]
    gd0 = [[[gamma_dir[x][y][z].value0() for z in range(dim)] for y in range(dim)]
           for x in range(dim)]
    out = [[[[_ZERO for _ in range(dim)] for _ in range(dim)]
            for _ in range(dim)] for _ in range(dim)]
    for a in range(dim):
        for b in range(dim):
            for c in range(dim):
                up = [_ZERO] * dim
                for e in range(dim):
                    v = _first_deriv(nj_series[b][e][c], a)
                    for f in range(dim):
                        v = (v + ge0[a][f][e] * nj_series[b][f][c].value0()
                             - gd0[a][b][f] * nj_series[f][e][c].value0()
                             - ge0[a][c][f] * nj_series[b][e][f].value0())
                    up[e] = v
                for d in range(dim):
                    acc = _ZERO
                    for e in range(dim):
                        acc = acc + up[e] * g0[e][d]
                    out[a][b][c][d] = acc
    return tuple(tuple(tuple(tuple(r) for r in s) for s in t) for t in out)


def _cov_tensor3(t_series, gamma, dim):
    gam0 = [[[gamma[x][y][z].value0() for z in range(dim)] for y in range(dim)]
            for x in range(dim)]
    out = [[[[_ZERO for _ in range(dim)] for _ in range(dim)]
            for _ in range(dim)] for _ in range(dim)]
    t0 = _vals3(t_series, dim)
    for m in range(dim):
        for a in range(dim):
            for b in range(dim):
                for c in range(dim):
                    v = _first_deriv(t_series[a][b][c], m)
                    for d in range(dim):
                        v = (v - gam0[m][a][d] * t0[d][b][c]
                             - gam0[m][b][d] * t0[a][d][c]
                             - gam0[m][c][d] * t0[a][b][d])
                    out[m][a][b][c] = v
    return tuple(tuple(tuple(tuple(r) for r in s) for s in t) for t in out)


def _ext_deriv3(t_series, dim):
    out = [[[[_ZERO for _ in range(dim)] for _ in range(dim)]
            for _ in range(dim)] for _ in range(dim)]
    for a in range(dim):
        for b in range(dim):
            for c in range(dim):
                for d in range(dim):
                    v = (_first_deriv(t_series[b][c][d], a)
                         - _first_deriv(t_series[a][c][d], b)
                         + _first_deriv(t_series[a][b][d], c)
                         - _first_deriv(t_series[a][b][c], d))
                    out[a][b][c][d] = v
    return tuple(tuple(tuple(tuple(r) for r in s) for s in t) for t in out)


def _aux_curvature(phi_e, n, dim, rk_e, cap):
    zero_mat = tuple(tuple(_ZERO for _ in range(rk_e)) for _ in range(rk_e))
    out = [[zero_mat for _ in range(dim)] for _ in range(dim)]
    if phi_e is not None and not phi_e.is_zero():
        if phi_e.conj() != phi_e:
            raise DegenerateCurvatureError("auxiliary potential is not real")
        for a in range(n):
            for b in range(n):
                v = phi_e.diff(a).diff(n + b).value0()
                if v.is_zero():
                    continue
                mat = tuple(tuple(v if r == c else _ZERO for c in range(rk_e))
                            for r in range(rk_e))
                mneg = tuple(tuple(-v if r == c else _ZERO for c in range(rk_e))
                             for r in range(rk_e))
                out[a][n + b] = mat
                out[n + b][a] = mneg
    return out


def _radial_gauge_derivatives(RL, gamma, dim):
    """Exp-map pullback of the curvature form; first/second coordinate derivatives."""
    cap3 = 3
    gam0 = [[[gamma[a][b][c].value0() for c in range(dim)] for b in range(dim)]
            for a in range(dim)]
    dgam = [[[[_first_deriv(gamma[a][b][c], d) for c in range(dim)]
              for b in range(dim)] for a in range(dim)] for d in range(dim)]
    w = [Series.var(dim, cap3, a) for a in range(dim)]
    zmap = []
    for a in range(dim):
        c2 = Series.zero(dim, cap3)
        for b in range(dim):
            for c in range(dim):
                if not gam0[b][c][a].is_zero():
                    c2 = c2 + (w[b] * w[c]).scale(gam0[b][c][a].scale("-1/2"))
        zmap.append(w[a] + c2)
    for a in range(dim):
        c3 = Series.zero(dim, cap3)
        for d in range(dim):
            for b in range(dim):
                for c in range(dim):
                    if not dgam[d][b][c][a].is_zero():
                        c3 = c3 + (w[d] * w[b] * w[c]).scale(dgam[d][b][c][a])
        for b in range(dim):
            for c in range(dim):
                if not gam0[b][c][a].is_zero():
                    c2c = zmap[c] - w[c]
                    c3 = c3 + (w[b] * c2c).scale(gam0[b][c][a].scale(4))
        zmap[a] = zmap[a] + c3.scale(rat("-1/6"))

    jac = [[zmap[c].diff(a) for c in range(dim)] for a in range(dim)]
    pulled = [[None for _ in range(dim)] for _ in range(dim)]
    comp_cache: dict[tuple[int, int], Series] = {}
    for c in range(dim):
        for d in range(dim):
            if not RL[c][d].is_zero():
                comp_cache[(c, d)] = RL[c][d].compose(zmap, cap=2)
    for a in range(dim):
        for b in range(dim):
            acc = Series.zero(dim, 2)
            for (c, d), comp in comp_cache.items():
                term = comp * jac[a][c].truncate(2) * jac[b][d].truncate(2)
                acc = acc + term
            pulled[a][b] = acc

    drl1 = [[[_ZERO for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    drl2 = [[[[_ZERO for _ in range(dim)] for _ in range(dim)]
             for _ in range(dim)] for _ in range(dim)]
    for a in range(dim):
        for b in range(dim):
            s = pulled[a][b]
            for k in range(dim):
                drl1[k][a][b] = _first_deriv(s, k)
                for l in range(dim):
                    e = [0] * dim
                    e[k] += 1
                    e[l] += 1
                    c = s.coeff(tuple(e))
                    drl2[k][l][a][b] = c.scale(2) if k == l else c
    return (tuple(tuple(tuple(r) for r in s) for s in drl1),
            tuple(tuple(tuple(tuple(r) for r in s) for s in t) for t in drl2))


# ---------------------------------------------------------------------------
# relabeling into the xi-adapted frame
# ---------------------------------------------------------------------------


def _xi_permutation(n: int, q: int) -> list[int]:
    """perm[xi-index] = z-frame index."""
    perm = []
    for j in range(n):
        perm.append(n + j if j < q else j)
    for j in range(n):
        perm.append(j if j < q else n + j)
    return perm


def _relabel2(t, perm):
    dim = len(perm)
    return tuple(tuple(t[perm[a]][perm[b]] for b in range(dim)) for a in range(dim))


def _relabel3(t, perm):
    dim = len(perm)
    return tuple(tuple(tuple(t[perm[a]][perm[b]][perm[c]] for c in range(dim))
                       for b in range(dim)) for a in range(dim))


def _relabel4(t, perm):
    dim = len(perm)
    return tuple(tuple(tuple(tuple(t[perm[a]][perm[b]][perm[c]][perm[d]]
                                   for d in range(dim)) for c in range(dim))
                       for b in range(dim)) for a in range(dim))
