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

Every covariant derivative and curvature the jet stores is read at the base
point by one helper, `_cov0`: the derivative of a series tensor at 0 plus one
Christoffel correction per transported slot, from each connection's values
at 0, computed once and visited only where they and the tensor are nonzero.
A covariant derivative that is differentiated once more (nabla RL for dRL2,
the Bismut nabla J for nablaB2J) is first formed as a series; its value at 0
is the first derivative.

Reality.  For a real potential, the metric derivatives, both connections,
the torsion, the curvatures, nabla J and every base-point derivative are
real: T[c(i1)]..[c(ik)] = conj T[i1]..[ik] with c(a) = (a + n) mod 2n.
R = d dbar phi and its covariant derivatives are imaginary (a minus sign).
Each of these stages but the forms (below) builds the entries whose first
index is < n and mirrors the rest through `_real`; exact,
conjugation-equivariant arithmetic makes them the entries a direct build
gives.
A stage read only by a contraction of its last slot (`_contract_real`) is
not mirrored at all: the contraction reads the first half and mirrors its
own result.

Independent entries.  The metric is formed on its holomorphic block.  With
B(U, V) = omega(U, J_std V) and omega = (i / 2 pi) R, the endomorphism M = 2B
with rows moved by part(a) = (a + n) mod 2n is block diagonal, diag(H, H^T)
with H[a][b] = R[b][n+a] / pi.  So g_endo = sqrt(M M) = diag(S, S^T) for
S = sqrt(H H), and its inverse is diag(S^-1, (S^-1)^T): one square root and
one inverse on n x n series matrices, and the off-diagonal blocks are zero
series of cap 2.  The totally antisymmetric tensors Tas, SB and dTas are
built by `_form` on increasing index words only; every permutation of a word
gets the word's value times its sign, and a word with a repeated index gets
a zero of the entries' cap.

Stages.  `jet_from_potential` runs its stages in dependency order:
  1. the curvature form RL = d dbar phi and the metric g, g^-1;
  2. the Levi-Civita Christoffels;
  3. the Levi-Civita curvature: RTX, rX;
  4. the normal-coordinate derivatives of RL, dRL1 and dRL2, read off its
     covariant derivatives and the curvature; then the structure map J;
  5. the Chern connection and the torsion: trRT10, Tas, covTas, dTas, SB,
     and the Bismut Christoffels;
  6. nabla J and the Bismut curvature: nablaXJ, nablaBJ, nablaB2J, RB;
  7. the auxiliary curvature RE.
The rule: freeze each field into the xi frame (`_relabel`) as soon as it is
final, and drop each intermediate after its last reader, by a stage helper's
return or by `del`.  A build then holds little beyond the finished fields and
the series of the stage at hand.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, reduce
from itertools import combinations, combinations_with_replacement, permutations, product
from operator import getitem

from .errors import (
    DegenerateCurvatureError,
    InvalidJetError,
    InvalidPotentialError,
    TruncationInsufficientError,
)
from .scalars import ExactScalar, _ratio_str, rat, sum_products
from .series import (
    Series,
    mat_inverse,
    mat_mul,
    mat_sqrt,
    mat_zero,
    monomial,
)

Tensor1 = tuple[ExactScalar, ...]
Tensor2 = tuple[Tensor1, ...]
Tensor3 = tuple[Tensor2, ...]
Tensor4 = tuple[Tensor3, ...]

_ZERO = ExactScalar.zero()
_ONE = ExactScalar.one()
_MINUS_ONE = rat(-1)
_HALF = rat("1/2")
_MINUS_HALF = rat("-1/2")
_TWO = rat(2)
_THIRD = rat("1/3")
_INV_PI = ExactScalar.pi(-1)
_I_OVER_2PI = ExactScalar.rational(0, "1/2", -1)


# ---------------------------------------------------------------------------
# potential parsing and generators
# ---------------------------------------------------------------------------

_FACTOR_RE = re.compile(r"(z|zb)([0-9]{1,9})(?:\^([0-9]{1,9}))?")


def parse_potential(data: dict[str, object], n: int) -> Series:
    """Build a series truncated at degree 4 from a monomial-coefficient map.

    Keys are space-separated factors `z<j>` / `zb<j>` with optional `^k`,
    1-based, e.g. "z1^2 zb1 zb2"; values are scalar payloads accepted by
    :meth:`ExactScalar.from_json` (plain "p/q" strings included).  A map
    that is not a dict, a bad key or a bad coefficient raises
    InvalidPotentialError, which is a ValueError.
    """
    if not isinstance(data, dict):
        raise InvalidPotentialError("a potential must be a JSON object")
    terms: dict[tuple[int, ...], ExactScalar] = {}
    for key, payload in data.items():
        exps = [0] * (2 * n)
        for factor in key.split():
            m = _FACTOR_RE.fullmatch(factor)
            if not m:
                raise InvalidPotentialError(f"bad monomial factor {factor!r}")
            kind, idx, power = m.group(1), int(m.group(2)), int(m.group(3) or 1)
            if not 1 <= idx <= n:
                raise InvalidPotentialError(f"variable index out of range in {factor!r}")
            pos = idx - 1 + (n if kind == "zb" else 0)
            exps[pos] += power
        try:
            c = ExactScalar.from_json(payload)
        except ValueError as exc:
            raise InvalidPotentialError(f"bad coefficient of {key!r}: {exc}") from None
        e = tuple(exps)
        terms[e] = terms.get(e, _ZERO) + c
    return Series(2 * n, 4, terms)


def flat_potential(n: int, q: int) -> Series:
    """The exact model potential: curvature constant, all derived tensors zero."""
    return Series(2 * n, 4, {monomial(2 * n, j, n + j): ExactScalar.pi(1, -1 if j < q else 1)
                             for j in range(n)})


def fs_product_potential(n: int, q: int) -> Series:
    """Product of Fubini-Study factors, negative on the first q directions.

    Each factor is the degree-4 truncation of +-log(1 + pi |z_j|^2) in
    normalized coordinates: +-(pi |z_j|^2 - pi^2 |z_j|^4 / 2).
    """
    terms = dict(flat_potential(n, q).terms)
    for j in range(n):
        terms[monomial(2 * n, j, j, n + j, n + j)] = ExactScalar.pi(2, "1/2" if j < q else "-1/2")
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

    def small() -> str:
        return f"{rng.randint(-2, 2)}/{rng.choice([1, 2, 3])}"

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
    """The exponent tuples of each degree in turn, increasing within a degree:
    this order decides `random_potential`'s draws."""
    return [monomial(nvars, *slots) for d in degrees
            for slots in reversed([*combinations_with_replacement(range(nvars), d)])]


# ---------------------------------------------------------------------------
# the jet container
# ---------------------------------------------------------------------------

JET_SCHEMA = "bergman-jet/1"

# The tensor fields of a jet with their ranks; every slot runs over 0..2n-1.
# The entries of RE are rk_e x rk_e matrices.
_TENSOR_FIELDS = {
    "dRL1": 3, "dRL2": 4, "RTX": 4, "RE": 2, "trRT10": 2, "Tas": 3, "covTas": 4,
    "dTas": 4, "nablaXJ": 3, "nablaBJ": 3, "nablaB2J": 4, "SB": 3, "RB": 4,
}


def _allzero(t) -> bool:
    if isinstance(t, ExactScalar):
        return t.is_zero()
    return all(_allzero(x) for x in t)


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

    @cached_property
    def jet_id(self) -> str:
        """The first 16 hex digits of the sha256 of the compact text, hashed
        when first read or while the file text is written: a jet whose id is
        never read and that is never written is never hashed."""
        return _hashed(self)

    def is_torsion_free(self) -> bool:
        return _allzero(self.Tas) and _allzero(self.covTas) and _allzero(self.dTas)

    # -- serialization -------------------------------------------------------

    def to_text(self, *, file: bool = False) -> str:
        """The jet's canonical JSON text, written straight from its scalars.

        By default the compact text without `jet_id` (sorted keys, separators
        "," and ":"): its sha256 defines the id.  With `file=True` the jet
        file: sorted keys, indent 1, `jet_id` included, no trailing newline.
        Both are byte for byte what `json.dumps` writes of the jet's JSON
        body with those options.
        """
        return "".join(self.to_pieces(file=file))

    def to_pieces(self, *, file: bool = False) -> list[str]:
        """`to_text` in pieces, one key or one field value each.  A file's
        walk also hashes the compact text, field by field, if the id is not
        yet known."""
        pieces: list[str] = []
        layout = (2 if file else None, pieces.append)
        if file and "jet_id" not in self.__dict__:
            self.__dict__["jet_id"] = _hashed(self, layout)
        else:
            _emit(self, layout)
        if file:
            pieces[_ID_AT:_ID_AT] = [',\n "jet_id": ', json.dumps(self.jet_id)]
        return pieces

    @classmethod
    def from_json(cls, data: object) -> "GeometryJet":
        """Check the schema and every shape; a `jet_id` in `data` is ignored, the
        loaded jet's own is computed from its values when first read.  Each
        distinct payload is parsed once, so equal entries share one scalar."""
        if not isinstance(data, dict):
            raise InvalidJetError("a jet must be a JSON object")
        if data.get("schema") != JET_SCHEMA:
            raise InvalidJetError(f"unknown jet schema {data.get('schema')!r}")
        missing = [k for k in ("n", "q", "rk_e", "rX", *_TENSOR_FIELDS) if k not in data]
        if missing:
            raise InvalidJetError(f"jet is missing {', '.join(missing)}")
        n, q, rk_e = data["n"], data["q"], data["rk_e"]
        if (not all(type(v) is int for v in (n, q, rk_e))
                or n < 1 or not 0 <= q <= n or rk_e < 1):
            raise InvalidJetError(f"bad jet dimensions n={n!r}, q={q!r}, rk_e={rk_e!r}")
        memo: dict[str, ExactScalar] = {}
        tensors = {}
        for name, rank in _TENSOR_FIELDS.items():
            matrix = (rk_e, rk_e) if name == "RE" else ()
            tensors[name] = _load(data[name], (2 * n,) * rank + matrix, name, memo)
        return cls(n=n, q=q, rk_e=rk_e, rX=_load_scalar(data["rX"], "rX", memo), **tensors)


_FRAME = "xi-adapted complex frame; index a<n is d/dxi_{a+1}, a+n its conjugate"


@lru_cache(maxsize=None)  # one entry per nesting level of the schema
def _punctuation(level: int | None):
    """Open, separator and close of a non-empty list whose items sit at indent
    `level` (None: the compact layout), and the formatter of a scalar item there."""
    if level is None:
        return "[", ",", "]", '{{"im":"{}","pi_pow":{},"re":"{}"}}'.format
    inner, key = "\n" + " " * level, "\n" + " " * (level + 1)
    return ("[" + inner, "," + inner, "\n" + " " * (level - 1) + "]",
            ("{{" + key + '"im": "{}",' + key + '"pi_pow": {},' + key + '"re": "{}"'
             + inner + "}}").format)


# The keys of a jet's JSON body but `jet_id`, sorted, and what precedes each
# one's value in the compact layout (None) and the file layout (2).
_BODY_KEYS = sorted(("frame", "n", "q", "rX", "rk_e", "schema", *_TENSOR_FIELDS))
_KEY_PIECES = {
    level: {k: ("{" if i == 0 else ",") + indent + json.dumps(k) + colon
            for i, k in enumerate(_BODY_KEYS)}
    for level, indent, colon in ((None, "", ":"), (2, "\n ", ": "))}
_ID_AT = 2 * sum(k < "jet_id" for k in _BODY_KEYS)  # where a file's id goes in its pieces
_CONSTANTS = {"frame": json.dumps(_FRAME), "schema": json.dumps(JET_SCHEMA)}


def _emit(jet: GeometryJet, *layouts) -> None:
    """Write the jet's JSON body, `jet_id` left out, in each layout `(level,
    sink)`, all in one walk: field by field in sorted-key order, each sink
    called with the key's piece, then the whole text of the value, and at
    last the closing brace.

    A layout is the compact one (level None) or the file's (level 2).
    """
    levels = [level for level, _ in layouts]
    for key in _BODY_KEYS:
        value = _CONSTANTS[key] if key in _CONSTANTS else getattr(jet, key)
        rank = _TENSOR_FIELDS.get(key)
        if rank is not None:
            rank += 2 * (key == "RE")
            outs: list[list[str]] = [[] for _ in layouts]
            _text(value, rank, _layers(levels, rank), outs)
            texts = ["".join(out) for out in outs]
        elif key == "rX":
            texts = [_payload(value, *_punctuation(level)) for level in levels]
        else:
            texts = [str(value)] * len(layouts)
        for (level, sink), text in zip(layouts, texts):
            sink(_KEY_PIECES[level][key])
            sink(text)
    for level, sink in layouts:
        sink("}" if level is None else "\n}")


def _hashed(jet: GeometryJet, *layouts) -> str:
    """`_emit` into `layouts` and, in the same walk, the compact text into a
    sha256, one field at a time: the id, the first 16 hex digits."""
    digest = hashlib.sha256()
    _emit(jet, *layouts, (None, lambda text: digest.update(text.encode())))
    return digest.hexdigest()[:16]


def _layers(levels: list, rank: int) -> list:
    """How `_text` writes a field `rank` deep whose items sit at indent
    `levels[i]` in layout i: at index r >= 1, per layout, the open,
    separator and close of the lists r deep; at index 0 the scalar
    formatter of each layout, an empty memo of scalar texts and the texts
    of zero.

    The memo lasts one field: kept over a whole dense (3,2) jet file, it
    held 0.78 MB of texts, more than the file itself."""
    layers: list = [None] * (rank + 1)
    for r in range(rank, 0, -1):
        layers[r] = [_punctuation(level)[:3] for level in levels]
        levels = [None if level is None else level + 1 for level in levels]
    layers[0] = ([_punctuation(level) for level in levels], {}, ["[]"] * len(levels))
    return layers


def _text(t, rank: int, layers: list, outs: list[list[str]]) -> None:
    """Append the JSON text of `t`, nested tuples `rank` >= 2 deep over
    scalars, to `outs[i]` in layout i of `layers` (see `_layers`), as
    `json.dumps` of their payloads writes it.

    The memo maps a scalar's fields to its texts in the field: a jet repeats
    most of its values (a dense (3,2) jet holds about 1,600 distinct values
    in 4,000 nonzero entries).
    """
    layer = layers[rank]
    if rank > 2:
        for i, x in enumerate(t):
            for out, punct in zip(outs, layer):
                out.append(punct[1] if i else punct[0])
            _text(x, rank - 1, layers, outs)
    else:
        formats, memo, zero = layers[0]
        for i, scalars in enumerate(t):
            row = []
            for s in scalars:
                if not s._num:  # about half of a jet's entries are zero
                    row.append(zero)
                    continue
                key = (s._den, *s._num.items())
                texts = memo.get(key)
                if texts is None:
                    texts = memo[key] = [_payload(s, *punct) for punct in formats]
                row.append(texts)
            for out, punct, (start, sep, end), texts in zip(outs, layer, layers[1], zip(*row)):
                out.append(punct[1] if i else punct[0])
                out.append(start + sep.join(texts) + end)
    for out, punct in zip(outs, layer):
        out.append(punct[2])


def _payload(s: ExactScalar, start: str, sep: str, end: str, item) -> str:
    """The text of `s.to_json()`, one {"im", "pi_pow", "re"} item per pi-power."""
    num, den = s._num, s._den
    if not num:
        return "[]"
    return start + sep.join([item(_ratio_str(b, den), k, _ratio_str(a, den))
                             for k, (a, b) in sorted(num.items())]) + end


def _load(t: object, shape: tuple[int, ...], name: str, memo: dict):
    """Nested tuples of scalars from JSON, checked against `shape`."""
    if not isinstance(t, list) or len(t) != shape[0]:
        raise InvalidJetError(f"{name} does not have the shape of the jet: "
                              f"expected a list of {shape[0]} entries")
    if len(shape) > 1:
        return tuple([_load(x, shape[1:], name, memo) for x in t])
    # about half of a jet's payloads are [], the zero scalar
    return tuple([_ZERO if x == [] else _load_scalar(x, name, memo) for x in t])


def _load_scalar(t: object, name: str, memo: dict) -> ExactScalar:
    """The scalar of a payload, parsed once per `memo`: keyed by `repr`, so
    `True` and `1` and `"1"` are distinct payloads."""
    key = repr(t)
    s = memo.get(key)
    if s is None:
        try:
            s = memo[key] = ExactScalar.from_json(t)
        except ValueError as exc:
            raise InvalidJetError(f"bad scalar in {name}: {exc}") from None
    return s


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

_CAP = 2  # all derived fields need at most two more derivatives at 0


def jet_from_potential(phi_l: Series, phi_e: Series | None = None, *,
                       n: int, q: int, rk_e: int = 1) -> GeometryJet:
    """Run the full truncated-series pipeline on a normalized potential, stage
    by stage (see the module docstring)."""
    if not 0 <= q <= n:
        raise ValueError("signature index out of range")
    dim = 2 * n
    if phi_l.nvars != dim:
        raise ValueError("potential variable count does not match n")
    if phi_l.cap < 4:
        raise TruncationInsufficientError("potential must be truncated at degree 4")
    if phi_l.conj() != phi_l:
        raise DegenerateCurvatureError("potential is not real")
    if phi_e is not None and phi_e.conj() != phi_e:
        raise DegenerateCurvatureError("auxiliary potential is not real")
    _check_hessian(phi_l, n, q)

    # xi-frame slot a is the z-frame slot (a + n) mod 2n if a mod n < q, else a
    xi = [*range(n, n + q), *range(q, n), *range(q), *range(n + q, dim)]
    fields = {}

    def freeze(name, t):
        fields[name] = _relabel(t, xi, _TENSOR_FIELDS[name])

    # 1. curvature 2-form of the line bundle, R = d dbar phi, and the metric
    RL = mat_zero(dim, dim, _CAP)
    for a in range(n):
        for b in range(n):
            d2 = _deriv(_deriv(phi_l, a), n + b).truncate(_CAP)
            RL[a][n + b] = d2
            RL[n + b][a] = -d2
    g, ginv = _metric(RL, n)
    g0, ginv0 = _at0(g), _at0(ginv)

    # 2. Levi-Civita data
    gamma = _christoffels(g, ginv)
    gam0 = _at0(gamma)

    # 3. the Levi-Civita curvature, R(e_a, e_b) e_c with its output slot raised
    r_up = _real(_curvature(gamma, gam0), dim)
    rtx = _contract_real(_firsts(r_up), g0)
    freeze("RTX", rtx)
    rX = _scalar_curvature(rtx, ginv0)
    del rtx

    # 4. normal-coordinate derivatives of the line-bundle curvature
    drl1, drl2 = _normal_derivatives(RL, gamma, gam0, r_up)
    del r_up
    freeze("dRL1", drl1)
    freeze("dRL2", drl2)
    del drl1, drl2

    # the structure map: omega(U, V) = g(J U, V), so J[a][c] = J^c_a = omega_ab g^bc;
    # omega = (i / 2 pi) R is formed on the rows a < n that the contraction reads
    J = _contract_real(_subtables(dim, 2, lambda a, b: RL[a][b].scale(_I_OVER_2PI)), ginv)
    del RL

    # 5. the torsion of the Chern connection on the holomorphic tangent bundle
    gamma_ch = _chern_connection(g, ginv, n)
    freeze("trRT10", _chern_trace_form(gamma_ch, n))
    # every entry of the forms Tas and SB has the cap of the torsion, a first
    # derivative of the metric: their zero entries carry it too
    tzero = Series.zero(dim, _CAP - 1)
    tas = _antisym_torsion(gamma_ch, g, n, tzero)
    del gamma_ch, g
    lc, lc_up = (gam0, False), (gam0, True)
    freeze("Tas", _at0(tas))
    freeze("covTas", _real(partial(_cov0, tas, [lc, lc, lc]), dim))
    freeze("dTas", _ext_deriv3(tas))
    sb_low = _form(dim, 3, lambda a, b, c: tas[a][b][c].scale(_MINUS_HALF), tzero)
    del tas
    freeze("SB", _at0(sb_low))
    sb_up = _contract_real(_firsts(sb_low), ginv)
    del sb_low, ginv
    gamma_b = _real_table(dim, 3, lambda a, b, d: gamma[a][b][d] + sb_up[a][b][d])
    del sb_up, gamma
    gamb0 = _at0(gamma_b)

    # 6. nabla J and the Bismut curvature.  nablaB2J moves its direction slot
    # with Levi-Civita and its J slots with Bismut: under that convention its
    # antisymmetrization is the curvature commutator.
    bis, bis_up = (gamb0, False), (gamb0, True)
    freeze("nablaXJ", _contract_real(partial(_cov0, J, [lc, lc_up]), g0))
    # the Bismut-side nabla J keeps its series: nablaB2J differentiates it
    nbj = _nabla_J(J, gamma_b)
    del J
    freeze("nablaBJ", _contract_real(_firsts(_at0(nbj)), g0))
    freeze("nablaB2J", _contract_real(partial(_cov0, nbj, [lc, bis, bis_up]), g0))
    del nbj
    freeze("RB", _contract_real(_curvature(gamma_b, gamb0), g0))

    # 7. the auxiliary bundle
    freeze("RE", _aux_curvature(phi_e, n, rk_e))
    return GeometryJet(n=n, q=q, rk_e=rk_e, rX=rX, **fields)


def _check_hessian(phi: Series, n: int, q: int) -> None:
    flat = flat_potential(n, q)
    for j in range(n):
        for k in range(n):
            e = monomial(2 * n, j, n + k)
            c, want = phi.coeff(e), flat.coeff(e)
            if c != want:
                raise DegenerateCurvatureError(
                    f"mixed Hessian entry ({j+1},{k+1}) is {c}, expected {want}; "
                    "normalize the potential first")


# -- tensor helpers -------------------------------------------------------------


def _table(dim: int, rank: int, fn) -> list:
    """Nested lists of fn(i_1, .., i_rank) over 0 <= i < dim."""
    if rank == 1:
        return [fn(a) for a in range(dim)]
    return [_table(dim, rank - 1, partial(fn, a)) for a in range(dim)]


def _form(dim: int, rank: int, fn, zero) -> list:
    """`_table(dim, rank, fn)` of a totally antisymmetric tensor: fn is called
    on the increasing index words only, each permutation of a word gets its
    value times the permutation's sign, and every word with a repeated index
    gets `zero` (a series form's zero must carry the cap of its entries)."""
    out = {}
    for word in combinations(range(dim), rank):
        v = fn(*word)
        signed = (v, -v)
        for perm, odd in _signed_permutations(rank):
            out[tuple([word[p] for p in perm])] = signed[odd]
    return _table(dim, rank, lambda *idx: out.get(idx, zero))


@lru_cache(maxsize=None)
def _signed_permutations(rank: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Each permutation of range(rank) with its parity, 1 if odd."""
    return tuple((p, sum(p[i] > p[j] for i, j in combinations(range(rank), 2)) % 2)
                 for p in permutations(range(rank)))


def _real(build, dim: int, sign: int = 1) -> list:
    """The real (sign = 1) or imaginary (sign = -1) tensor t whose subtensors
    t[a], a in `firsts`, are `build(firsts)`: t[a] is built for a < n only, and
    t[c(i1)]..[c(ik)] = sign conj t[i1]..[ik] with c(a) = (a + n) mod 2n."""
    n = dim // 2
    half = build(range(n))
    swap = [*range(n, dim), *range(n)]
    return half + [_mirror(t, swap, sign) for t in half]


def _mirror(t, swap: list[int], sign: int):
    """sign conj t with every slot index a read at swap[a]; zeros are reused."""
    if isinstance(t, list):
        return [_mirror(t[a], swap, sign) for a in swap]
    if t.is_zero():
        return t
    c = t.conj() if isinstance(t, Series) else t.conjugate()
    return c if sign == 1 else -c


def _real_table(dim: int, rank: int, fn) -> list:
    """`_table(dim, rank, fn)` of a real tensor, through `_real`."""
    return _real(_subtables(dim, rank, fn), dim)


def _subtables(dim: int, rank: int, fn):
    """The build function, as `_real` takes it, of `_table(dim, rank, fn)`."""
    return lambda firsts: [_table(dim, rank - 1, partial(fn, a)) for a in firsts]


def _firsts(t):
    """The build function, as `_real` takes it, of a tensor already formed."""
    return lambda firsts: [t[a] for a in firsts]


def _at0(t):
    """Values at the base point of nested lists of series."""
    if isinstance(t, Series):
        return t.value0()
    return [_at0(x) for x in t]


def _deriv(s: Series, a: int) -> Series:
    """d s / d w_a, capped one degree below `s`: higher terms are unknown."""
    return s.diff(a).truncate(s.cap - 1)


def _d0(s: Series, *slots: int) -> ExactScalar:
    """A first or mixed second partial derivative of `s` at the base point."""
    return s.terms.get(monomial(s.nvars, *slots), _ZERO)


def _contract_last(t, m):
    """Contract the last slot of `t` with the first slot of the matrix `m`.

    With m = g(0) this lowers an index of values at the base point; with the
    series inverse metric it raises an index of series.  Each entry is one
    fused sum over the nonzero factor pairs, the nonzero entries of each
    column of a value matrix listed once; a series sum keeps the minimum cap
    of all its factors.
    """
    rows = _rows(t)
    if isinstance(rows[0][0], Series):
        out = mat_mul(rows, m)
    else:
        cols = [[(r, v) for r, v in enumerate(col) if not v.is_zero()] for col in zip(*m)]
        out = [[sum_products([(row[r], v) for r, v in col]) for col in cols] for row in rows]
    return _nest(t, iter(out))


def _contract_real(build, m):
    """`_contract_last(t, m)` of a real tensor t and matrix m, through `_real`;
    t is given by its build function, so only the subtensors t[a] the
    contraction reads, a < n, are built."""
    return _real(lambda firsts: _contract_last(build(firsts), m), len(m))


def _rows(t) -> list:
    """The last-slot vectors of a tensor of nested lists, in order."""
    return [r for x in t for r in _rows(x)] if isinstance(t[0], list) else [t]


def _nest(t, rows):
    """The vectors of the iterator `rows` nested as the last-slot vectors of `t`."""
    return [_nest(x, rows) for x in t] if isinstance(t[0], list) else next(rows)


def _relabel(t, xi: list[int], rank: int) -> tuple:
    """Freeze `t` to nested tuples with each of its first `rank` slot indices
    a read at xi[a]; deeper levels, such as the matrices of RE, pass through."""
    if rank == 1:
        return tuple([t[a] for a in xi])
    return tuple([_relabel(t[a], xi, rank - 1) for a in xi])


# -- the geometric stages -------------------------------------------------------


def _metric(RL, n):
    """The metric and its inverse as series, formed on the holomorphic block
    of the curvature form (see the module docstring)."""
    H = [[RL[b][n + a].scale(_INV_PI) for b in range(n)] for a in range(n)]
    S = mat_sqrt(mat_mul(H, H))
    S_inv = mat_inverse(S)  # S(0) = I, so it has a binomial inverse
    zeros = [Series.zero(2 * n, _CAP)] * n
    g = ([zeros + [S[b][a].scale(_HALF) for b in range(n)] for a in range(n)]
         + [[s.scale(_HALF) for s in row] + zeros for row in S])
    ginv = ([zeros + [s.scale(_TWO) for s in row] for row in S_inv]
            + [[S_inv[b][a].scale(_TWO) for b in range(n)] + zeros for a in range(n)])
    return g, ginv


def _christoffels(g, ginv):
    dim = len(g)
    dg = _real_table(dim, 3, lambda a, b, c: _deriv(g[b][c], a))
    low = lambda a, b, c: (dg[a][b][c] + dg[b][a][c] - dg[c][a][b]).scale(_HALF)
    return _contract_real(_subtables(dim, 3, low), ginv)


def _chern_connection(g, ginv, n):
    """Christoffels of the Chern connection of h[j][k] = g[j][n+k], the
    Hermitian metric on the holomorphic tangent bundle."""
    h = _table(n, 2, lambda j, k: g[j][n + k])
    # g pairs unbarred with barred slots only, so h^-1 is a block of g^-1
    hinv = _table(n, 2, lambda j, k: ginv[n + j][k])
    return _contract_last(_table(n, 3, lambda i, j, l: _deriv(h[j][l], i)), hinv)


def _curvature(gamma, gam0):
    """R(e_a, e_b) e_c at the base point, output slot last and raised, as the
    build function that `_real` and `_contract_real` take: the Levi-Civita
    one feeds RTX and dRL2, the Bismut one RB.

    X = d_a Gamma^e_bc + Gamma^e_af Gamma^f_bc is the base-point derivative
    of Gamma with its output slot transported; R is its antisymmetrization.
    """
    dim = len(gamma)
    x = _real(partial(_cov0, gamma, [None, None, (gam0, True)]), dim)
    return _subtables(dim, 4, lambda a, b, c, e: x[a][b][c][e] - x[b][a][c][e])


def _scalar_curvature(rtx, ginv0) -> ExactScalar:
    """g^ab g^cd R_cabd at the base point."""
    dim = len(ginv0)
    pairs = [(a, b) for a in range(dim) for b in range(dim) if not ginv0[a][b].is_zero()]
    r = _ZERO
    for a, b in pairs:
        for c, d in pairs:
            r = r + ginv0[a][b] * ginv0[c][d] * rtx[c][a][b][d]
    return r


def _chern_trace_form(gamma_ch, n):
    """Trace 2-form of the holomorphic-tangent curvature; mixed slots only."""
    out = [[_ZERO] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for m in range(n):
            v = sum((_d0(gamma_ch[i][j][j], n + m) for j in range(n)), _ZERO)
            out[i][n + m] = -v
            out[n + m][i] = v
    return out


def _antisym_torsion(gamma_ch, g, n, zero):
    """Total antisymmetrization of the Chern-connection torsion, as a series
    3-form whose entries with a repeated index are `zero`: the cyclic sum of
    the lowered torsion, which is antisymmetric in its first two slots."""
    dim = 2 * n
    mixed = Series.zero(dim, _CAP)

    def tvec(i, j, k):  # the (1,0) torsion block and its conjugate
        if max(i, j, k) < n:
            return gamma_ch[i][j][k] - gamma_ch[j][i][k]
        # `_contract_real` builds the slices i < n only, so the pipeline never
        # reads the conjugate block; a build of every slice without `_real` does
        return tvec(i - n, j - n, k - n).conj() if min(i, j, k) >= n else mixed

    low = _contract_real(_subtables(dim, 3, tvec), g)
    return _form(dim, 3, lambda a, b, c: low[a][b][c] + low[b][c][a] + low[c][a][b], zero)


def _nabla_J(J, gamma):
    """Series of nabla J, output slot last: [a][b][c] = (nabla_a J)^c_b,
    that is d_a J + J Gamma_a - Gamma_a J with (Gamma_a)[b][d] = Gamma^d_ab.

    Each entry keeps the minimum cap of all its operands, zero ones included.
    """
    dim = len(gamma)

    def row(a):
        left, right = mat_mul(J, gamma[a]), mat_mul(gamma[a], J)
        return _table(dim, 2, lambda b, c: _deriv(J[b][c], a) + left[b][c] - right[b][c])

    return _real(lambda firsts: [row(a) for a in firsts], dim)


def _cov0(t, slots, firsts):
    """Covariant derivative at the base point of a series tensor, derivative
    slot first: its subtensors whose derivative index is in `firsts`, as
    `_real` builds them.

    `slots` has one entry per slot of `t`: None leaves the slot alone, and
    (gam0, raised) transports it with the connection whose values at 0 are
    gam0[m][a][b] = Gamma^b_ma.  A lowered slot i adds -Gamma^f_mi t_(..f..),
    a raised slot i adds +Gamma^i_mf t^(..f..).  Only nonzero series of t,
    nonzero Christoffel values and nonzero entries of t(0) are visited, and
    each output entry with corrections is one fused sum of them and the
    derivative.
    """
    dim, rank = len(t), len(slots)
    entries = [(idx, s) for idx in product(range(dim), repeat=rank)
               if not (s := reduce(getitem, idx, t)).is_zero()]
    # d_m t at 0 is the coefficient of w_m; only the nonzero ones are kept
    units = [monomial(dim, m) for m in range(dim)]
    t0 = [(idx, v) for idx, s in entries if not (v := s.value0()).is_zero()]

    out = {(m, *idx): c for idx, s in entries for m in firsts
           if (c := s.terms.get(units[m])) is not None}
    pairs: dict[tuple[int, ...], list] = {}
    for p, slot in enumerate(slots):
        if slot is None:
            continue
        gam0, raised = slot
        # moves[f]: (m, i, c) for each term c t_(..f..) that slot index i receives
        moves = [[] for _ in range(dim)]
        for m, i, f in product(firsts, range(dim), range(dim)):
            c = gam0[m][f][i] if raised else gam0[m][i][f]
            if not c.is_zero():
                moves[f].append((m, i, c if raised else -c))
        for idx, v in t0:
            for m, i, c in moves[idx[p]]:
                key = (m, *idx[:p], i, *idx[p + 1:])
                if key not in pairs:
                    d = out.get(key)
                    pairs[key] = [] if d is None else [(d, _ONE)]
                pairs[key].append((c, v))
    for key, terms in pairs.items():
        out[key] = sum_products(terms)
    return [_table(dim, rank, lambda *idx: out.get((m, *idx), _ZERO)) for m in firsts]


def _ext_deriv3(t):
    """Exterior derivative at the base point of a series 3-form, a 4-form;
    each entry is one fused sum of its four signed first derivatives."""
    return _form(len(t), 4, lambda a, b, c, d: sum_products([
        (_d0(t[b][c][d], a), _ONE), (_d0(t[a][c][d], b), _MINUS_ONE),
        (_d0(t[a][b][d], c), _ONE), (_d0(t[a][b][c], d), _MINUS_ONE)]), _ZERO)


def _aux_curvature(phi_e, n, rk_e):
    def diag(v):
        return tuple(tuple(v if r == c else _ZERO for c in range(rk_e)) for r in range(rk_e))

    out = [[diag(_ZERO)] * (2 * n) for _ in range(2 * n)]
    if phi_e is not None and not phi_e.is_zero():
        for a in range(n):
            for b in range(n):
                v = _d0(phi_e, a, n + b)
                out[a][n + b] = diag(v)
                out[n + b][a] = diag(-v)
    return out


def _normal_derivatives(RL, gamma, gam0, r_up):
    """First and second derivatives at the base point of the curvature form
    in normal coordinates, dRL1 and dRL2, read off its covariant derivatives.

    In normal coordinates Gamma(0) = 0 and, with r_up[a][b][c][e] =
    (R(e_a, e_b) e_c)^e, d_k Gamma^m_lc(0) = (r_up[k][l][c][m] + r_up[k][c][l][m]) / 3.
    So d_k RL_ab = nabla_k RL_ab and
        d_k d_l RL_ab = nabla_k nabla_l RL_ab + d_k Gamma^m_la RL_mb + d_k Gamma^m_lb RL_am.
    RL(0) pairs each slot only with its partner, so each correction is one
    product.  Each unordered pair (k, l) is built once and shared.
    """
    dim = len(RL)
    part = [(a + dim // 2) % dim for a in range(dim)]

    def nabla(firsts):
        # nabla_k RL_ab = d_k RL_ab - P[k][a][b] + P[k][b][a] with P[k] = gamma[k] RL:
        # RL is skew, so the correction of slot b is that of slot a transposed
        p = mat_mul([gamma[k][a] for k in firsts for a in range(dim)], RL)
        return [_table(dim, 2, lambda a, b: _deriv(RL[a][b], k) - p[i + a][b] + p[i + b][a])
                for i, k in zip(range(0, len(p), dim), firsts)]

    # RL and its covariant derivatives are imaginary
    nrl = _real(nabla, dim, -1)
    lc = (gam0, False)
    nnrl = _real(partial(_cov0, nrl, [lc, lc, lc]), dim, -1)
    drl1 = _at0(nrl)
    del nrl
    # w[b] = RL_mb(0) / 3 for the partner m of b; RL_am(0) / 3 = -w[a]
    w = [RL[part[b]][b].value0() * _THIRD for b in range(dim)]
    mw = [-x for x in w]

    def second(k, l):
        r_kl, r_k = r_up[k][l], r_up[k]
        return _table(dim, 2, lambda a, b: sum_products([
            (nnrl[k][l][a][b], _ONE),
            (r_kl[a][part[b]], w[b]), (r_k[a][l][part[b]], w[b]),
            (r_kl[b][part[a]], mw[a]), (r_k[b][l][part[a]], mw[a])]))

    pairs = {kl: second(*kl) for kl in combinations_with_replacement(range(dim), 2)}
    del nnrl
    return drl1, _table(dim, 2, lambda k, l: pairs[min(k, l), max(k, l)])
