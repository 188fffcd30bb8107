"""Adaptive quadrature for the growth functionals, envelopes and divergence probes.

The growth bounds used by the certificate checkers are built from two
exponential-weighted integrals of time-only functions u, v, x over [t1, t]:

    iplus(u, v):   integral of exp(-int_{t1}^{tau} v) / u(tau) d tau
    iminus(v, x):  integral of exp(-int_{tau}^{t} v) * x(tau) d tau

and from the envelopes

    F = |c1| * exp(c2 * iplus(P, Q) - int_{t1}^{t} iminus(Q, R)(tau) / P(tau) d tau)
    G = |c1| * exp(c2 * iplus(P, Q) + int_{t1}^{t} x(tau) / P(tau) d tau)

Naive evaluation of the nesting is quadratic in the number of quadrature
nodes, which matters because the envelopes are evaluated on whole time grids
inside hypothesis sweeps.  One memo, :class:`CumulativeChain`, carries every
such integral.  It holds the antiderivatives of a lower-triangular chain of
integrands on a growing set of knots, and a query walks only the gap from the
nearest knot.  Each level is a node-wise expression over the samples'
columns and the inner levels, and the inner levels are read at the 15
Kronrod nodes through the panel's node integration matrix, so no integrand
ever queries another memo.  Each layout of levels has one adaptive walk,
its GK15 panel written into the loop, as straight code compiled on its
first use (``_walk_source``; nothing is compiled at import); a chain's
query, ``adaptive_quad`` and each anchored gap are one call of it, and the
oracles' samplers are called once per panel, not per node.  A walk
over closed-form columns writes their sources into its nodes and takes a
constant one, and the sums of a level that is one, once per walk built
(``_walker``); walks of one shape share a compile.  A node integral is one
left-to-right sum, the same bits on every interpreter.

Every integral here is one walk of the chain's: adaptive GK15 panels taken in
order from one end of a gap to the other, with the QUADPACK acceptance test
(|K15 - G7| against the gap's budget, shared out by length; Piessens et al.,
1983).  A rejected panel is halved, and the half nearer the walk's start is
taken first.  The users:

* the envelopes, one chain each: ``FBound`` (V = int Q, iplus, W = int e^V R
  and the outer integral of e^-V W / P) and ``GBound`` (V, iplus and
  int x / P).  A power-law ``FBound`` triple walks no chain: when P, Q and R
  are closed-form time functions (``fields._closed_form_time``) without
  ``tau`` factors, Q = 0, P = c t^a with c > 0, R is a sum of powers, no
  exponent is within 1/16 of a logarithmic case and t1 > 0, iplus and the
  outer integral are sums of power and log terms (``_power_law``), and only
  a t where one of them is not finite walks it;
* ``i_plus`` (V and iplus) and ``i_minus``, which walks backward from its
  upper limit t, so the exponent is anchored at t as in the definition;
  ``weighted_tail_integrand`` steps its inner integral from sample to
  sample, each step one such backward walk, built once per integrand or
  ``i_minus`` call over the columns (v, x);
* the residual oracles' K/W integrals (``weighted_chain``:
  ``riccati.flux_residual``, ``riccati.volterra_residual``,
  ``riccati.cauchy_residual`` and ``riccati.difference_residual``);
* :class:`CumulativeIntegral`, the one-level chain: the tail's int q,
  ``certificates``' reciprocal-weight tail and
  ``riccati.representation_residual``;
* ``adaptive_quad``, one walk of a plain function over [a, b] with nothing
  memoized: ``divergence_probe``'s horizon increments and ``i_minus``'s int v.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache, partial
from math import exp
from typing import Callable, Sequence

from .errors import (
    DomainError,
    NegativeIntegrandError,
    NonPositiveWeightError,
    QuadratureBudgetError,
    RangeOverflowError,
)
from .fields import BoundTriple, _compiled_columns

__all__ = [
    "TimeFunction",
    "CumulativeIntegral",
    "adaptive_quad",
    "i_plus",
    "i_minus",
    "FBound",
    "GBound",
    "DivergenceVerdict",
    "divergence_probe",
    "weighted_tail_integrand",
    "DIVERGING",
    "CONVERGING",
    "INCONCLUSIVE",
]

TimeFunction = Callable[[float], float]

# Default tolerances for the public functionals.
ABS_TOL = 1e-10
REL_TOL = 1e-8

# Exponents beyond this are reported as range errors instead of inf/0 results.
EXP_CAP = 690.0

# (abs_rate, rel_tol) budgets of a chain level: the default of a memoized
# antiderivative, and the residual oracles' budget.
MEMO_BUDGET = (1e-13, 1e-12)
ORACLE_BUDGET = (1e-13, 1e-11)

# Panels a walk may take over one gap: one, plus two per halving.
MAX_INTERVALS = 4096

# 15-point Kronrod nodes (positive half) with the embedded 7-point Gauss rule
# on the odd-indexed nodes; weights for the interval [-1, 1].
_XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
)
_WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)

# The 15 Kronrod nodes in ascending order.
_NODES = tuple(-x for x in _XGK) + (0.0,) + _XGK[::-1]
# S[i][j] = integral_{-1}^{x_i} l_j, l_j the Lagrange basis on the 15 nodes:
# ``sum_j S[i][j] f(x_j)`` integrates the degree-14 interpolant of f from -1 to
# node i.  In the Legendre basis, with V[i][n] = P_n(x_i) and
# B[i][n] = integral_{-1}^{x_i} P_n, S = B V^-1, solved in float64.  Each entry
# lies within 1e-15 of the exact S of these float nodes.
_S = (
    (0.01039810525715238, -0.0028376999628309395, 0.0016278819329846792, -0.0011184159471467265, 0.000845482170423758, -0.0006660012401333515, 0.000532680720730693, -0.00043004167601942017, 0.00034898962842267573, -0.000280737088267925, 0.0002195798589256748, -0.0001645134714355331, 0.0001157666324964656, -7.017288569558047e-05, 2.3724949580204878e-05),
    (0.025967696354437617, 0.028987587053519948, -0.006276971608824144, 0.0037399577429909053, -0.002680230688065736, 0.0020571023090825017, -0.0016213754337679994, 0.0012971827975541501, -0.0010465132222001671, 0.000838503193963733, -0.0006540394501768934, 0.0004890842676087998, -0.00034372160264507524, 0.00020818624250022318, -7.036029873689923e-05),
    (0.021059903885712272, 0.07071053241517147, 0.0500573892970003, -0.010315610667241232, 0.006099495123991557, -0.00431472273996404, 0.003256914114814386, -0.0025394084289457842, 0.0020152761210600555, -0.0015971233180033307, 0.001236463922030895, -0.0009198416842916179, 0.0006442104681227557, -0.00038936395091630847, 0.00013146208168965477),
    (0.024236184152056396, 0.05862983739852264, 0.11577288646005474, 0.06880965050073674, -0.013705874401949964, 0.007859179092448645, -0.005408509406280098, 0.00401068356429496, -0.0030879850396535696, 0.00240012223793888, -0.0018341356193319234, 0.0013524757177608634, -0.0009416740293352852, 0.000567143618117725, -0.00019116984477477987),
    (0.02197989967049653, 0.06616329139221915, 0.09859441737818897, 0.15428110906917986, 0.08347990224492223, -0.015957881816527856, 0.00884168511858522, -0.0059543665532499875, 0.004350376888855941, -0.003275954491987981, 0.002453052740727697, -0.0017847044978320991, 0.001231776612384001, -0.0007379943938058889, 0.00024815517015316425),
    (0.023679164003462164, 0.060776564963338095, 0.10908590350998529, 0.1330098010432568, 0.1849812839570818, 0.0942381352810252, -0.017360080873307388, 0.009401251736913807, -0.006235259125478402, 0.004454822440644841, -0.003231692973727778, 0.0023043228419333886, -0.0015702030000657927, 0.000933719392744448, -0.00031288457520354564),
    (0.02233178195809235, 0.06493667418740443, 0.10151611110403719, 0.14596055631452787, 0.16008901153232227, 0.20814026453167675, 0.10153268989812615, -0.01828821320699535, 0.009754318893787346, -0.00632660677307881, 0.004354703315635878, -0.0030092225551495585, 0.0020116352000165414, -0.0011831510424944692, 0.00039449163419341535),
    (0.02342744782115437, 0.061605104032083774, 0.10736068530367802, 0.13669032964334285, 0.17504757138884802, 0.18067499562890435, 0.2230022570247953, 0.10474107054236358, -0.018569316949496397, 0.009675582435881432, -0.006042844749580466, 0.003962930072182999, -0.002570674981427206, 0.0014869885978950966, -0.0004921258106255948),
    (0.022540830376335405, 0.06427524367247325, 0.1027783751222343, 0.14366248227067546, 0.16465002332363168, 0.19667718483786453, 0.19467862118151147, 0.2277703542917224, 0.10290025017717266, -0.017789686466890855, 0.008915715106945367, -0.005307296599001938, 0.0032738992182136054, -0.0018445815574256678, 0.00060354005243643),
    (0.02324820658573217, 0.06215837323723438, 0.10636021332231656, 0.13834893687359257, 0.17223641961299535, 0.18589575562414107, 0.2106681992007773, 0.20008088934781335, 0.22179302094860626, 0.09611244278376044, -0.015976557317814118, 0.007643458672269165, -0.0042958931877346085, 0.0023155276666407465, -0.0007438419929335798),
    (0.022687166840375653, 0.06383008702378466, 0.10355823370986686, 0.14243796421335805, 0.16655167389853998, 0.19362653255677376, 0.20008256318644296, 0.21543650763797698, 0.19559125495671364, 0.20630845988131363, 0.0855248243943453, -0.01362784935365401, 0.006195592944061917, -0.0030711987622402625, 0.000955422340032126),
    (0.02312649185530337, 0.06252494901186113, 0.10573168435158598, 0.13930078399776505, 0.17083886225859962, 0.18795045582684694, 0.20752092511495251, 0.2054714575204322, 0.20984144948157915, 0.18249139897233704, 0.18271060104121745, 0.07184360921478908, -0.010982876137803965, 0.004462255231456204, -0.0013008621415277497),
    (0.02280385992883875, 0.06348145658089512, 0.10414579985412811, 0.14157310139981752, 0.16776826271723674, 0.19194770138278902, 0.202417663954239, 0.21202154951367283, 0.20117602596048453, 0.19466530080474986, 0.162905231515276, 0.1509688703827669, 0.054732621025250366, -0.007618439785192548, 0.0018754181248163766),
    (0.02300568230926528, 0.06288390638747877, 0.10513373192489585, 0.14016417544791698, 0.1696587660894445, 0.1895120748708222, 0.20547945329749903, 0.20818495828717287, 0.20605431550906697, 0.18829347575570335, 0.17168495732733327, 0.13691330197253487, 0.11106698193107488, 0.03410450557645891, -0.0030323743439089586),
    (0.022911597060948585, 0.06316226551567433, 0.10467424368975436, 0.14081777318696131, 0.16878514678034195, 0.19063131515305387, 0.20408395044687616, 0.2099121827607465, 0.20390025935456818, 0.1910165793049192, 0.1681592444688438, 0.14177167566267254, 0.10316212838926607, 0.06592979259280979, 0.012537216753376256),
)


def _exp(x: float) -> float:
    if x > EXP_CAP:
        raise RangeOverflowError(f"exponent overflow: exp({x!r})")
    return math.exp(x)


def _finite_gap(a: float, b: float) -> None:
    if not abs(b - a) < math.inf:
        raise DomainError(f"integration limits {a!r} and {b!r} do not bound a finite interval")


# Chain levels: node-wise expressions over the sample columns c0..c2 and the
# node values y0..y2 of the inner levels.  The envelopes and the functionals
# report an exponent beyond EXP_CAP as RangeOverflowError; the residual
# oracles (_ORACLE_LEVELS) let math.exp raise OverflowError.
_K = "c0"
_W = "(exp(y0) if y0 <= EXP_CAP else _exp(y0)) * c1"
_T1 = "(exp(-y0) if -y0 <= EXP_CAP else _exp(-y0)) / c2"
_T2 = "(exp(-y0) if -y0 <= EXP_CAP else _exp(-y0)) * y1 / c2"
_ORACLE_LEVELS = (_K, "exp(y0) * c1", "exp(-y0) / c2", "exp(-y0) * y1 / c2")


@lru_cache(maxsize=64)
def _walk_source(levels: tuple[str, ...], sources: tuple[str | None, ...] | None = None, per_panel: bool = False) -> str:
    """The adaptive GK15 walk of a chain with these levels, written out as straight code.

    ``walk(sample, a, b, start, abs_tols, rels)`` returns the levels at b
    from their values ``start`` at a, by the test and in the panel order of
    :class:`CumulativeChain`.  A panel calls ``sample`` at the 15 Kronrod
    nodes in ascending order; column cj is the j-th item of a sample, or in a
    chain of one level the sample itself; ``per_panel``, it calls ``sample(c, h)``
    once for every column of its nodes, node by node.  Given the columns' ``sources`` at
    ``{t}`` (:func:`_walker`), it is ``walk(a, b, start, abs_tols, rels)``: a
    node writes the varying columns in place, in column order, and reads a
    constant one (None in ``sources``) as ``col{j}``; a level that is one
    constant column has its K15 sum, |K15 - G7| and node sums taken before
    the def, by the panel's operations.  A level's node pairs are summed
    outermost first, left to right from the centre term.  A level over its
    budget skips the later levels, and one that a later level reads is
    integrated to every node (:func:`_node_integrals`).  The walk reads this
    module's globals, and the names bound before it as parameter defaults.
    """
    n = len(_NODES)
    read = {int(k) for k in re.findall(r"\by(\d)\b", " ".join(levels))}
    ks = range(len(levels))

    def each(name: str) -> str:
        return "".join(f"{name}{k}, " for k in ks)

    def at(expr: str, i: int) -> str:
        column = rf"d{i}" if len(levels) == 1 else rf"d{i}[\1]"
        if sources is not None or per_panel:  # a varying column cj is d{i}_{j} at node i, a constant one col{j}
            column = lambda m: f"d{i}_{m[1]}" if per_panel or sources[int(m[1])] else f"col{m[1]}"
        return re.sub(r"\by(\d)\b", rf"y\1_{i}", re.sub(r"\bc(\d)\b", column, expr))

    panel, once, bound, pad = [], [], [], ""
    if per_panel:
        columns = range(1 + max(int(j) for j in re.findall(r"\bc(\d)\b", " ".join(levels))))
        panel.append(", ".join(f"d{i}_{j}" for i in range(n) for j in columns) + " = sample(c, h)")
    for i, x in enumerate(() if per_panel else _NODES):
        if sources is None:
            panel.append(f"d{i} = sample(c + h * {x!r})")
        elif any(sources):
            panel += [f"tk = c + h * {x!r}"] + [f"d{i}_{j} = {s.format(t='tk')}" for j, s in enumerate(sources) if s]
    panel.append("ah = abs(h)")
    for k, expr in enumerate(levels):
        fv = [at(expr, i) for i in range(n)]
        fixed = re.fullmatch(r"col\d", fv[0])
        if not (fixed or re.fullmatch(r"c\d", expr)):
            panel += [f"{pad}f{k}_{i} = {v}" for i, v in enumerate(fv)]
            fv = [f"f{k}_{i}" for i in range(n)]
        pairs = [f"s{j}" if j % 2 else f"({fv[j]} + {fv[-1 - j]})" for j in range(7)]
        sums = [f"s{j} = {fv[j]} + {fv[-1 - j]}" for j in (1, 3, 5)] + [
            f"resk{k} = {_WGK[7]!r} * {fv[7]} + " + " + ".join(f"{w!r} * {p}" for w, p in zip(_WGK, pairs)),
            f"resg = {_WG[3]!r} * {fv[7]} + " + " + ".join(f"{w!r} * s{j}" for j, w in zip((1, 3, 5), _WG)),
            f"dif{k} = abs(resk{k} - resg)",
        ]
        if fixed:  # every node value is the constant: the panel's sums, taken once
            sig = [f"sig{k}_{i}" for i in range(n)] * (k in read)  # each node sum s from 0.0 + is never -0.0, so 0.0 + 1.0 * s is s
            once += sums + [f"{', '.join(sig)} = _node_integrals(0.0, 1.0, ({fv[0]},) * {n})"] * (k in read)
            integrals = [f"y{k}_{i} = val{k} + h * {s}" for i, s in enumerate(sig)]
            bound += [f"resk{k}", f"dif{k}", *sig]
        else:
            panel += [pad + line for line in sums]
            integrals = [f"{', '.join(f'y{k}_{i}' for i in range(n))} = _node_integrals(val{k}, h, ({', '.join(fv)}))"]
        panel += [
            f"{pad}err{k} = dif{k} * ah",
            f"{pad}if not math.isfinite(err{k}):",
            f"{pad}    raise QuadratureBudgetError(f'level {k} integrand is not finite on [{{lo!r}}, {{hi!r}}]')",
            f"{pad}if not (check and err{k} > sc{k} * span / gap):",
            f"{pad}    inc{k} = resk{k} * h",
        ]
        pad += "    "
        panel += [pad + line for line in integrals] * (k in read)
    panel += [f"{pad}keep = True", f"{pad}if first:", f"{pad}    first = False"]
    panel += [f"{pad}    sc{k} = max(tol{k}, rel{k} * abs(inc{k}))" for k in ks]
    panel += [f"{pad}    keep = floor or not ({' or '.join(f'err{k} > sc{k}' for k in ks)})", f"{pad}if keep:"]
    panel += [f"{pad}    val{k} += inc{k}" for k in ks] + [f"{pad}    lo = hi", f"{pad}    ends.pop()", f"{pad}    continue"]
    body = "".join(f"        {line}\n" for line in panel)
    names = dict.fromkeys(re.findall(r"\bcol\d\w*", body) + bound)
    head = f"walk({'sample, ' * (sources is None)}a, b, start, abs_tols, rels{''.join(f', {name}={name}' for name in names)})"
    return "".join(f"{line}\n" for line in once) + f"""def {head}:
    gap = abs(b - a)
    if not gap < math.inf:
        _finite_gap(a, b)
    {each("val")}= start
    {each("tol")}= abs_tols
    {each("rel")}= rels
    first, lo, ends, used = True, a, [b], 1
    while ends:
        hi = ends[-1]
        span = abs(hi - lo)
        floor = span <= 1e-15 * max(abs(lo), abs(hi), 1.0)
        check = not (first or floor)
        c = 0.5 * (lo + hi)
        h = 0.5 * (hi - lo)
{body}\
        if used >= MAX_INTERVALS:
            raise QuadratureBudgetError(f'tolerance not reached within {{MAX_INTERVALS}} subintervals on [{{a!r}}, {{b!r}}]')
        ends.append(0.5 * (lo + hi))
        used += 2
    return ({each("val")})
"""


@lru_cache(maxsize=None)
def _compiled_walk(levels: tuple[str, ...], per_panel: bool = False) -> Callable:
    """``walk(sample, a, b, start, abs_tols, rels)`` of :func:`_walk_source`, compiled on first use and kept for the life of the process: the levels come from this module's few layouts."""
    exec(compile(_walk_source(levels, None, per_panel), "<rcert.quadrature walk>", "exec"), globals(), scope := {})
    return scope["walk"]


def _walker(levels: tuple[str, ...], sample) -> Callable:
    """``walk(a, b, start, abs_tols, rels)`` over ``sample``: a node's columns in one call (a panel's if ``sample.panel``), or a
    tuple of their time functions, closed forms written in (:func:`_walk_source`), else called in turn."""
    if isinstance(sample, tuple):
        scope = _compiled_columns(sample, partial(_walk_source, levels), globals(), "<rcert.quadrature walk>")
        if scope is not None:
            return scope["walk"]
        sample = sample[0] if len(sample) == 1 else lambda s, v=sample[0], x=sample[1]: (v(s), x(s))
    return partial(_compiled_walk(levels, True) if getattr(sample, "panel", False) else _compiled_walk(levels), sample)


class CumulativeChain:
    """Memoized antiderivatives Y_0..Y_{m-1} of a lower-triangular chain of integrands.

    ``Y_k(t) = integral_base^t f_k(sample(s), Y_0(s), ..., Y_{k-1}(s)) ds``;
    ``sample`` runs once per node, or per panel, for the work the levels share
    (or is the tuple of the columns' time functions, :func:`_walker`); each f_k is
    an expression over the columns c0..c2 and the inner levels y0..y2.  A query
    returns the tuple (Y_0(t), ..., Y_{m-1}(t)).  Every query integrates only
    the gap between ``t`` and the nearest known knot, in either direction, then
    records ``t`` as a new knot, so repeated and monotone query patterns cost
    amortized O(1) panels per query.

    A query is one call of the layout's walk over ``sample``, built on the
    chain's first query that walks, so a chain that walks nothing compiles
    nothing.  The walk takes adaptive GK15 panels in order from the knot to
    ``t``.  The inner levels are read at the panel's 15 Kronrod nodes through
    the node integration matrix, one left-to-right sum per node on every
    interpreter, so no integrand queries another memo.  ``budgets`` holds one
    (abs_rate, rel_tol) pair per level (the oracles' budget on every level by
    default).  The first panel spans the whole gap and sets each level's
    budget ``max(abs_rate * gap, rel_tol * |its increment|)``; a panel is
    accepted when every level's |K15 - G7| error is within the share of its
    budget that the panel's length is of the gap, or unchecked when its span
    is at most 1e-15 max(1, |ends|).  A rejected panel is halved and
    the half nearer the knot is taken first, up to ``MAX_INTERVALS`` panels.
    ``abs_rate`` is a budget per unit length, so the error chained through
    any sequence of gaps stays below
    ``abs_rate * |t - base| + rel_tol * (total variation)`` however many knots
    accumulate.  A non-finite integrand sample raises
    :class:`QuadratureBudgetError`, so no nan is ever recorded, and a base or
    query that is not finite raises :class:`DomainError`.
    """

    def __init__(
        self,
        sample: Callable[[float], object],
        integrands: Sequence[str],
        base: float,
        budgets: Sequence[tuple[float, float]] | None = None,
    ):
        _finite_gap(base, base)
        self._sample = sample
        self._layout = tuple(integrands)
        self._walk = None  # the layout's walk over sample, built on the first walk
        if budgets is None:
            budgets = (ORACLE_BUDGET,) * len(self._layout)
        self._rates, self._rels = zip(*budgets)
        self.base = base
        self._ts = [base]
        self._vals = [(0.0,) * len(self._layout)]

    def __call__(self, t: float) -> tuple[float, ...]:
        ts = self._ts
        i = bisect_left(ts, t)
        if i < len(ts) and ts[i] == t:
            return self._vals[i]
        j = i - 1
        if j < 0 or (i < len(ts) and (ts[i] - t) < (t - ts[j])):
            j = i
        width = max(abs(t - ts[j]), 1e-30)
        if self._walk is None:
            self._walk = _walker(self._layout, self._sample)
        val = self._walk(ts[j], t, self._vals[j], [rate * width for rate in self._rates], self._rels)
        ts.insert(i, t)
        self._vals.insert(i, val)
        return val


def _node_integrals(y: float, h: float, fv: Sequence[float]) -> tuple[float, ...]:
    """``y + h * (0.0 + S[i][0] * fv[0] + ... + S[i][14] * fv[14])`` for the 15 nodes i.

    One left-to-right sum per node on every interpreter (``sum()`` of floats
    is compensated from Python 3.12 on), written out from ``_S`` as straight
    code and compiled on the first call, which then replaces this function.
    """
    global _node_integrals
    names = ", ".join(f"f{j}" for j in range(len(_NODES)))
    sums = ", ".join("y + h * (0.0 + " + " + ".join(f"{s!r} * f{j}" for j, s in enumerate(row)) + ")" for row in _S)
    scope: dict = {}
    exec(compile(f"def _node_integrals(y, h, fv):\n    {names} = fv\n    return ({sums})\n", "<rcert.quadrature node integrals>", "exec"), scope)
    _node_integrals = scope["_node_integrals"]
    return _node_integrals(y, h, fv)


class CumulativeIntegral(CumulativeChain):
    """Memoized antiderivative ``t -> integral_base^t fn``: the one-level chain.

    ``abs_rate`` and ``rel_tol`` are the level's budget (see
    :class:`CumulativeChain`); queries at nearby points share their knot
    prefix, which keeps *differences* of returned values accurate at gap
    scale.  Instances are created per top-level call and never shared across
    threads.
    """

    def __init__(self, fn: TimeFunction, base: float, abs_rate: float = MEMO_BUDGET[0], rel_tol: float = MEMO_BUDGET[1]):
        super().__init__((fn,), (_K,), base, ((abs_rate, rel_tol),))

    def __call__(self, t: float) -> float:
        return CumulativeChain.__call__(self, t)[0]


def adaptive_quad(f: TimeFunction, a: float, b: float, abs_tol: float = ABS_TOL, rel_tol: float = REL_TOL) -> float:
    """Adaptive Gauss-Kronrod integration of ``f`` over [a, b].

    One call of the one-level chain's walk over the gap, with nothing memoized: the
    acceptance test shares ``max(abs_tol, rel_tol * |I|)`` out over the panels
    by length.  Raises :class:`QuadratureBudgetError` when ``f`` is not
    finite at a node or the tolerance cannot be met within ``MAX_INTERVALS``
    panels, and :class:`DomainError` when a limit is not finite.
    """
    _finite_gap(a, b)
    if a == b:
        return 0.0
    return _compiled_walk((_K,))(f, a, b, (0.0,), (abs_tol,), (rel_tol,))[0]


def weighted_chain(coefficients: Callable[[float], tuple[float, ...]], base: float, *, lead: bool = False) -> CumulativeChain:
    """The exponentially weighted integrals of the residual oracles, from ``base``.

    ``coefficients(t)`` returns (k, s) or, with ``lead``, (k, s, p), at each
    quadrature node (or a panel's, see :func:`_walker`).  The chain yields (K, W) and with ``lead``
    (K, W, T1, T2), where K = int k, W = int e^K s, T1 = int e^-K / p and
    T2 = int e^-K W / p.  So x(base) e^-K - e^-K W solves x' = -k x - s, and
    phi(base) + psi(base) T1 - T2 integrates that solution against 1/p.
    """
    return CumulativeChain(coefficients, _ORACLE_LEVELS if lead else _ORACLE_LEVELS[:2], base)


def _positive(fn: TimeFunction, tau: float, label: str) -> float:
    value = fn(tau)
    if value <= 0.0:
        raise NonPositiveWeightError(f"{label}({tau!r}) = {value!r} <= 0")
    return value


def i_plus(u: TimeFunction, v: TimeFunction, t1: float, t: float) -> float:
    """Exponentially weighted reciprocal integral of a positive function u.

    Requires t >= t1 and u > 0 on [t1, t]; a non-positive u sample raises
    :class:`NonPositiveWeightError`.  One query of the chain V = int v,
    iplus = int e^-V / u from t1.
    """
    if t < t1:
        raise DomainError("i_plus needs t >= t1")
    _finite_gap(t1, t)
    if t == t1:
        return 0.0
    chain = CumulativeChain(
        lambda s: (v(s), 0.0, _positive(u, s, "u")), (_K, _T1), t1, (MEMO_BUDGET, (ABS_TOL / (t - t1), REL_TOL))
    )
    return chain(t)[1]


# Dyadic levels that i_minus queries beyond the kernel's e-folds on its gap.
_ANCHOR_MARGIN = 1


def _anchored(v: TimeFunction, walk: Callable, t1: float, t: float, v_integral: float, abs_tol: float, rel_tol: float) -> tuple[float, ...]:
    """(Y0(t1), Y1(t1)) of the chain Y0 = int_t^s v, Y1 = int_t^s e^Y0 x, walked backward from t.

    ``walk`` is the chain's walk over the columns (v, x) (``_walker((_K, _W), (v, x))``).

    The chain is walked from t to t - (t - t1) / 2^k, k = levels..1, then to
    t1, each walk from the end of the one before (an empty gap is skipped):
    so a kernel concentrated near t, which one panel over [t1, t] would
    miss, is resolved.  levels = ceil(log2 max(1,
    folds)) + ``_ANCHOR_MARGIN`` for the kernel's e-folds max((t - t1) |v(t)|,
    |v_integral|), v_integral = int_{t1}^{t} v, so the innermost gap is at
    most 1/|v(t)| and (t - t1)/|v_integral|; the second sees a kernel that
    vanishes at t.  Non-finite folds raise :class:`QuadratureBudgetError`.
    """
    length = t - t1
    folds = max(length * abs(v(t)), abs(v_integral))
    if not math.isfinite(folds):
        raise QuadratureBudgetError(f"kernel e-folds {folds!r} on [{t1!r}, {t!r}] are not finite")
    rate = abs_tol / length
    rels = (MEMO_BUDGET[1], rel_tol)
    ends = [t - length * 0.5 ** k for k in range(math.ceil(math.log2(max(1.0, folds))) + _ANCHOR_MARGIN, 0, -1)]
    a, ys = t, (0.0, 0.0)
    for b in ends + [t1]:
        if b != a:
            width = max(abs(b - a), 1e-30)
            ys = walk(a, b, ys, (MEMO_BUDGET[0] * width, rate * width), rels)
            a = b
    return ys


def i_minus(v: TimeFunction, x: TimeFunction, t1: float, t: float) -> float:
    """Weighted integral of x with the exponential weight anchored at t.

    The chain Y0 = int_t^s v, Y1 = int_t^s e^Y0 x runs backward from t, so
    iminus = -Y1(t1) and the exponent is -int_s^t v, never the difference of
    two large antiderivatives; :func:`_anchored` sets its dyadic depth from
    int_{t1}^{t} v, one :func:`adaptive_quad`.  Non-finite e-folds, such as
    a non-finite (t - t1) * v(t), raise :class:`QuadratureBudgetError`.
    """
    if t < t1:
        raise DomainError("i_minus needs t >= t1")
    _finite_gap(t1, t)
    if t == t1:
        return 0.0
    return -_anchored(v, _walker((_K, _W), (v, x)), t1, t, adaptive_quad(v, t1, t), ABS_TOL, REL_TOL)[1]


class _Envelope:
    """What F and G share: one chain from t1 over the samples (Q(tau), x(tau), P(tau) > 0), and the exponent's range.

    Its last two levels are iplus and the envelope's own outer integral, taken
    to ``(0.1 * abs_tol, rel_tol)``; the levels before them to ``MEMO_BUDGET``.
    The subclasses define ``__init__``, ``exponent`` and ``__call__`` in their
    own ``__dict__``, where the benchmark's tracer wraps them.
    """

    def __init__(self, b: BoundTriple, x: TimeFunction, t1: float, c1: float, c2: float, levels: tuple, abs_tol: float, rel_tol: float):
        if c1 == 0.0:
            raise DomainError("c1 must be nonzero")
        self.t1 = t1
        self.c1 = c1
        self.c2 = c2
        P, Q = b.P, b.Q
        budgets = (MEMO_BUDGET,) * (len(levels) - 2) + ((0.1 * abs_tol, rel_tol),) * 2
        self._chain = CumulativeChain(lambda tau: (Q(tau), x(tau), _positive(P, tau, "P")), levels, t1, budgets)

    def _levels(self, t: float) -> tuple[float, ...]:
        if t < self.t1:
            raise DomainError("envelope evaluated left of its base point")
        return self._chain(t)

    @staticmethod
    def _in_range(e: float, t: float) -> float:
        if not math.isfinite(e) or abs(e) > EXP_CAP:
            raise RangeOverflowError(f"envelope exponent {e!r} out of range at t={t!r}")
        return e

    def __call__(self, t: float) -> float:
        if t == self.t1:
            return abs(self.c1)
        return abs(self.c1) * math.exp(self.exponent(t))


def _powers(fn: TimeFunction) -> list[tuple[float, float]] | None:
    """The (coefficient, exponent) terms of a closed-form time function, a nonzero ``start`` as a t^0 term.

    None for a function without products, or with a ``tau`` factor.
    """
    products = getattr(fn, "products", None)
    if products is None or any(p.tau is not None or p.g is not None for p in products):
        return None
    return [(p.c, p.a) for p in products] + [(fn.start, 0.0)] * bool(fn.start)


def _power_law(b: BoundTriple, t1: float) -> Callable[[float], tuple[float, float]] | None:
    """``t -> (iplus, outer)`` of :class:`FBound` in closed form, or None.

    It needs Q = 0 (no term, or every coefficient 0), P = c t^a with c > 0,
    R = sum_k r_k t^(m_k - 1) and t1 > 0.  With u = ln(t / t1) and
    L(m) = int_{t1}^{t} tau^(m-1) = t1^m expm1(m u) / m (u for m = 0),
    iplus = L(1 - a) / c and outer = sum_k r_k J_k / c, where
    J_k = int_{t1}^{t} (tau^m_k - t1^m_k) / m_k tau^-a = (L(m_k - a + 1) - t1^m_k L(1 - a)) / m_k,
    or, for m_k = 0, J_k = int_{t1}^{t} ln(tau / t1) tau^-a = t1^n int_0^u s e^(n s) ds with n = 1 - a.
    Each J_k divides a cancelling difference by m_k (by n when m_k = 0), so its
    rounding error grows like the divisor's reciprocal: a triple with a
    divisor of magnitude in (0, 1/16), near a logarithmic case, gets None.
    Where t / t1, a power or an exponential overflows, both are nan.
    """
    P, Q, R = _powers(b.P), _powers(b.Q), _powers(b.R)
    if P is None or Q is None or R is None or len(P) != 1 or any(q != 0.0 for q, _ in Q) or not t1 > 0.0:
        return None
    (c, a), = P
    if not 0.0 < c < math.inf:
        return None
    n = 1.0 - a
    terms = [(r, e + 1.0) for r, e in R]
    if any(0.0 < abs(m or n) < 0.0625 for _, m in terms):
        return None

    def L(m: float, u: float) -> float:
        return u if m == 0.0 else t1 ** m * math.expm1(m * u) / m

    def parts(t: float) -> tuple[float, float]:
        u = math.log1p((t - t1) / t1)
        if u == math.inf:
            return math.nan, math.nan
        try:
            base = L(n, u)
            outer = 0.0
            for r, m in terms:
                if m != 0.0:
                    j = (L(m + n, u) - t1 ** m * base) / m
                else:
                    j = t1 ** n * (0.5 * u * u if n == 0.0 else (u * math.exp(n * u) - math.expm1(n * u) / n) / n)
                outer += r * j
        except OverflowError:
            return math.nan, math.nan
        return base / c, outer / c

    return parts


class FBound(_Envelope):
    """Growth envelope F(t1; t; c1; c2) as a reusable evaluator.

    One chain from t1 holds V = int Q, W = int e^V R, iplus = int e^-V / P and
    the outer integral int e^-V W / P, so evaluating the envelope along an
    ascending time grid walks each grid gap once.  A power-law triple takes
    iplus and the outer integral in closed form instead (:func:`_power_law`);
    a t where one of them is not finite walks the chain, so its errors are the
    chain's.  Exponent overflow raises :class:`RangeOverflowError` instead of
    silently wrapping to infinity.
    """

    def __init__(self, b: BoundTriple, t1: float, c1: float, c2: float, *, abs_tol: float = ABS_TOL, rel_tol: float = REL_TOL):
        if b.R is None:
            raise DomainError("this envelope needs the R component of the bound triple")
        super().__init__(b, b.R, t1, c1, c2, (_K, _W, _T1, _T2), abs_tol, rel_tol)
        self._closed = _power_law(b, t1)

    def exponent(self, t: float) -> float:
        iplus = outer = math.nan
        if self._closed is not None and self.t1 <= t < math.inf:
            iplus, outer = self._closed(t)
        if not (math.isfinite(iplus) and math.isfinite(outer)):
            _, _, iplus, outer = self._levels(t)
        return self._in_range(self.c2 * iplus - outer, t)

    __call__ = _Envelope.__call__


class GBound(_Envelope):
    """Growth envelope G_x(t1; t; c1; c2); same contracts as :class:`FBound`.

    One chain from t1 holds V = int Q, iplus = int e^-V / P and int x / P.
    """

    def __init__(
        self, b: BoundTriple, x: TimeFunction, t1: float, c1: float, c2: float, *, abs_tol: float = ABS_TOL, rel_tol: float = REL_TOL
    ):
        super().__init__(b, x, t1, c1, c2, (_K, _T1, "c1 / c2"), abs_tol, rel_tol)

    def exponent(self, t: float) -> float:
        _, iplus, xint = self._levels(t)
        return self._in_range(self.c2 * iplus + xint, t)

    __call__ = _Envelope.__call__


# ---------------------------------------------------------------------------
# Divergence probes
# ---------------------------------------------------------------------------

DIVERGING = "Diverging"
CONVERGING = "Converging"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class DivergenceVerdict:
    """Heuristic verdict on an improper integral; never a proof.

    ``horizons`` holds (T, partial integral up to T) pairs with strictly
    increasing T; ``ratios`` are consecutive tail-increment ratios.
    """

    status: str
    horizons: tuple[tuple[float, float], ...]
    ratios: tuple[float, ...]


#: The divergence probe integrates over the horizons T_k = start * _HORIZON_FACTOR**k,
#: k = 0 .. _HORIZON_COUNT, from start = t0 (1 when t0 <= 0).  It looks at its
#: last ``_TAIL_WINDOW`` increments, each integrated to ``_PROBE_REL_TOL``.
#: Their geometric-mean ratio votes Converging at or below ``_CONV_RATIO`` (one
#: half, with room for quadrature error) and Diverging at or above ``_DIV_RATIO``.
_HORIZON_FACTOR = 2.0
_HORIZON_COUNT = 20
_CONV_RATIO = 0.5 * (1.0 + 1e-5)
_DIV_RATIO = 0.9
_TAIL_WINDOW = 8
_PROBE_REL_TOL = 3e-8


def divergence_probe(integrand: TimeFunction, t0: float) -> DivergenceVerdict:
    """Classify tail growth of a nonnegative integrand over geometric horizons.

    Increments over [T, 2T] that decay geometrically with ratio at most
    one half vote Converging; increments bounded away from geometric decay
    (ratio >= ``_DIV_RATIO``) vote Diverging; anything else is Inconclusive.
    A tail at or below 1e-15 of the largest increment is Converging, and a
    sample below -1e-12 times the largest |sample| before it raises
    :class:`NegativeIntegrandError` at once (so does any negative first
    sample), so neither rule changes when the integrand is scaled.
    The verdict is a numerical heuristic: no finite computation decides
    behaviour at infinity, and certificates must record it as heuristic.
    A non-finite ``t0`` raises :class:`DomainError`.
    """
    if not math.isfinite(t0):
        raise DomainError(f"divergence_probe needs a finite t0, got {t0!r}")

    size = 0.0  # the largest |sample| so far

    def checked(tau: float) -> float:
        nonlocal size
        v = integrand(tau)
        if v < -1e-12 * size:
            raise NegativeIntegrandError(f"integrand({tau!r}) = {v!r} < 0")
        size = max(size, abs(v))
        return v

    start = t0 if t0 > 0 else 1.0
    ts = [start * _HORIZON_FACTOR ** k for k in range(_HORIZON_COUNT + 1)]
    partial = adaptive_quad(checked, t0, ts[0], 1e-300, _PROBE_REL_TOL) if ts[0] > t0 else 0.0
    increments: list[float] = []
    pairs: list[tuple[float, float]] = []
    for k in range(len(ts) - 1):
        inc = adaptive_quad(checked, ts[k], ts[k + 1], 1e-300, _PROBE_REL_TOL)
        increments.append(inc)
        partial += inc
        pairs.append((ts[k + 1], partial))

    floor = 1e-15 * max(increments, default=0.0)
    tail = increments[-min(_TAIL_WINDOW, len(increments)):]
    if max(tail, default=0.0) <= floor:
        return DivergenceVerdict(CONVERGING, tuple(pairs), ())

    ratios = []
    for prev, cur in zip(tail, tail[1:]):
        if prev > floor:
            ratios.append(cur / prev)
    if not ratios:
        return DivergenceVerdict(INCONCLUSIVE, tuple(pairs), ())
    log_mean = sum(math.log(max(r, 1e-300)) for r in ratios) / len(ratios)
    rho = math.exp(log_mean)
    if rho <= _CONV_RATIO:
        status = CONVERGING
    elif rho >= _DIV_RATIO:
        status = DIVERGING
    else:
        status = INCONCLUSIVE
    return DivergenceVerdict(status, tuple(pairs), tuple(ratios))


#: The kernel bound exp(-_WINDOW_LOG) of the tail integrand's inner window,
#: and the tolerances of the inner integral.
_WINDOW_LOG = 45.0
_TAIL_ABS_TOL = 1e-13
_TAIL_REL_TOL = 1e-9


def weighted_tail_integrand(P: TimeFunction, q: TimeFunction, r: TimeFunction, t0: float) -> TimeFunction:
    """Integrand tau -> u(tau) / P(tau), u(tau) = integral_{t0}^{tau} exp(-int_s^tau q) r(s) ds.

    This is the double-integral tail condition probed for oscillation
    certificates.  u solves u' = r - q u, u(t0) = 0, so a query steps from
    the nearest memoized knot k below tau (t0 at first) by the exact
    exponential-integrator step (Hochbruck & Ostermann, Acta Numerica 19, 2010)

        u(tau) = exp(-int_k^tau q) u(k) + i_minus(q, r, k, tau),

    whose factor, from the same anchored walk, is at most 1 when q >= 0 (the
    only regime the checkers use): an error in u(k) is damped.  With
    V = int q, when V(tau) - V(k) > _WINDOW_LOG the memo term is below
    exp(-_WINDOW_LOG) u(k) and is dropped, and the step starts at the window
    where the kernel exceeds exp(-_WINDOW_LOG), found on V to within one
    e-fold on the side that keeps the whole window.  So each step is one
    anchored walk over at most the window, its depth read from V.  The
    exponent is anchored at tau: differencing one global antiderivative
    would lose all precision once it grows past ~1e9.
    """
    V = CumulativeIntegral(q, t0, rel_tol=1e-13)  # coarse: the window and the dyadic depth
    walk = _walker((_K, _W), (q, r))
    knots, us, vs = [t0], [0.0], [0.0]  # (k, u(k), V(k)), ascending in k

    def inner(tau: float) -> float:
        if tau <= t0:
            return 0.0
        i = bisect_left(knots, tau)
        if i < len(knots) and knots[i] == tau:
            return us[i] / _positive(P, tau, "P")
        k, u_k, v_k = knots[i - 1], us[i - 1], vs[i - 1]
        v_tau = V(tau)
        if v_tau - v_k <= _WINDOW_LOG:
            decay, w = _anchored(q, walk, k, tau, v_tau - v_k, _TAIL_ABS_TOL, _TAIL_REL_TOL)
            u = _exp(decay) * u_k - w
        else:
            # Keep V(tau) - V(lo) > _WINDOW_LOG >= V(tau) - V(hi) until lo is
            # within one e-fold of the window.  A probe interpolates V to the
            # middle of that e-fold, or bisects after two that moved one end.
            lo, hi = k, tau
            v_lo, v_hi = v_k, v_tau
            hi_moved = stuck = None
            for _ in range(80):
                if v_tau - v_lo <= _WINDOW_LOG + 1.0 or hi - lo <= 1e-9 * max(1.0, abs(tau)):
                    break
                share = 0.5 if stuck else (v_tau - _WINDOW_LOG - 0.5 - v_lo) / (v_hi - v_lo)
                mid = lo + (hi - lo) * share
                v_mid = V(mid)
                last, hi_moved = hi_moved, v_tau - v_mid <= _WINDOW_LOG
                stuck = hi_moved == last
                if hi_moved:
                    hi, v_hi = mid, v_mid
                else:
                    lo, v_lo = mid, v_mid
            u = -_anchored(q, walk, lo, tau, v_tau - v_lo, _TAIL_ABS_TOL, _TAIL_REL_TOL)[1]
        knots.insert(i, tau)
        us.insert(i, u)
        vs.insert(i, v_tau)
        return u / _positive(P, tau, "P")

    return inner
