"""Concrete module representations over the boundary algebra.

A module of rank s is a representation of the doubled circular quiver on
n vertices: one free module of rank s per vertex and, for every edge i,
structure matrices x_i (forward) and y_i (backward) over the power-series
centre, subject to x_i y_i = y_{i+1} x_{i+1} = t and x^k = y^{n-k}.

Layered modules are built from an ordered list of rims via powers of the
cyclic shift matrix sigma (sigma^s = t * Id); the single-rim case recovers
the classical rank-1 modules with scalar maps 1 and t.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional, Sequence

from .dvr import DVRMatrix, ValPoly, _smith
from .errors import NotRankOne, TruncationUnstable
from .rims import Rim, least_shift, parse_rim, rim, shift as shift_rim
from .roots import RootVector


class Profile:
    """Ordered filtration data, top (quotient) layer first; equal and hashed
    on its layers."""

    __slots__ = ("layers",)

    def __init__(self, layers: tuple[Rim, ...]) -> None:
        ambients = {(r.n, r.k) for r in layers}
        if len(ambients) > 1:
            raise ValueError(f"profile layers disagree on (k, n): {ambients}")
        self.layers = layers

    def __eq__(self, other):
        if other.__class__ is not Profile:
            return NotImplemented
        return self.layers == other.layers

    def __hash__(self) -> int:
        return hash(self.layers)

    @property
    def n(self) -> int:
        return self.layers[0].n

    @property
    def k(self) -> int:
        return self.layers[0].k

    def shift(self, m: int) -> "Profile":
        return Profile(tuple(shift_rim(r, m) for r in self.layers))

    def label(self) -> str:
        return "|".join(r.label() for r in self.layers)

    def __str__(self) -> str:
        return self.label()


def profile(layer_lists, k: int, n: int) -> Profile:
    return Profile(tuple(rim(ls, k, n) for ls in layer_lists))


def parse_profile(token: str) -> Profile:
    """Parse "246|135@(3,9)" (or a single rim token) into a profile."""
    body, _, ambient = token.partition("@")
    parts = body.split("|")
    return Profile(tuple(parse_rim(f"{p}@{ambient}") for p in parts))


class CMModuleRep:
    """Quiver representation: rank-s free modules with 2n structure matrices.

    ``x[i]`` maps vertex i-1 to vertex i and ``y[i]`` maps vertex i back to
    vertex i-1 (labels taken mod n in [1, n]).  Instances are plain,
    immutable data.  ``floor`` <= ``trunc`` is the precision of the maps:
    they are correct modulo t^floor.  A module built from rims is exact,
    with floor = trunc; a computed one (a syzygy, an extension middle)
    carries the floor its construction left.
    ``rotate`` returns a view: relabelled ``x``/``y`` maps, the unrotated
    root ``_root`` and the shift ``_turn`` (None and 0 on a root).  A view
    reads its root's ``_paths`` (``path_matrix``) at moved labels.  Five
    more caches are each filled on first use by ``on_root``, on a root from
    its maps and on a view by relabelling its root's once: ``_top``
    (``homology.top_generators``: the (vertex, basis index) pairs spanning
    the top, which the cover, the top multiset and the Hom condition read),
    ``_cover`` (the projective cover with the one factorisation of each
    cover map, which the syzygy, Hom maps and pushouts read), ``_syzygy``
    (the kernel module, read by Hom, Ext, extension middles and orbit
    steps), ``_avec`` (``rep_a_vector``) and ``_member`` (the orbit member
    ``homology._identify`` names it by).
    """

    __slots__ = ("n", "k", "s", "x", "y", "trunc", "floor", "_root", "_turn",
                 "_paths", "_syzygy", "_avec", "_top", "_cover", "_member")

    def __init__(self, n: int, k: int, s: int,
                 x: dict[int, DVRMatrix], y: dict[int, DVRMatrix],
                 trunc: int, floor: Optional[int] = None):
        self.n, self.k, self.s, self.trunc = n, k, s, trunc
        self.floor = trunc if floor is None else floor
        self.x, self.y = dict(x), dict(y)
        self._root, self._turn = None, 0
        self._paths: dict[tuple[int, int], DVRMatrix] = {}

    def unrotated(self) -> tuple["CMModuleRep", int]:
        """The root module and the shift that carries it to this one."""
        return (self, 0) if self._root is None else (self._root, self._turn)

    def rotate(self, j: int) -> "CMModuleRep":
        """The same module with every vertex label v moved to v + j (mod n).

        Rotating the quiver is an automorphism of the algebra, so this only
        relabels the structure maps.  The result is a view of the root:
        rotating a view rotates its root by the sum of the shifts, and a
        shift of 0 (mod n) gives the root.
        """
        root, turned = self.unrotated()
        n, j = self.n, (turned + j) % self.n
        if not j:
            return root
        turn = {v: (v + j - 1) % n + 1 for v in range(1, n + 1)}
        out = CMModuleRep(n, root.k, root.s, {turn[v]: mat for v, mat in root.x.items()},
                          {turn[v]: mat for v, mat in root.y.items()}, root.trunc, root.floor)
        out._root, out._turn = root, j
        return out

    def path_matrix(self, v: int, w: int) -> DVRMatrix:
        """Composite of structure maps along the canonical route v -> w.

        The route takes x-steps when (w - v) mod n <= k and y-steps
        otherwise; on the projective at v these routes carry the generator
        to the canonical basis vector of every vertex component.  A view
        reads its root's cache at both labels moved back by its shift: a
        canonical route depends only on (w - v) mod n.
        """
        (m, turned), n = self.unrotated(), self.n
        if turned:
            v, w = (v - turned - 1) % n + 1, (w - turned - 1) % n + 1
        return m._path(v, w)

    def _path(self, v: int, w: int) -> DVRMatrix:
        """``path_matrix`` on a root, cached.  Every prefix of a canonical
        route is the canonical route to its own end, so the route is its
        last step after the route to the vertex before: the identity when
        d = (w - v) mod n is 0, x_w after v -> w-1 when d <= k, y_(w+1)
        after v -> w+1 otherwise.  A one-step route is its step: no product
        by the identity."""
        mat = self._paths.get((v, w))
        if mat is None:
            n, d = self.n, (w - v) % self.n
            if d == 0:
                mat = DVRMatrix.identity(self.s, self.trunc)
            else:
                step, before = ((self.x[w], (w - 2) % n + 1) if d <= self.k
                                else (self.y[w % n + 1], w % n + 1))
                mat = step if before == v else step @ self._path(v, before)
            self._paths[(v, w)] = mat
        return mat


def sigma_power(s: int, j: int, trunc: int) -> DVRMatrix:
    """j-th power of the s x s cyclic shift with a t in the corner.

    sigma^j has ones on the j-th superdiagonal and t on the (s-j)-th
    subdiagonal; sigma^s = t * Id.
    """
    if not 0 <= j <= s:
        raise ValueError(f"need 0 <= j <= s, got j={j}, s={s}")
    z = ValPoly.zero(trunc)
    rows = [[z] * s for _ in range(s)]
    for i in range(1, s - j + 1):
        rows[i - 1][i + j - 1] = ValPoly.one(trunc)
    for i in range(1, j + 1):
        rows[s + i - j - 1][i - 1] = ValPoly.t(trunc)
    return DVRMatrix(rows, trunc, cols=s)


def default_truncation(n: int, trunc: Optional[int] = None) -> int:
    """The working truncation: trunc, or 2n when it is None."""
    return 2 * n if trunc is None else trunc


def build_layered(layers: Sequence[Rim], trunc: Optional[int] = None) -> CMModuleRep:
    """Module with the given ordered rims as filtration layers.

    At edge i the forward map is sigma^(s - r_i) and the backward map is
    sigma^(r_i), where r_i counts the layers containing i.  This layered
    module is not the extension middle: for every pair with interlacing
    degree >= 3 at (3,6), (3,7) and (3,8) the two-layer module is
    isomorphic to the direct sum of its layers, and at (4,8) it splits for
    114 of the 138 such pairs.  Extension middles come from
    ``homology.rank2_extension``.
    """
    layers = tuple(layers)
    if not layers:
        raise ValueError("need at least one layer")
    n, k = layers[0].n, layers[0].k
    for r in layers:
        if (r.n, r.k) != (n, k):
            raise ValueError("layers disagree on (k, n)")
    s = len(layers)
    N = default_truncation(n, trunc)
    # DVRMatrix is immutable, so every edge with the same r_i shares its pair
    powers = [sigma_power(s, j, N) for j in range(s + 1)]
    x, y = {}, {}
    for i in range(1, n + 1):
        r_i = sum(1 for r in layers if i in r)
        x[i] = powers[s - r_i]
        y[i] = powers[r_i]
    return CMModuleRep(n, k, s, x, y, N)


def per_rotation_class(build: Callable[[Profile, int], object]):
    """``build(p, trunc)`` memoised per (profile, truncation) and run only on
    a profile's least rotation (``rims.least_shift``): rotating the quiver is
    an automorphism, so that profile rotated by m gets the result's
    ``rotate(m)``.  ``cache_clear()`` frees every entry.
    """
    @functools.cache
    def memo(p: Profile, trunc: int):
        j = least_shift(*p.layers)
        if j:
            return memo(p.shift(j), trunc).rotate(p.n - j)
        return build(p, trunc)
    return memo


# a lambda, so that a replaced build_layered is reached
_rank1 = per_rotation_class(lambda p, trunc: build_layered(p.layers, trunc))


def build_rank1(r: Rim, trunc: Optional[int] = None) -> CMModuleRep:
    """Rank-1 module of a rim: x_i is 1 on the rim and t off it, y_i opposite.

    There is one shared module per (rim, resolved truncation), built once
    per rotation class (``per_rotation_class``): the other rims of a class
    get views of it, so one syzygy and path cache serve the class.
    """
    return _rank1(Profile((r,)), default_truncation(r.n, trunc))


def direct_sum(a: CMModuleRep, b: CMModuleRep) -> CMModuleRep:
    """Block direct sum of two representations over the same ambient."""
    if (a.n, a.k) != (b.n, b.k) or a.trunc != b.trunc:
        raise ValueError("direct sum needs matching ambient and truncation")
    n, trunc = a.n, a.trunc
    zero = DVRMatrix.zeros(a.s, b.s, trunc)
    x = {i: DVRMatrix.block(a.x[i], zero, b.x[i]) for i in range(1, n + 1)}
    y = {i: DVRMatrix.block(a.y[i], zero, b.y[i]) for i in range(1, n + 1)}
    return CMModuleRep(n, a.k, a.s + b.s, x, y, trunc, min(a.floor, b.floor))


def validate_relations(m: CMModuleRep) -> list[str]:
    """Check x_i y_i = y_{i+1} x_{i+1} = t and x^k = y^{n-k} everywhere,
    modulo t^floor, the precision the maps are correct to.

    Violations are returned as strings naming the vertex and relation;
    an empty report means the representation is a genuine module.
    """
    n, k, s = m.n, m.k, m.s
    t_id = DVRMatrix.identity(s, m.trunc).scale(ValPoly.t(m.trunc))

    def differs(a: DVRMatrix, b: DVRMatrix) -> bool:
        return any(d < m.floor for row in (a - b).data for e in row for d in e.coeffs)

    report = []
    for i in range(1, n + 1):
        if differs(m.x[i] @ m.y[i], t_id):
            report.append(f"x_{i} y_{i} != t id at vertex {i}")
        nxt = i % n + 1
        if differs(m.y[nxt] @ m.x[nxt], t_id):
            report.append(f"y_{nxt} x_{nxt} != t id at vertex {i}")
    for start in range(1, n + 1):
        # each chain starts from its first factor: no product by the identity
        xk = m.x[start % n + 1]
        for step in range(2, k + 1):
            xk = m.x[(start + step - 1) % n + 1] @ xk
        ynk = m.y[start]
        for step in range(1, n - k):
            ynk = m.y[(start - step - 1) % n + 1] @ ynk
        if differs(xk, ynk):
            report.append(f"x^{k} != y^{n - k} starting at vertex {start}")
    return report


def a_vector(p: Profile) -> RootVector:
    """Multiplicity of each vertex label across the layers of a profile."""
    n = p.n
    counts = [0] * n
    for layer in p.layers:
        for v in layer.elements:
            counts[v - 1] += 1
    return RootVector(tuple(counts), p.k)


def on_root(m: CMModuleRep, slot: str, compute: Callable[[CMModuleRep], object],
            relabel: Callable[[object, int], object]):
    """m's value in the cache ``slot``, filled on first use.  A root stores
    ``compute(root)``; a view (``CMModuleRep.rotate``) stores its root's
    value, filled first if needed, relabelled by ``relabel(value, shift)``.
    """
    value = getattr(m, slot, None)
    if value is None:
        root, j = m.unrotated()
        value = relabel(on_root(root, slot, compute, relabel), j) if j else compute(m)
        setattr(m, slot, value)
    return value


def rep_a_vector(m: CMModuleRep) -> RootVector:
    """Layer multiplicities recovered from a representation.

    The t-valuation of det(x_i) equals s - r_i in any basis, so the
    multiplicity vector survives base change; valuations are read off the
    Smith exponents of each x_i, certified against the module's floor.
    The result is cached (``on_root``); a view rotates its root's.
    """
    def count(root: CMModuleRep) -> RootVector:
        counts = []
        for i in range(1, root.n + 1):
            exps = _smith(root.x[i]).certify(root.floor, root.s, f"x_{i}")
            counts.append(root.s - sum(exps))
        if any(c < 0 for c in counts):
            raise ValueError(f"multiplicity vector {counts} out of range")
        return RootVector(tuple(counts), root.k)
    return on_root(m, "_avec", count, RootVector.rotate)


def identify_rank1(m: CMModuleRep) -> Rim:
    """The unique rim I with m isomorphic to the rank-1 module of I.

    Requires rank 1 with valid relations; the rim is the set of edges
    whose forward map is a unit.  Telling valuation 1 from higher ones
    needs the maps correct modulo t^2.
    """
    if m.s != 1:
        raise NotRankOne(f"rank {m.s} module passed to rank-1 identification")
    if m.floor < 2:
        raise TruncationUnstable(f"floor {m.floor} cannot certify an x valuation of 1")
    if validate_relations(m):
        raise NotRankOne("relations fail; not a module")
    members = []
    for i in range(1, m.n + 1):
        v = m.x[i].data[0][0].valuation()
        if v == 0:
            members.append(i)
        elif v != 1:
            raise NotRankOne(f"x_{i} has valuation {v}, expected 0 or 1")
    if len(members) != m.k:
        raise NotRankOne(f"unit edges {members} do not form a {m.k}-subset")
    return rim(members, m.k, m.n)


def lattice_diagram_data(p: Profile) -> dict:
    """Column heights and rim polylines for the diagram emitters.

    Columns run 0..n left to right (0 and n identified up to the t-shift),
    leftmost labelled n.  A rim drops one unit at column i when i is in
    the layer and rises otherwise; successive layers are placed as high as
    possible below the previous one, touching without crossing.  Each
    column shows its tops and the two lattice points below each of them.
    """
    n = p.n
    polylines = []
    prev: Optional[list[int]] = None
    for layer in p.layers:
        h = [0]
        for i in range(1, n + 1):
            h.append(h[-1] + (-1 if i in layer else 1))
        if prev is not None:
            delta = min(prev[i] - h[i] for i in range(n + 1))
            h = [v + delta for v in h]
        polylines.append(h)
        prev = h
    low = min(min(h) for h in polylines)
    polylines = [[v - low for v in h] for h in polylines]
    columns = []
    for i in range(n + 1):
        tops = [h[i] for h in polylines]
        columns.append({
            "column": i,
            "label": n if i == 0 else i,
            "tops": tops,
            "dots": sorted({t - 2 * d for t in tops for d in range(3)},
                           reverse=True),
        })
    return {
        "n": n,
        "k": p.k,
        "layers": [list(r.elements) for r in p.layers],
        "polylines": polylines,
        "columns": columns,
    }
